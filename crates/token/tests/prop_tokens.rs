//! Property-based tests for the token compatibility relation (§5.2).

use dfs_token::{compatible, conflict_bits, Token, TokenId, TokenTypes};
use dfs_types::{ByteRange, Fid, VnodeId, VolumeId};
use proptest::prelude::*;

fn types_strategy() -> impl Strategy<Value = TokenTypes> {
    (0u32..(1 << 11)).prop_map(TokenTypes)
}

fn range_strategy() -> impl Strategy<Value = ByteRange> {
    prop_oneof![
        3 => (0u64..1000, 1u64..1000).prop_map(|(s, l)| ByteRange::new(s, s + l)),
        1 => Just(ByteRange::WHOLE),
    ]
}

fn token_strategy() -> impl Strategy<Value = Token> {
    (1u64..3, 0u32..3, types_strategy(), range_strategy()).prop_map(|(vol, vn, types, range)| {
        Token {
            id: TokenId(1),
            fid: Fid::new(VolumeId(vol), VnodeId(vn), 1),
            types,
            range,
        }
    })
}

proptest! {
    #[test]
    fn compatibility_is_symmetric(a in token_strategy(), b in token_strategy()) {
        prop_assert_eq!(compatible(&a, &b), compatible(&b, &a));
    }

    #[test]
    fn conflict_bits_subset_of_held(a in token_strategy(), b in token_strategy()) {
        let bits = conflict_bits(&a, &b);
        prop_assert!(a.types.contains(bits), "conflict bits must come from the held token");
    }

    #[test]
    fn stripping_conflicts_restores_compatibility(a in token_strategy(), b in token_strategy()) {
        // The partial-revocation invariant: after removing exactly the
        // conflicting bits from each side, the tokens coexist.
        let mut a2 = a.clone();
        a2.types = a2.types.minus(conflict_bits(&a, &b));
        let mut b2 = b.clone();
        b2.types = b2.types.minus(conflict_bits(&b, &a2));
        prop_assert!(
            compatible(&a2, &b2),
            "a2={:?} b2={:?} still conflict",
            a2.types,
            b2.types
        );
    }

    #[test]
    fn different_files_never_conflict(a in token_strategy(), b in token_strategy()) {
        if a.fid != b.fid
            && a.fid.vnode.0 != 0
            && b.fid.vnode.0 != 0
        {
            prop_assert!(compatible(&a, &b));
        }
    }

    #[test]
    fn disjoint_ranges_never_conflict_on_data_or_locks(
        base in 0u64..1000,
        la in 1u64..100,
        lb in 1u64..100,
        ta in types_strategy(),
        tb in types_strategy(),
    ) {
        // Strip status and open bits (those ignore ranges).
        let rangey = TokenTypes(
            TokenTypes::DATA_READ.0
                | TokenTypes::DATA_WRITE.0
                | TokenTypes::LOCK_READ.0
                | TokenTypes::LOCK_WRITE.0,
        );
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let a = Token {
            id: TokenId(1),
            fid,
            types: TokenTypes(ta.0 & rangey.0),
            range: ByteRange::new(base, base + la),
        };
        let b = Token {
            id: TokenId(2),
            fid,
            types: TokenTypes(tb.0 & rangey.0),
            range: ByteRange::new(base + la, base + la + lb),
        };
        prop_assert!(compatible(&a, &b), "disjoint byte ranges must coexist (§5.4)");
    }

    #[test]
    fn pure_readers_never_conflict(ra in range_strategy(), rb in range_strategy()) {
        let readers = TokenTypes(
            TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0 | TokenTypes::LOCK_READ.0,
        );
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let a = Token { id: TokenId(1), fid, types: readers, range: ra };
        let b = Token { id: TokenId(2), fid, types: readers, range: rb };
        prop_assert!(compatible(&a, &b));
    }

    #[test]
    fn volume_token_conflicts_dominate_file_tokens(t in token_strategy()) {
        // A whole-volume writer conflicts with any same-volume token
        // that a whole-file writer would conflict with.
        let writer_types = TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0);
        let vol_tok = Token {
            id: TokenId(9),
            fid: Fid::new(t.fid.volume, VnodeId(0), 0),
            types: writer_types,
            range: ByteRange::WHOLE,
        };
        let file_tok = Token {
            id: TokenId(10),
            fid: t.fid,
            types: writer_types,
            range: ByteRange::WHOLE,
        };
        if t.fid.vnode.0 != 0 && !compatible(&file_tok, &t) {
            prop_assert!(
                !compatible(&vol_tok, &t),
                "volume token must conflict at least as much as a file token"
            );
        }
    }
}
