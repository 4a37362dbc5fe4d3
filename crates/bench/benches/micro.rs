//! Criterion micro-benchmarks for the hot paths of every subsystem.
//!
//! These complement the experiment harnesses (`src/bin/t*.rs`): the
//! harnesses reproduce the paper's comparative results in simulated
//! time; these measure real CPU cost of the reproduction's hot paths.

use criterion::{criterion_group, criterion_main, Criterion};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_journal::{Journal, LogRegion};
use dfs_token::{TokenManager, TokenTypes};
use dfs_types::{ByteRange, ClientId, Fid, HostId, SimClock, VnodeId, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};
use std::hint::black_box;
use std::sync::Arc;

fn bench_journal(c: &mut Criterion) {
    let disk = SimDisk::new(DiskConfig::with_blocks(64 * 1024));
    let jn = Journal::format(disk, LogRegion { first_block: 1, blocks: 1024 }).unwrap();
    let buf = jn.get(5000).unwrap();
    c.bench_function("journal_update_commit", |b| {
        b.iter(|| {
            let t = jn.begin();
            jn.update(t, &buf, 0, black_box(&[7u8; 64])).unwrap();
            jn.commit(t).unwrap();
        })
    });
    c.bench_function("journal_group_commit_100", |b| {
        b.iter(|| {
            for i in 0..100 {
                let t = jn.begin();
                jn.update(t, &buf, (i % 32) * 64, &[i as u8; 64]).unwrap();
                jn.commit(t).unwrap();
            }
            jn.sync().unwrap();
        })
    });
}

fn bench_buffer_cache(c: &mut Criterion) {
    let disk = SimDisk::new(DiskConfig::with_blocks(64 * 1024));
    let jn = Journal::format(disk, LogRegion { first_block: 1, blocks: 256 }).unwrap();
    jn.get(9000).unwrap();
    c.bench_function("buffer_cache_hit", |b| {
        b.iter(|| {
            let h = jn.get(black_box(9000)).unwrap();
            black_box(h.u32_at(0));
        })
    });
}

fn bench_tokens(c: &mut Criterion) {
    struct Quiet;
    impl dfs_token::TokenHost for Quiet {
        fn host_id(&self) -> HostId {
            HostId::Client(ClientId(1))
        }
        fn revoke(
            &self,
            _t: &dfs_token::Token,
            _ty: TokenTypes,
            _s: dfs_types::SerializationStamp,
        ) -> dfs_token::RevokeResult {
            dfs_token::RevokeResult::Returned
        }
    }
    let tm = TokenManager::new();
    tm.register_host(Arc::new(Quiet));
    let host = HostId::Client(ClientId(1));
    let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
    c.bench_function("token_grant_release", |b| {
        b.iter(|| {
            let (t, _) = tm
                .grant(host, fid, TokenTypes::DATA_READ, ByteRange::WHOLE)
                .unwrap();
            tm.release(host, t.fid, t.id);
        })
    });
    c.bench_function("token_compatibility_check", |b| {
        let a = dfs_token::Token {
            id: dfs_token::TokenId(1),
            fid,
            types: TokenTypes::DATA_WRITE,
            range: ByteRange::new(0, 4096),
        };
        let w = dfs_token::Token {
            id: dfs_token::TokenId(2),
            fid,
            types: TokenTypes::DATA_READ,
            range: ByteRange::new(2048, 8192),
        };
        b.iter(|| black_box(dfs_token::compatible(black_box(&a), black_box(&w))))
    });
}

fn bench_episode(c: &mut Criterion) {
    let disk = SimDisk::new(DiskConfig::with_blocks(128 * 1024));
    let ep = Episode::format(disk, SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = v.root().unwrap();
    // Pre-populate a directory for lookups.
    for i in 0..500 {
        v.create(&cred, root, &format!("entry-{i:04}"), 0o644).unwrap();
    }
    let target = v.lookup(&cred, root, "entry-0250").unwrap();
    c.bench_function("episode_lookup_500_entries", |b| {
        b.iter(|| black_box(v.lookup(&cred, root, black_box("entry-0250")).unwrap()))
    });
    c.bench_function("episode_getattr", |b| {
        b.iter(|| black_box(v.getattr(&cred, target.fid).unwrap()))
    });
    let f = v.create(&cred, root, "bench-data", 0o644).unwrap();
    v.write(&cred, f.fid, 0, &vec![1u8; 64 * 1024]).unwrap();
    c.bench_function("episode_read_4k", |b| {
        b.iter(|| black_box(v.read(&cred, f.fid, 8192, 4096).unwrap()))
    });
    let mut n = 0u64;
    c.bench_function("episode_write_4k", |b| {
        b.iter(|| {
            n = (n + 1) % 16;
            v.write(&cred, f.fid, n * 4096, &[n as u8; 4096]).unwrap()
        })
    });
    let mut i = 0u64;
    c.bench_function("episode_create_remove", |b| {
        b.iter(|| {
            i += 1;
            let name = format!("churn-{i}");
            v.create(&cred, root, &name, 0o644).unwrap();
            v.remove(&cred, root, &name).unwrap();
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let cell = dfs_core::Cell::builder().servers(1).latency_us(0).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let cm = cell.new_client();
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "hot", 0o644).unwrap();
    cm.write(f.fid, 0, &vec![1u8; 16 * 1024]).unwrap();
    cm.read(f.fid, 0, 4096).unwrap();
    c.bench_function("client_cached_read_4k", |b| {
        b.iter(|| black_box(cm.read(f.fid, 4096, 4096).unwrap()))
    });
    c.bench_function("client_local_write_4k", |b| {
        b.iter(|| cm.write(f.fid, 8192, black_box(&[9u8; 4096])).unwrap())
    });
    cm.lookup(root, "hot").unwrap();
    c.bench_function("client_cached_lookup", |b| {
        b.iter(|| black_box(cm.lookup(root, "hot").unwrap()))
    });
    c.bench_function("rpc_roundtrip_ping", |b| {
        use dfs_rpc::{Addr, CallClass, Request};
        let net = cell.net().clone();
        let srv = Addr::Server(cell.server(0).id());
        b.iter(|| {
            black_box(
                net.call(
                    Addr::Client(dfs_types::ClientId(77)),
                    srv,
                    None,
                    CallClass::Normal,
                    Request::Ping,
                )
                .unwrap(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_journal, bench_buffer_cache, bench_tokens, bench_episode, bench_end_to_end
}
criterion_main!(benches);
