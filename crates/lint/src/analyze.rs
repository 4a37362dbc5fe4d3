//! Whole-workspace analysis over per-file facts: inter-procedural
//! lock-order graph construction and rule evaluation.
//!
//! Every rule here is evaluated *violation-first*: the analysis decides
//! that a site would be reported before it consults any suppression.
//! A suppression that actually fires is recorded as used; the
//! `unused-allow` pass at the end turns every annotation that never
//! fired into a diagnostic of its own, so stale `allow(...)` comments
//! cannot silently mask future regressions.

use crate::{lockgap, lockset, Diagnostic, FileFacts, RankExpr};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A lock identity: `(crate, field name)`. Field names are assumed
/// unique per crate among *lock* fields — a collision would merge two
/// locks into one node, which over-approximates (may report a spurious
/// order) but never hides a real one within either field.
pub type FieldKey = (String, String);

/// Every rule name the suppression syntax accepts.
pub const RULES: [&str; 8] = [
    "lock-order",
    "guard-across-revoke",
    "guard-across-rpc",
    "double-lock",
    "std-sync",
    "lockset",
    "lock-gap",
    "unused-allow",
];

struct FieldInfo {
    rank: Option<u16>,
    exempt: HashSet<String>,
    /// Declaration sites `(file, line)` — where the exempting allows
    /// live, so their use can be credited.
    decls: Vec<(usize, u32)>,
}

struct FnRef {
    file: usize,
    func: usize,
}

#[derive(Clone)]
struct Edge {
    from: FieldKey,
    to: FieldKey,
    file: usize,
    line: u32,
    via: Option<String>,
}

pub fn analyze(files: &[FileFacts]) -> Vec<Diagnostic> {
    // ---- global tables ----
    let mut rank_consts: HashMap<String, u16> = HashMap::new();
    for f in files {
        rank_consts.extend(f.rank_consts.iter().map(|(k, v)| (k.clone(), *v)));
    }

    let mut fields: HashMap<FieldKey, FieldInfo> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        for d in &f.fields {
            let key = (f.crate_name.clone(), d.name.clone());
            let rank = match &d.rank {
                Some(RankExpr::Literal(v)) => Some(*v),
                Some(RankExpr::Const(name)) => rank_consts.get(name).copied(),
                None => None,
            };
            let exempt = f.allows.get(&d.line).cloned().unwrap_or_default();
            let info = fields
                .entry(key)
                .or_insert(FieldInfo { rank: None, exempt: HashSet::new(), decls: Vec::new() });
            if info.rank.is_none() {
                info.rank = rank;
            }
            info.exempt.extend(exempt);
            info.decls.push((fi, d.line));
        }
    }

    let mut fns: Vec<FnRef> = Vec::new();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            by_name.entry(g.name.as_str()).or_default().push(fns.len());
            fns.push(FnRef { file: fi, func: gi });
        }
    }

    // Nearest-definition call resolution. Calls on `self` (or free
    // calls) prefer the same file, then the same crate, then the whole
    // workspace. Calls through any other receiver (`self.vldb.lookup`,
    // `tm.grant`) are dispatched on some *other* object, so the current
    // file is excluded — otherwise a client's `self.vldb.lookup(..)`
    // resolves to the client's own `fn lookup` file operation.
    let resolve = |caller_file: usize, callee: &str, receiver: &str| -> Vec<usize> {
        let Some(cands) = by_name.get(callee) else { return Vec::new() };
        let on_self = receiver.is_empty() || receiver == "self";
        if on_self {
            let same_file: Vec<usize> =
                cands.iter().copied().filter(|&i| fns[i].file == caller_file).collect();
            if !same_file.is_empty() {
                return same_file;
            }
        }
        let crate_name = &files[caller_file].crate_name;
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                &files[fns[i].file].crate_name == crate_name
                    && (on_self || fns[i].file != caller_file)
            })
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        cands.iter().copied().filter(|&i| on_self || fns[i].file != caller_file).collect()
    };

    let audited = |i: usize, rule: &str| -> bool {
        files[fns[i].file].fns[fns[i].func].audited.contains(rule)
    };

    // ---- suppression usage ledger ----
    // `(file, line, rule)` of every allow annotation that suppressed (or
    // would have suppressed) a concrete violation. The checks below are
    // only ever consulted once a violation has been established, so
    // "consulted and present" is exactly "load-bearing".
    let used: RefCell<HashSet<(usize, u32, String)>> = RefCell::new(HashSet::new());
    let suppressed_at = |file: usize, line: u32, rule: &str| -> bool {
        if files[file].allows.get(&line).map(|r| r.contains(rule)).unwrap_or(false) {
            used.borrow_mut().insert((file, line, rule.to_string()));
            true
        } else {
            false
        }
    };
    let exempt_field = |k: &FieldKey, rule: &str| -> bool {
        let Some(info) = fields.get(k) else { return false };
        if !info.exempt.contains(rule) {
            return false;
        }
        let mut u = used.borrow_mut();
        for (df, dl) in &info.decls {
            if files[*df].allows.get(dl).map(|r| r.contains(rule)).unwrap_or(false) {
                u.insert((*df, *dl, rule.to_string()));
            }
        }
        true
    };
    let audit_used = |i: usize, rule: &str| {
        let r = &fns[i];
        used.borrow_mut().insert((r.file, files[r.file].fns[r.func].line, rule.to_string()));
    };

    // ---- fixpoint: transitive acquisitions + rpc-sender propagation ----
    // `sends` stops propagating at audited functions (their callers are
    // vouched for); `sends_raw` ignores audits and exists only to judge
    // whether each audit is load-bearing.
    let mut reach: Vec<HashSet<FieldKey>> = Vec::with_capacity(fns.len());
    let mut sends: Vec<bool> = Vec::with_capacity(fns.len());
    for r in &fns {
        let f = &files[r.file];
        let mut acq = HashSet::new();
        for a in &f.fns[r.func].acquisitions {
            acq.insert((f.crate_name.clone(), a.field.clone()));
        }
        reach.push(acq);
        let direct = f.fns[r.func].calls.iter().any(|c| c.direct_rpc);
        sends.push(direct);
    }
    let mut sends_raw = sends.clone();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 1000 {
        changed = false;
        rounds += 1;
        for i in 0..fns.len() {
            let r = &fns[i];
            let calls: Vec<(String, String)> = files[r.file].fns[r.func]
                .calls
                .iter()
                .map(|c| (c.callee.clone(), c.receiver.clone()))
                .collect();
            for (callee, receiver) in &calls {
                for g in resolve(r.file, callee, receiver) {
                    if g == i {
                        continue;
                    }
                    let add: Vec<FieldKey> =
                        reach[g].iter().filter(|k| !reach[i].contains(*k)).cloned().collect();
                    if !add.is_empty() {
                        reach[i].extend(add);
                        changed = true;
                    }
                    if sends[g] && !audited(g, "guard-across-rpc") && !sends[i] {
                        sends[i] = true;
                        changed = true;
                    }
                    if sends_raw[g] && !sends_raw[i] {
                        sends_raw[i] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    // An rpc audit earns its keep iff the function actually sends
    // (directly or transitively): the annotation is then what keeps the
    // sender from tainting every caller.
    for (i, raw) in sends_raw.iter().enumerate() {
        if *raw && audited(i, "guard-across-rpc") {
            audit_used(i, "guard-across-rpc");
        }
    }

    // ---- helper tables for the lockset fixpoint ----
    let fns_pairs: Vec<(usize, usize)> = fns.iter().map(|r| (r.file, r.func)).collect();
    let resolved: Vec<Vec<Vec<usize>>> = fns
        .iter()
        .map(|r| {
            files[r.file].fns[r.func]
                .calls
                .iter()
                .map(|c| resolve(r.file, &c.callee, &c.receiver))
                .collect()
        })
        .collect();

    // ---- edge collection + per-call rules ----
    let mut edges: Vec<Edge> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        for func in &f.fns {
            for a in &func.acquisitions {
                let to = (f.crate_name.clone(), a.field.clone());
                for (h, hline) in &a.held {
                    let from = (f.crate_name.clone(), h.clone());
                    if from == to {
                        // Rule (c): double acquisition of one field while
                        // its own guard is still live.
                        let line_ok = suppressed_at(fi, a.line, "double-lock");
                        let field_ok = exempt_field(&to, "double-lock");
                        if !line_ok && !field_ok {
                            diags.push(Diagnostic {
                                path: f.path.clone(),
                                line: a.line,
                                rule: "double-lock".into(),
                                message: format!(
                                    "`{}` re-acquired while its guard from line {} is still live \
                                     (self-deadlock with a non-reentrant lock)",
                                    a.field, hline
                                ),
                            });
                        }
                        continue;
                    }
                    edges.push(Edge {
                        from,
                        to: to.clone(),
                        file: fi,
                        line: a.line,
                        via: None,
                    });
                }
            }
            for c in &func.calls {
                if c.held.is_empty() {
                    continue;
                }
                // Rule (b): guard live across `TokenHost::revoke` (or
                // its batched sibling `revoke_batch` — same §5.1
                // requirement, one callback for many tokens).
                if c.callee == "revoke" || c.callee == "revoke_batch" {
                    let live: Vec<&(String, u32)> = c
                        .held
                        .iter()
                        .filter(|(h, _)| {
                            !exempt_field(
                                &(f.crate_name.clone(), h.clone()),
                                "guard-across-revoke",
                            )
                        })
                        .collect();
                    if !live.is_empty() {
                        if func.audited.contains("guard-across-revoke") {
                            used.borrow_mut().insert((
                                fi,
                                func.line,
                                "guard-across-revoke".to_string(),
                            ));
                        } else if !suppressed_at(fi, c.line, "guard-across-revoke") {
                            diags.push(Diagnostic {
                                path: f.path.clone(),
                                line: c.line,
                                rule: "guard-across-revoke".into(),
                                message: format!(
                                    "guard on `{}` (line {}) held across TokenHost::{}; \
                                     §5.1/§6.4 require revocation to be issued with no locks held",
                                    live[0].0, live[0].1, c.callee
                                ),
                            });
                        }
                    }
                }
                // Rule (b'): guard live across a dfs-rpc send.
                let sends_here = c.direct_rpc
                    || resolve(fi, &c.callee, &c.receiver)
                        .into_iter()
                        .any(|g| sends[g] && !audited(g, "guard-across-rpc"));
                if sends_here {
                    let live_rpc: Vec<&(String, u32)> = c
                        .held
                        .iter()
                        .filter(|(h, _)| {
                            !exempt_field(&(f.crate_name.clone(), h.clone()), "guard-across-rpc")
                        })
                        .collect();
                    if !live_rpc.is_empty() {
                        if func.audited.contains("guard-across-rpc") {
                            used.borrow_mut().insert((
                                fi,
                                func.line,
                                "guard-across-rpc".to_string(),
                            ));
                        } else if !suppressed_at(fi, c.line, "guard-across-rpc") {
                            diags.push(Diagnostic {
                                path: f.path.clone(),
                                line: c.line,
                                rule: "guard-across-rpc".into(),
                                message: format!(
                                    "guard on `{}` (line {}) held across {}; the peer's reply can \
                                     block on a revocation that needs this lock (§5.1/§6.4)",
                                    live_rpc[0].0,
                                    live_rpc[0].1,
                                    if c.direct_rpc {
                                        "a dfs-rpc send".to_string()
                                    } else {
                                        format!("`{}`, which sends dfs-rpc", c.callee)
                                    }
                                ),
                            });
                        }
                    }
                }
                // Interprocedural lock-order edges.
                for g in resolve(fi, &c.callee, &c.receiver) {
                    for to in &reach[g] {
                        for (h, _) in &c.held {
                            let from = (f.crate_name.clone(), h.clone());
                            if &from == to {
                                // Same lock reached through a call: almost
                                // always the recursion artifact of nearest-
                                // definition resolution, not a real
                                // re-entry; covered dynamically instead.
                                continue;
                            }
                            edges.push(Edge {
                                from,
                                to: to.clone(),
                                file: fi,
                                line: c.line,
                                via: Some(c.callee.clone()),
                            });
                        }
                    }
                }
            }
        }
    }

    // ---- rule (a): rank inversions on edges ----
    for e in &edges {
        let (Some(fa), Some(fb)) = (fields.get(&e.from), fields.get(&e.to)) else { continue };
        let (Some(ra), Some(rb)) = (fa.rank, fb.rank) else { continue };
        if rb > ra {
            continue; // ascending — the sanctioned direction
        }
        // Would-be violation established; consult suppressions (`|` so
        // both field exemptions get usage credit).
        if exempt_field(&e.from, "lock-order") | exempt_field(&e.to, "lock-order") {
            continue;
        }
        if suppressed_at(e.file, e.line, "lock-order") {
            continue;
        }
        let via = e.via.as_ref().map(|v| format!(" via `{v}`")).unwrap_or_default();
        if rb < ra {
            diags.push(Diagnostic {
                path: files[e.file].path.clone(),
                line: e.line,
                rule: "lock-order".into(),
                message: format!(
                    "acquiring `{}` (rank {}) while holding `{}` (rank {}){} inverts the \
                     declared hierarchy",
                    e.to.1, rb, e.from.1, ra, via
                ),
            });
        } else {
            diags.push(Diagnostic {
                path: files[e.file].path.clone(),
                line: e.line,
                rule: "lock-order".into(),
                message: format!(
                    "acquiring `{}` while holding `{}`{} — both rank {}; same-rank locks must \
                     never nest",
                    e.to.1, e.from.1, via, ra
                ),
            });
        }
    }

    // ---- rule (a): cycles involving unranked locks ----
    // Ranked-field cycles necessarily contain a rank inversion and are
    // already reported above; here we catch A→B / B→A orderings among
    // locks with no declared rank.
    let mut adj: BTreeMap<&FieldKey, BTreeSet<&FieldKey>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reachable = |from: &FieldKey, to: &FieldKey| -> bool {
        let mut seen: BTreeSet<&FieldKey> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(k) = stack.pop() {
            if k == to {
                return true;
            }
            if let Some(next) = adj.get(k) {
                for n in next {
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        false
    };
    let ranked = |k: &FieldKey| fields.get(k).and_then(|f| f.rank).is_some();
    let mut reported: BTreeSet<(FieldKey, FieldKey)> = BTreeSet::new();
    for e in &edges {
        if e.from == e.to {
            continue;
        }
        if ranked(&e.from) && ranked(&e.to) {
            continue;
        }
        let pair = if e.from <= e.to {
            (e.from.clone(), e.to.clone())
        } else {
            (e.to.clone(), e.from.clone())
        };
        if reported.contains(&pair) {
            continue;
        }
        if reachable(&e.to, &e.from) {
            if exempt_field(&e.from, "lock-order") | exempt_field(&e.to, "lock-order") {
                continue;
            }
            if suppressed_at(e.file, e.line, "lock-order") {
                continue;
            }
            reported.insert(pair);
            let via = e.via.as_ref().map(|v| format!(" via `{v}`")).unwrap_or_default();
            diags.push(Diagnostic {
                path: files[e.file].path.clone(),
                line: e.line,
                rule: "lock-order".into(),
                message: format!(
                    "lock-order cycle: `{}.{}` acquired while holding `{}.{}`{}, but another \
                     path acquires them in the opposite order",
                    e.to.0, e.to.1, e.from.0, e.from.1, via
                ),
            });
        }
    }

    // ---- rule (d): std::sync locks ----
    for (fi, f) in files.iter().enumerate() {
        for (line, ty) in &f.std_sync_sites {
            if suppressed_at(fi, *line, "std-sync") {
                continue;
            }
            diags.push(Diagnostic {
                path: f.path.clone(),
                line: *line,
                rule: "std-sync".into(),
                message: format!(
                    "std::sync::{ty} in non-test code; use parking_lot via \
                     dfs_types::lock::Ordered{ty} so the rank enforcer sees it"
                ),
            });
        }
    }

    // ---- rule (e): lockset coverage ----
    let fmt_held = |set: &BTreeSet<String>| -> String {
        if set.is_empty() {
            "no lock".to_string()
        } else {
            set.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ")
        }
    };
    for finding in lockset::analyze(files, &fns_pairs, &resolved) {
        // A decl-site allow exempts the field everywhere.
        let mut decl_exempt = false;
        for (df, dl) in &finding.decl {
            decl_exempt |= suppressed_at(*df, *dl, "lockset");
        }
        if decl_exempt {
            continue;
        }
        // Report at the least-protected write site (the likeliest
        // culprit) that is not itself suppressed.
        let mut writes: Vec<&lockset::Site> = finding.sites.iter().filter(|s| s.write).collect();
        writes.sort_by(|a, b| {
            (a.held.len(), &files[a.file].path, a.line)
                .cmp(&(b.held.len(), &files[b.file].path, b.line))
        });
        for site in writes {
            if suppressed_at(site.file, site.line, "lockset") {
                continue;
            }
            let witness = finding
                .sites
                .iter()
                .find(|s| {
                    (s.file, s.line) != (site.file, site.line)
                        && s.held.intersection(&site.held).next().is_none()
                })
                .or_else(|| {
                    finding.sites.iter().find(|s| (s.file, s.line) != (site.file, site.line))
                });
            let evidence = witness
                .map(|w| {
                    format!(
                        ", but {}:{} holds {}",
                        files[w.file].path,
                        w.line,
                        fmt_held(&w.held)
                    )
                })
                .unwrap_or_default();
            diags.push(Diagnostic {
                path: files[site.file].path.clone(),
                line: site.line,
                rule: "lockset".into(),
                message: format!(
                    "shared field `{}` has an empty candidate lockset across {} access sites: \
                     this write holds {}{}; no common lock protects the field",
                    finding.field,
                    finding.sites.len(),
                    fmt_held(&site.held),
                    evidence
                ),
            });
            break;
        }
    }

    // ---- rule (f): release/reacquire TOCTOU ----
    for g in lockgap::analyze(files) {
        let key = (files[g.file].crate_name.clone(), g.field.clone());
        if g.fn_audited {
            used.borrow_mut().insert((g.file, g.fn_line, "lock-gap".to_string()));
            continue;
        }
        if exempt_field(&key, "lock-gap") {
            continue;
        }
        if suppressed_at(g.file, g.line, "lock-gap") {
            continue;
        }
        diags.push(Diagnostic {
            path: files[g.file].path.clone(),
            line: g.line,
            rule: "lock-gap".into(),
            message: g.message,
        });
    }

    // ---- rule (g): stale or unknown suppressions ----
    // An annotation must either name a real rule and have suppressed a
    // concrete would-be violation above, or it is itself a diagnostic.
    // `allow(unused-allow)` on a line opts that line out (kept for
    // annotations that are load-bearing only on some platforms/configs).
    {
        let used = used.borrow();
        for (fi, f) in files.iter().enumerate() {
            for (line, rules) in &f.allows {
                if rules.contains("unused-allow") {
                    continue;
                }
                let mut sorted: Vec<&String> = rules.iter().collect();
                sorted.sort();
                for rule in sorted {
                    if !RULES.contains(&rule.as_str()) {
                        diags.push(Diagnostic {
                            path: f.path.clone(),
                            line: *line,
                            rule: "unused-allow".into(),
                            message: format!(
                                "`dfs-lint: allow({rule})` names an unknown rule; known rules \
                                 are {}",
                                RULES.join(", ")
                            ),
                        });
                    } else if !used.contains(&(fi, *line, rule.clone())) {
                        diags.push(Diagnostic {
                            path: f.path.clone(),
                            line: *line,
                            rule: "unused-allow".into(),
                            message: format!(
                                "`dfs-lint: allow({rule})` suppresses nothing here; remove the \
                                 stale annotation"
                            ),
                        });
                    }
                }
            }
        }
    }

    diags.sort();
    diags.dedup();
    diags
}
