//! Turns the runs of one invocation into the reported metrics.

use crate::stats::{
    self, covered, median, parents, percentile, ratio, self_times, Interval, Metric,
};
use crate::trace::{Layer, Span};
use crate::workload::CLASS_NAMES;
use crate::{Mode, Rep};
use std::collections::BTreeMap;

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn cpu_us_per_op(r: &Rep) -> f64 {
    r.timed_cpu_ns as f64 / 1e3 / r.ops as f64
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>()).expect("at least one run")
}

/// End-to-end metrics.
pub fn end_to_end(reps: &[Rep], attempted: u64, failed: u64) -> Vec<Metric> {
    let first = &reps[0];
    let ops = first.ops as f64;
    vec![
        m(
            "setup_s",
            "s",
            median_of(reps, |r| r.setup_cpu_ns as f64 / 1e9),
        ),
        m(
            "ok_ratio",
            "ratio",
            ratio((attempted - failed) as f64, attempted as f64),
        ),
        m(
            "rpcs_per_op",
            "calls",
            first.counters.net.calls as f64 / ops,
        ),
        m(
            "net_bytes_per_op",
            "B",
            first.counters.net.bytes as f64 / ops,
        ),
        m(
            "disk_us_per_op",
            "us",
            median_of(reps, |r| r.counters.disk.busy_us as f64 / ops),
        ),
        m(
            "write_amp",
            "ratio",
            median_of(reps, |r| {
                ratio(
                    (r.counters.disk.stable_writes * 4096) as f64,
                    r.user_bytes as f64,
                )
            }),
        ),
    ]
}

/// Process CPU per timed op, all threads: the median over the plain
/// runs.
pub fn plain_cpu_us_per_op(reps: &[Rep]) -> f64 {
    let plain: Vec<f64> = reps
        .iter()
        .filter(|r| r.mode == Mode::Plain)
        .map(cpu_us_per_op)
        .collect();
    median(&plain).expect("at least one plain run")
}

/// True when every op class is either absent from the run or has enough
/// samples to support its p99.
pub fn enough_samples(r: &Rep) -> bool {
    r.vlat
        .iter()
        .all(|v| v.is_empty() || stats::supports(v.len(), 99.0))
}

/// Virtual-latency summary of one class: (samples, p50, p99, mean),
/// all 0 for a class the workload does not issue.
pub fn vlat_summary(samples: &[u64]) -> (usize, u64, u64, f64) {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let mean = ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    (
        v.len(),
        percentile(&v, 50.0).unwrap_or(0),
        percentile(&v, 99.0).unwrap_or(0),
        mean,
    )
}

/// Span totals of one traced run.
#[derive(Default)]
struct Ledger {
    client_self_ns: u64,
    server_self_ns: u64,
    revoke_ns: u64,
    revoke_calls: u64,
    revoke_wait_ns: u64,
    server: BTreeMap<&'static str, (u64, u64)>,
    episode: BTreeMap<&'static str, (u64, u64)>,
}

fn ledger(spans: &[Span]) -> Ledger {
    let mut l = Ledger::default();
    let mut by_op: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(*s);
    }
    for group in by_op.values() {
        let ivs: Vec<Interval> = group.iter().map(|s| s.iv).collect();
        let own = self_times(&ivs);
        let par = parents(&ivs);
        let mut revoke_kids: BTreeMap<usize, Vec<Interval>> = BTreeMap::new();
        for (i, s) in group.iter().enumerate() {
            match s.layer {
                Layer::Client => l.client_self_ns += own[i],
                Layer::Revoke => {
                    l.client_self_ns += own[i];
                    l.revoke_ns += s.iv.len();
                    l.revoke_calls += 1;
                    if let Some(p) = par[i].filter(|&p| group[p].layer == Layer::Server) {
                        revoke_kids.entry(p).or_default().push(s.iv);
                    }
                }
                Layer::Server => {
                    l.server_self_ns += own[i];
                    let e = l.server.entry(s.name).or_default();
                    e.0 += 1;
                    e.1 += s.iv.len();
                }
                Layer::Episode => {
                    let e = l.episode.entry(s.name).or_default();
                    e.0 += 1;
                    e.1 += s.iv.len();
                }
            }
        }
        for (p, mut kids) in revoke_kids {
            l.revoke_wait_ns += covered(group[p].iv, &mut kids);
        }
    }
    l
}

/// RPC labels reported per layer; a label a workload never sends
/// reads 0. These are every label the three workloads send.
pub const RPC_LABELS: [&str; 10] = [
    "Create",
    "FetchData",
    "FetchStatus",
    "GetToken",
    "Remove",
    "RevokeToken",
    "RevokeVec",
    "StoreData",
    "StoreDataVec",
    "StoreStatus",
];

/// The labels of `RPC_LABELS` the file server dispatches (the other two
/// are calls to clients).
const SERVER_LABELS: [&str; 8] = [
    "Create",
    "FetchData",
    "FetchStatus",
    "GetToken",
    "Remove",
    "StoreData",
    "StoreDataVec",
    "StoreStatus",
];

/// Episode vnode ops the three workloads reach.
const EPISODE_OPS: [&str; 7] = [
    "create",
    "getattr",
    "lookup",
    "read",
    "remove",
    "setattr",
    "write_vec",
];

/// Names observed in a run that the fixed lists above do not report.
pub fn unreported(t: &Rep) -> Vec<&'static str> {
    let rpc = t
        .counters
        .net
        .by_label
        .keys()
        .copied()
        .filter(|k| !RPC_LABELS.contains(k));
    let ep = t
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Episode)
        .map(|s| s.name);
    let mut out: Vec<_> = rpc.chain(ep.filter(|k| !EPISODE_OPS.contains(k))).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Per-layer metrics from the traced run, plus the tracing overhead
/// against the plain runs and the op-level virtual-latency summary.
pub fn per_layer(reps: &[Rep]) -> Vec<Metric> {
    let t = &reps[0];
    let ops = t.ops as f64;
    let per_op = |x: u64| x as f64 / ops;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let c = &t.counters;
    let cl = &c.client;
    let l = ledger(&t.spans);
    let mut out = vec![
        m(
            "client.hit_ratio",
            "ratio",
            ratio(
                cl.local_reads as f64,
                (cl.local_reads + cl.remote_reads) as f64,
            ),
        ),
        m(
            "client.lockfree_share",
            "ratio",
            ratio(cl.lockfree_reads as f64, cl.local_reads as f64),
        ),
        m("client.self_us_per_op", "us", us_per_op(l.client_self_ns)),
        m(
            "client.token_fetches_per_write",
            "calls",
            ratio(
                cl.write_token_fetches as f64,
                (cl.local_writes + cl.write_token_fetches) as f64,
            ),
        ),
        m(
            "client.revoke_us_per_call",
            "us",
            ratio(l.revoke_ns as f64 / 1e3, l.revoke_calls as f64),
        ),
        m(
            "client.storeback_pages_per_rpc",
            "pages",
            ratio(cl.storeback_pages as f64, cl.storeback_rpcs as f64),
        ),
        m(
            "client.retries",
            "count",
            (cl.busy_retries + cl.backoff_rounds + cl.transport_retries + cl.grace_waits) as f64,
        ),
    ];
    let get = |map: &std::collections::HashMap<&'static str, u64>, k: &str| {
        map.get(k).copied().unwrap_or(0)
    };
    for label in RPC_LABELS {
        out.push(m(
            format!("rpc.calls_per_op.{label}"),
            "calls",
            per_op(get(&c.net.by_label, label)),
        ));
        out.push(m(
            format!("rpc.bytes_per_op.{label}"),
            "B",
            per_op(get(&c.net.bytes_by_label, label)),
        ));
    }
    for label in SERVER_LABELS {
        let (n, ns) = l.server.get(label).copied().unwrap_or_default();
        out.push(m(
            format!("server.dispatch_us.{label}"),
            "us",
            ratio(ns as f64 / 1e3, n as f64),
        ));
    }
    out.push(m(
        "server.self_us_per_op",
        "us",
        us_per_op(l.server_self_ns),
    ));
    out.push(m(
        "server.revoke_wait_us_per_op",
        "us",
        us_per_op(l.revoke_wait_ns),
    ));
    let tk = &c.token;
    out.push(m("token.grants_per_op", "count", per_op(tk.grants)));
    out.push(m(
        "token.conflict_grants_per_op",
        "count",
        per_op(tk.grants - tk.quiet_grants),
    ));
    out.push(m(
        "token.revocations_per_op",
        "count",
        per_op(tk.revocations),
    ));
    for name in EPISODE_OPS {
        let (n, ns) = l.episode.get(name).copied().unwrap_or_default();
        out.push(m(
            format!("episode.calls_per_op.{name}"),
            "calls",
            per_op(n),
        ));
        out.push(m(format!("episode.us_per_op.{name}"), "us", us_per_op(ns)));
    }
    let j = &c.journal;
    out.push(m(
        "journal.txns_per_sync",
        "count",
        ratio(j.txns_committed as f64, j.syncs as f64),
    ));
    out.push(m("journal.syncs_per_op", "count", per_op(j.syncs)));
    out.push(m(
        "journal.log_bytes_per_user_byte",
        "ratio",
        ratio((j.log_bytes + j.pad_bytes) as f64, t.user_bytes as f64),
    ));
    out.push(m(
        "journal.cache_hit_ratio",
        "ratio",
        ratio(j.cache_hits as f64, (j.cache_hits + j.cache_misses) as f64),
    ));
    let d = &c.disk;
    out.push(m("disk.reads_per_op", "count", per_op(d.reads)));
    out.push(m(
        "disk.stable_writes_per_op",
        "count",
        per_op(d.stable_writes),
    ));
    out.push(m("disk.syncs_per_op", "count", per_op(d.syncs)));
    out.push(m(
        "disk.seq_ratio",
        "ratio",
        ratio(
            d.sequential_ops as f64,
            (d.sequential_ops + d.random_ops) as f64,
        ),
    ));
    out.push(m("disk.busy_us_per_op", "us", per_op(d.busy_us)));
    for (i, class) in CLASS_NAMES.iter().enumerate() {
        let (_, p50, p99, mean) = vlat_summary(&t.vlat[i]);
        out.push(m(format!("vlat.{class}_p50_us"), "us", p50 as f64));
        out.push(m(format!("vlat.{class}_p99_us"), "us", p99 as f64));
        out.push(m(format!("vlat.{class}_mean_us"), "us", mean));
    }
    let cpu = plain_cpu_us_per_op(reps);
    out.push(m("process.cpu_us_per_op", "us", cpu));
    out.push(m(
        "trace.overhead_cpu_us_per_op",
        "us",
        cpu_us_per_op(t) - cpu,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::result_line;
    use crate::trace::Span;
    use crate::Counters;
    use std::time::Duration;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The metric names a section of BENCHMARK.json declares.
    fn declared(section: &str) -> Vec<String> {
        let start = BENCHMARK
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn rep(mode: Mode) -> Rep {
        let mut counters = Counters::default();
        counters.net.calls = 30;
        counters.net.bytes = 4_000;
        counters.net.by_label.insert("GetToken", 30);
        counters.disk.busy_us = 8_000;
        counters.disk.stable_writes = 2;
        Rep {
            mode,
            setup_cpu_ns: 40_000_000,
            timed_cpu_ns: 1_000_000,
            timed_wall: Duration::from_millis(2),
            ops: 100,
            failed_ops: 0,
            checks: 10,
            bad_checks: 0,
            lost_acked: 0,
            digest: 1,
            counters,
            user_bytes: 4096,
            vlat: [vec![0; 1000], vec![200; 1000], Vec::new()],
            spans: vec![Span {
                layer: Layer::Client,
                name: "read",
                op: 0,
                iv: Interval {
                    start: 0,
                    end: 1_000,
                },
            }],
        }
    }

    #[test]
    fn end_to_end_names_match_the_declaration() {
        let reps = [rep(Mode::Sampled), rep(Mode::Plain), rep(Mode::Plain)];
        let metrics = end_to_end(&reps, 330, 0);
        assert!(enough_samples(&reps[0]));
        let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared("end_to_end"));
        assert!(
            metrics.iter().all(|m| m.value != 0.0),
            "end-to-end metrics are never 0"
        );
        let line = result_line(true, 330, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 330, \"failed\": 0, \"metrics\": {"));
    }

    #[test]
    fn per_layer_names_match_the_declaration() {
        let reps = [rep(Mode::Traced), rep(Mode::Plain), rep(Mode::Plain)];
        let names: Vec<String> = per_layer(&reps).into_iter().map(|m| m.name).collect();
        assert_eq!(names, declared("per_layer"));
    }

    #[test]
    fn a_class_with_too_few_samples_fails_the_run() {
        let mut r = rep(Mode::Sampled);
        r.vlat[2] = vec![1; 999];
        assert!(!enough_samples(&r));
    }
}
