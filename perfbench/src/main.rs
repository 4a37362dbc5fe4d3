//! Deterministic one-op-at-a-time benchmark of the DEcorum reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One thread issues every op of a seeded op stream against a
//! one-server cell, verifies every result, and repeats the whole run
//! (fresh cell, same seed) until `--seconds` have passed. End-to-end
//! metrics (`--trace 0`) or per-layer metrics (`--trace 1`) go to the
//! last line of stdout as one JSON object. See `README.md`.

mod cpu;
mod metrics;
mod rig;
mod stats;
mod trace;
mod workload;

use dfs_client::ClientStats;
use dfs_disk::DiskStats;
use dfs_journal::JournalStats;
use dfs_rpc::NetStats;
use dfs_token::TokenStats;
use dfs_types::DfsResult;
use rig::Rig;
use stats::VirtualMeter;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Recorder, Span};
use workload::{Digest, Model, Spec};

struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::spec(&val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val:?}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Nothing but the ops: the run CPU per op is taken from.
    Plain,
    /// Reads the network and disk counters around every op for
    /// virtual latency.
    Sampled,
    /// `Sampled`, plus spans at every layer boundary.
    Traced,
}

/// Counter deltas over a run's timed phase.
#[derive(Default)]
pub struct Counters {
    pub net: NetStats,
    pub disk: DiskStats,
    pub journal: JournalStats,
    pub token: TokenStats,
    pub client: ClientStats,
}

fn snapshot(rig: &Rig) -> Counters {
    let mut client = ClientStats::default();
    for c in &rig.clients {
        client.merge(&c.stats());
    }
    Counters {
        net: rig.net.stats(),
        disk: rig.disk.stats(),
        journal: rig.ep.journal().stats(),
        token: rig.srv.token_manager().stats(),
        client,
    }
}

fn delta(before: &Counters, after: &Counters) -> Counters {
    let (a, b) = (&after.token, &before.token);
    Counters {
        net: after.net.since(&before.net),
        disk: after.disk.since(&before.disk),
        journal: after.journal.since(&before.journal),
        token: TokenStats {
            grants: a.grants - b.grants,
            quiet_grants: a.quiet_grants - b.quiet_grants,
            revocations: a.revocations - b.revocations,
            retained: a.retained - b.retained,
            refused: a.refused - b.refused,
            releases: a.releases - b.releases,
            reestablished: a.reestablished - b.reestablished,
            imported: a.imported - b.imported,
        },
        client: after.client.since(&before.client),
    }
}

/// One run of a workload in a fresh cell.
pub struct Rep {
    pub mode: Mode,
    pub setup_cpu_ns: u64,
    pub timed_cpu_ns: u64,
    pub timed_wall: Duration,
    pub ops: u64,
    pub failed_ops: u64,
    /// Post-run read-back checks and how many failed.
    pub checks: u64,
    pub bad_checks: u64,
    /// Fsync-acknowledged pages lost across the crash (fsync-churn).
    pub lost_acked: u64,
    pub digest: u64,
    pub counters: Counters,
    pub user_bytes: u64,
    /// Virtual latency samples per class (`Sampled` and `Traced`).
    pub vlat: [Vec<u64>; 3],
    pub spans: Vec<Span>,
}

fn run_rep(spec: &Spec, seed: u64, mode: Mode) -> DfsResult<Rep> {
    let ops = workload::ops(spec, seed);
    let (warm, timed) = ops.split_at(spec.warm_ops);
    let rec = (mode == Mode::Traced).then(Recorder::new);

    let cpu0 = cpu::process_ns();
    let mut rig = Rig::build(spec.clients, rec.clone())?;
    let mut model = Model::prefill(&rig, spec, seed)?;
    for op in warm {
        if !model.run(&rig, op, None)? {
            return Err(dfs_types::DfsError::Internal(
                "warm-up op returned wrong data",
            ));
        }
    }
    let setup_cpu_ns = cpu::process_ns() - cpu0;

    let user0 = model.user_bytes;
    let before = snapshot(&rig);
    let mut meter = VirtualMeter::at(before.net.latency_us, before.disk.busy_us);
    let mut vlat: [Vec<u64>; 3] = Default::default();
    let mut digest = Digest::default();
    let mut failed_ops = 0;
    let wall0 = Instant::now();
    let cpu1 = cpu::process_ns();
    for (i, op) in timed.iter().enumerate() {
        if let Some(r) = &rec {
            r.set_op(i as u32);
        }
        let result = model.run(&rig, op, rec.as_deref());
        let ok = matches!(result, Ok(true));
        if !ok && failed_ops < 5 {
            eprintln!("perfbench: op {i} {op:?} failed: {result:?}");
        }
        if mode != Mode::Plain {
            let v = meter.take(rig.net.stats().latency_us, rig.disk.stats().busy_us);
            vlat[op.class() as usize].push(v);
        }
        failed_ops += u64::from(!ok);
        digest.add(op, ok);
    }
    let timed_cpu_ns = cpu::process_ns() - cpu1;
    let timed_wall = wall0.elapsed();
    let spans = rec.as_ref().map(|r| {
        r.idle();
        r.take()
    });
    let counters = delta(&before, &snapshot(&rig));
    let user_bytes = model.user_bytes - user0;

    // A fresh client must see every write, and on fsync-churn a crash
    // must lose no fsync-acknowledged page.
    let fresh = rig.new_client();
    let mut checks = model.checks(false);
    let mut bad_checks = model.check(&rig, &fresh, false);
    let mut lost_acked = 0;
    if spec.name == workload::FSYNC_CHURN.name {
        rig.crash_and_restart()?;
        let after_crash = rig.new_client();
        lost_acked = model.check(&rig, &after_crash, true);
        checks += model.checks(true);
        bad_checks += lost_acked;
    }
    rig.teardown();

    Ok(Rep {
        mode,
        setup_cpu_ns,
        timed_cpu_ns,
        timed_wall,
        ops: timed.len() as u64,
        failed_ops,
        checks,
        bad_checks,
        lost_acked,
        digest: digest.value(),
        counters,
        user_bytes,
        vlat,
        spans: spans.unwrap_or_default(),
    })
}

/// Fewest runs: the sampled or traced one plus two plain ones, so CPU
/// per op and set-up time are medians.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 256;

fn by_label(net: &NetStats) -> BTreeMap<&'static str, u64> {
    net.by_label.iter().map(|(k, v)| (*k, *v)).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <hot-shared|stream-cold|fsync-churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let spec = args.workload;
    // One core for every thread: with one op in flight at most one
    // thread is runnable at a time, and a handoff then costs a
    // same-core switch on every run instead of a cross-core wake-up
    // whose cost depends on what else that core is doing.
    match cpu::pin_to_one_cpu() {
        Some(c) => println!("pinned to cpu {c}"),
        None => println!("could not pin to one cpu; CPU per op will be noisier"),
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let mode = match (reps.is_empty(), args.trace) {
            (true, true) => Mode::Traced,
            (true, false) => Mode::Sampled,
            (false, _) => Mode::Plain,
        };
        let t = Instant::now();
        let rep = match run_rep(&spec, args.seed, mode) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {} run failed: {e}", spec.name);
                std::process::exit(1);
            }
        };
        longest = longest.max(t.elapsed());
        println!(
            "run {} {:?}: digest {:016x} ops {} failed {} checks {}/{} lost_acked {} rpcs {} bytes {} disk_busy_us {} setup_cpu_ms {:.3} cpu_us_per_op {:.3} wall_ops_per_s {:.0}",
            reps.len(),
            rep.mode,
            rep.digest,
            rep.ops,
            rep.failed_ops,
            rep.checks - rep.bad_checks,
            rep.checks,
            rep.lost_acked,
            rep.counters.net.calls,
            rep.counters.net.bytes,
            rep.counters.disk.busy_us,
            rep.setup_cpu_ns as f64 / 1e6,
            rep.timed_cpu_ns as f64 / 1e3 / rep.ops as f64,
            rep.ops as f64 / rep.timed_wall.as_secs_f64(),
        );
        for (i, class) in workload::CLASS_NAMES.iter().enumerate() {
            let (n, p50, p99, mean) = metrics::vlat_summary(&rep.vlat[i]);
            if n > 0 {
                println!(
                    "  {class} virtual latency: n {n} p50 {p50} us p99 {p99} us mean {mean:.1} us"
                );
            }
        }
        reps.push(rep);
        let elapsed = start.elapsed();
        if reps.len() >= MAX_REPS || (reps.len() >= MIN_REPS && elapsed + longest > budget) {
            break;
        }
    }

    // Determinism guard: every run of one seed issues the same ops with
    // the same verdicts and the same RPCs, label by label.
    let first = &reps[0];
    println!("rpcs by label: {:?}", by_label(&first.counters.net));
    let mut deterministic = true;
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest || by_label(&r.counters.net) != by_label(&first.counters.net) {
            eprintln!(
                "perfbench: run {i} ({:?}) differs from run 0 ({:?}): digest {:016x} vs {:016x}, rpcs {:?} vs {:?}",
                r.mode,
                first.mode,
                r.digest,
                first.digest,
                by_label(&r.counters.net),
                by_label(&first.counters.net)
            );
            deterministic = false;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.ops + r.checks).sum();
    let failed: u64 = reps.iter().map(|r| r.failed_ops + r.bad_checks).sum();
    let lost: u64 = reps.iter().map(|r| r.lost_acked).sum();
    println!(
        "cpu_us_per_op (median of plain runs, not gated): {}",
        metrics::plain_cpu_us_per_op(&reps)
    );
    let unreported = metrics::unreported(first);
    if !unreported.is_empty() {
        println!("not reported per layer: {unreported:?}");
    }
    let enough_samples = metrics::enough_samples(first);
    let metrics = if args.trace {
        metrics::per_layer(&reps)
    } else {
        metrics::end_to_end(&reps, attempted, failed)
    };
    if lost > 0 {
        eprintln!("perfbench: {lost} fsync-acknowledged pages lost across the crash");
    }
    if !enough_samples {
        eprintln!("perfbench: an op class has too few samples for its p99");
    }
    let correct = failed == 0 && lost == 0 && deterministic && enough_samples;
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
}
