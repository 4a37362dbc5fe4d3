//! The three workloads: their op streams (a pure function of the seed),
//! the model of what every page must hold, and the execution and
//! verification of each op. See `README.md` for why each was chosen.

use crate::rig::Rig;
use crate::trace::{Layer, Recorder};
use dfs_client::{CacheManager, PAGE_SIZE};
use dfs_types::{DfsError, DfsResult, Fid};

const PS: u64 = PAGE_SIZE as u64;

/// Bytes the fsync-churn temp-file cycle writes.
const TEMP_BYTES: usize = 512;

/// Op classes whose virtual latency is reported separately; a class
/// indexes [`CLASS_NAMES`] and per-class arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Read,
    Write,
    Meta,
}

pub const CLASS_NAMES: [&str; 3] = ["read", "write", "meta"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Read `pages` pages from `page`.
    Read,
    Getattr,
    /// Write page `page`.
    Write,
    Fsync,
    /// Write `pages` pages from `page`, then fsync.
    Overwrite,
    /// Create temp file number `file`, write 512 B, fsync, remove it.
    TempCycle,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub client: usize,
    pub kind: Kind,
    pub file: u32,
    pub page: u32,
    pub pages: u32,
}

impl Op {
    pub fn class(&self) -> Class {
        match self.kind {
            Kind::Read => Class::Read,
            Kind::Write | Kind::Fsync | Kind::Overwrite => Class::Write,
            Kind::Getattr | Kind::TempCycle => Class::Meta,
        }
    }

    fn words(&self) -> [u64; 5] {
        [
            self.client as u64,
            self.kind as u64,
            self.file.into(),
            self.page.into(),
            self.pages.into(),
        ]
    }
}

/// A workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    pub files: u32,
    pub pages: u32,
    /// Untimed ops run after the prefill, before timing starts.
    pub warm_ops: usize,
    pub timed_ops: usize,
    /// Reads must return the last fsynced generation, not merely the
    /// latest write.
    pub reads_expect_acked: bool,
}

pub const HOT_SHARED: Spec = Spec {
    name: "hot-shared",
    clients: 2,
    files: 64,
    pages: 4,
    warm_ops: 4_000,
    timed_ops: 40_000,
    reads_expect_acked: false,
};

/// Steps between the writer rewriting a file and the reader scanning it.
const STREAM_LAG: u32 = 64;
/// Ops per stream-cold step: 32 page writes, fsync, getattr, two reads.
const STREAM_STEP_OPS: usize = 36;

pub const STREAM_COLD: Spec = Spec {
    name: "stream-cold",
    clients: 2,
    files: 128,
    pages: 32,
    warm_ops: 16 * STREAM_STEP_OPS,
    timed_ops: 1_000 * STREAM_STEP_OPS,
    reads_expect_acked: true,
};

/// Temp-file names the fsync-churn create/remove cycle rotates through.
const TEMP_NAMES: u32 = 64;

pub const FSYNC_CHURN: Spec = Spec {
    name: "fsync-churn",
    clients: 1,
    files: 16,
    pages: 16,
    warm_ops: 2 * TEMP_NAMES as usize,
    timed_ops: 2_400,
    reads_expect_acked: false,
};

pub fn spec(name: &str) -> Option<Spec> {
    [HOT_SHARED, STREAM_COLD, FSYNC_CHURN]
        .into_iter()
        .find(|s| s.name == name)
}

/// SplitMix64: a small, fully specified generator, so an op stream is
/// the same on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next() >> 32) * u64::from(n)) >> 32) as u32
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

/// Draws every card once per round, in a fresh shuffled order each
/// round. Workloads draw op kinds and targets from decks, so every seed
/// issues exactly the same mix and touches every target equally often;
/// the seed only orders them. That keeps seed-to-seed variation of the
/// counters small without making the order predictable.
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            shuffle(&mut self.cards, rng);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// The order the stream-cold writer visits files in (the prefill writes
/// them in the same order, so the lag holds from the first step).
fn stream_order(spec: &Spec, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..spec.files).collect();
    shuffle(&mut order, &mut Rng::new(seed));
    order
}

/// One hot-shared client's decks: op kinds in blocks of ten (seven
/// page reads, two getattrs, one write), and read, getattr and write
/// targets each in rounds over all pages or files.
struct HotClient {
    kinds: Deck<Kind>,
    pages: Deck<(u32, u32)>,
    files: Deck<u32>,
    writes: Deck<u32>,
}

impl HotClient {
    fn new(spec: &Spec) -> HotClient {
        let mut kinds = vec![Kind::Read; 7];
        kinds.extend([Kind::Getattr, Kind::Getattr, Kind::Write]);
        let pages = (0..spec.files)
            .flat_map(|f| (0..spec.pages).map(move |p| (f, p)))
            .collect();
        HotClient {
            kinds: Deck::new(kinds),
            pages: Deck::new(pages),
            files: Deck::new((0..spec.files).collect()),
            writes: Deck::new((0..spec.files).collect()),
        }
    }
}

/// The warm-up and timed ops of one run, in issue order.
pub fn ops(spec: &Spec, seed: u64) -> Vec<Op> {
    let n = spec.warm_ops + spec.timed_ops;
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    let op = |client, kind, file, page, pages| Op {
        client,
        kind,
        file,
        page,
        pages,
    };
    match spec.name {
        "hot-shared" => {
            let mut clients = [HotClient::new(spec), HotClient::new(spec)];
            for i in 0..n {
                let c = i % 2;
                let d = &mut clients[c];
                out.push(match d.kinds.draw(&mut rng) {
                    Kind::Read => {
                        let (f, p) = d.pages.draw(&mut rng);
                        op(c, Kind::Read, f, p, 1)
                    }
                    Kind::Getattr => op(c, Kind::Getattr, d.files.draw(&mut rng), 0, 0),
                    // Each client writes only its own page of a file.
                    _ => op(c, Kind::Write, d.writes.draw(&mut rng), c as u32, 1),
                });
            }
        }
        "stream-cold" => {
            let order = stream_order(spec, seed);
            let half = spec.pages / 2;
            for s in 0..n / STREAM_STEP_OPS {
                let w = order[s % order.len()];
                let r = order[(s + (spec.files - STREAM_LAG) as usize) % order.len()];
                out.extend((0..spec.pages).map(|p| op(0, Kind::Write, w, p, 1)));
                out.push(op(0, Kind::Fsync, w, 0, 0));
                out.push(op(1, Kind::Getattr, r, 0, 0));
                out.push(op(1, Kind::Read, r, 0, half));
                out.push(op(1, Kind::Read, r, half, spec.pages - half));
            }
        }
        "fsync-churn" => {
            let mut files = Deck::new((0..spec.files).collect());
            let mut sizes = Deck::new(vec![1, 2, 3, 4]);
            for i in 0..n {
                out.push(if i % 2 == 0 {
                    let pages = sizes.draw(&mut rng);
                    let f = files.draw(&mut rng);
                    op(
                        0,
                        Kind::Overwrite,
                        f,
                        rng.below(spec.pages - pages + 1),
                        pages,
                    )
                } else {
                    op(0, Kind::TempCycle, (i as u32 / 2) % TEMP_NAMES, 0, 0)
                });
            }
        }
        other => unreachable!("no workload named {other}"),
    }
    out
}

/// Fills `buf` with the content of page `page` of file `file` at
/// generation `gen`: a header naming all three, then a fill byte that
/// is never zero, so a zero-filled page can never pass.
fn fill(buf: &mut [u8], file: u32, page: u32, gen: u32) {
    buf[..4].copy_from_slice(b"DFSB");
    buf[4..8].copy_from_slice(&file.to_le_bytes());
    buf[8..12].copy_from_slice(&page.to_le_bytes());
    buf[12..16].copy_from_slice(&gen.to_le_bytes());
    let b = fill_byte(file, page, gen);
    buf[16..].fill(b);
}

fn fill_byte(file: u32, page: u32, gen: u32) -> u8 {
    (gen.wrapping_mul(7) ^ file.wrapping_mul(13) ^ page.wrapping_mul(3)) as u8 | 1
}

fn page_ok(data: &[u8], file: u32, page: u32, gen: u32) -> bool {
    data.len() == PAGE_SIZE
        && &data[..4] == b"DFSB"
        && data[4..8] == file.to_le_bytes()
        && data[8..12] == page.to_le_bytes()
        && data[12..16] == gen.to_le_bytes()
        && data[16..].iter().all(|&b| b == fill_byte(file, page, gen))
}

fn temp_name(k: u32) -> String {
    format!("tmp{k}")
}

/// What every page must hold, and the run's byte accounting.
pub struct Model {
    spec: Spec,
    fids: Vec<Fid>,
    /// Latest written generation per page (file-major).
    gen: Vec<u32>,
    /// Last fsync-acknowledged generation per page.
    acked: Vec<u32>,
    next_gen: u32,
    /// User bytes written by the ops run so far.
    pub user_bytes: u64,
    buf: Vec<u8>,
}

impl Model {
    /// Creates the workload's files with client 0 and writes and fsyncs
    /// every page at generation 1, in the stream-cold visiting order.
    pub fn prefill(rig: &Rig, spec: &Spec, seed: u64) -> DfsResult<Model> {
        let slots = (spec.files * spec.pages) as usize;
        let mut m = Model {
            spec: *spec,
            fids: vec![Fid::default(); spec.files as usize],
            gen: vec![1; slots],
            acked: vec![1; slots],
            next_gen: 2,
            user_bytes: 0,
            buf: vec![0; PAGE_SIZE],
        };
        let c = &rig.clients[0];
        for f in stream_order(spec, seed) {
            let fid = c.create(rig.root, &format!("f{f}"), 0o644)?.fid;
            m.fids[f as usize] = fid;
            for p in 0..spec.pages {
                fill(&mut m.buf, f, p, 1);
                c.write(fid, u64::from(p) * PS, &m.buf)?;
            }
            c.fsync(fid)?;
        }
        Ok(m)
    }

    fn slot(&self, file: u32, page: u32) -> usize {
        (file * self.spec.pages + page) as usize
    }

    /// Runs one op and verifies its result. `Ok(false)` is a wrong
    /// result; `Err` is an op the system refused.
    pub fn run(&mut self, rig: &Rig, op: &Op, rec: Option<&Recorder>) -> DfsResult<bool> {
        let c = &rig.clients[op.client];
        // Temp-cycle ops number temp names, not files.
        let fid = self.fids.get(op.file as usize).copied().unwrap_or_default();
        match op.kind {
            Kind::Read => {
                let len = (op.pages as usize) * PAGE_SIZE;
                let data = span(rec, "read", || c.read(fid, u64::from(op.page) * PS, len))?;
                let want = if self.spec.reads_expect_acked {
                    &self.acked
                } else {
                    &self.gen
                };
                Ok(data.len() == len
                    && data
                        .chunks(PAGE_SIZE)
                        .zip(op.page..)
                        .all(|(d, p)| page_ok(d, op.file, p, want[self.slot(op.file, p)])))
            }
            Kind::Getattr => {
                let st = span(rec, "getattr", || c.getattr(fid))?;
                Ok(st.fid == fid && st.length == u64::from(self.spec.pages) * PS)
            }
            Kind::Write => {
                self.write_page(c, fid, op.file, op.page, rec)?;
                Ok(true)
            }
            Kind::Fsync => {
                span(rec, "fsync", || c.fsync(fid))?;
                self.ack(op.file);
                Ok(true)
            }
            Kind::Overwrite => {
                for p in op.page..op.page + op.pages {
                    self.write_page(c, fid, op.file, p, rec)?;
                }
                span(rec, "fsync", || c.fsync(fid))?;
                self.ack(op.file);
                Ok(true)
            }
            Kind::TempCycle => {
                let name = temp_name(op.file);
                let st = span(rec, "create", || c.create(rig.root, &name, 0o644))?;
                let data = [op.file as u8 | 0x80; TEMP_BYTES];
                let wrote = span(rec, "write", || c.write(st.fid, 0, &data))?;
                span(rec, "fsync", || c.fsync(st.fid))?;
                span(rec, "remove", || c.remove(rig.root, &name))?;
                self.user_bytes += TEMP_BYTES as u64;
                Ok(wrote.length == TEMP_BYTES as u64)
            }
        }
    }

    fn write_page(
        &mut self,
        c: &CacheManager,
        fid: Fid,
        file: u32,
        page: u32,
        rec: Option<&Recorder>,
    ) -> DfsResult<()> {
        let gen = self.next_gen;
        self.next_gen += 1;
        fill(&mut self.buf, file, page, gen);
        let buf = &self.buf;
        span(rec, "write", || c.write(fid, u64::from(page) * PS, buf))?;
        let s = self.slot(file, page);
        self.gen[s] = gen;
        self.user_bytes += PS;
        Ok(())
    }

    fn ack(&mut self, file: u32) {
        let s = self.slot(file, 0);
        let n = self.spec.pages as usize;
        let (gen, acked) = (&self.gen[s..s + n], &mut self.acked[s..s + n]);
        acked.copy_from_slice(gen);
    }

    /// Reads every page back through `c` and counts the pages that do
    /// not hold the latest write (`acked == false`) or the last
    /// fsync-acknowledged write (`acked == true`). Without `acked` it
    /// also counts temp files that survived their removal; a removal is
    /// never fsynced, so a crash may undo it.
    pub fn check(&self, rig: &Rig, c: &CacheManager, acked: bool) -> u64 {
        let want = if acked { &self.acked } else { &self.gen };
        let mut bad = 0;
        for f in 0..self.spec.files {
            let len = self.spec.pages as usize * PAGE_SIZE;
            match c.read(self.fids[f as usize], 0, len) {
                Ok(data) if data.len() == len => {
                    for (p, d) in (0..).zip(data.chunks(PAGE_SIZE)) {
                        if !page_ok(d, f, p, want[self.slot(f, p)]) {
                            bad += 1;
                        }
                    }
                }
                _ => bad += u64::from(self.spec.pages),
            }
        }
        if self.has_temps(acked) {
            for k in 0..TEMP_NAMES {
                if c.lookup(rig.root, &temp_name(k)) != Err(DfsError::NotFound) {
                    bad += 1;
                }
            }
        }
        bad
    }

    fn has_temps(&self, acked: bool) -> bool {
        !acked && self.spec.name == FSYNC_CHURN.name
    }

    /// Checks [`Model::check`] makes: one per page, plus one per temp
    /// name.
    pub fn checks(&self, acked: bool) -> u64 {
        let temps = if self.has_temps(acked) { TEMP_NAMES } else { 0 };
        self.gen.len() as u64 + u64::from(temps)
    }
}

/// Runs a call into the client as one client-layer span.
fn span<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(Layer::Client, name, f),
        None => f(),
    }
}

/// FNV-1a over op descriptors and outcomes: equal digests mean equal
/// op streams with equal verdicts.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, op: &Op, ok: bool) {
        for w in op.words().into_iter().chain([u64::from(ok)]) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_are_a_function_of_the_seed() {
        for spec in [HOT_SHARED, STREAM_COLD, FSYNC_CHURN] {
            assert_eq!(ops(&spec, 7), ops(&spec, 7), "{}", spec.name);
            assert_ne!(ops(&spec, 7), ops(&spec, 8), "{}", spec.name);
            assert_eq!(
                ops(&spec, 7).len(),
                spec.warm_ops + spec.timed_ops,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn every_class_has_enough_timed_samples_for_p99() {
        for spec in [HOT_SHARED, STREAM_COLD, FSYNC_CHURN] {
            let all = ops(&spec, 1);
            for (i, name) in CLASS_NAMES.iter().enumerate() {
                let n = all[spec.warm_ops..]
                    .iter()
                    .filter(|o| o.class() as usize == i)
                    .count();
                if n > 0 {
                    assert!(crate::stats::supports(n, 99.0), "{} {name}: {n}", spec.name);
                }
            }
        }
    }

    #[test]
    fn stream_reader_scans_the_file_written_lag_steps_earlier() {
        let all = ops(&STREAM_COLD, 3);
        let steps: Vec<&[Op]> = all.chunks(STREAM_STEP_OPS).collect();
        for s in STREAM_LAG as usize..steps.len() {
            assert_eq!(steps[s][33].kind, Kind::Getattr);
            assert_eq!(steps[s][33].file, steps[s - STREAM_LAG as usize][0].file);
        }
    }

    #[test]
    fn pages_verify_only_against_their_own_generation() {
        let mut buf = vec![0; PAGE_SIZE];
        fill(&mut buf, 3, 2, 9);
        assert!(page_ok(&buf, 3, 2, 9));
        assert!(!page_ok(&buf, 3, 2, 8));
        assert!(!page_ok(&buf, 3, 1, 9));
        assert!(!page_ok(&vec![0; PAGE_SIZE], 3, 2, 9));
    }
}
