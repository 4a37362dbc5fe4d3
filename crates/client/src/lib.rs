//! The DEcorum client cache manager (§4, §6).
//!
//! A [`CacheManager`] implements the four layers of Figure 2:
//!
//! * **resource layer** (§4.1): authenticated connections (tickets from
//!   the KDC) and a volume-location cache over the VLDB, with
//!   re-lookup on `NoSuchVolume` so volume moves are transparent;
//! * **cache layer** (§4.2): status and data caching guarded by typed
//!   tokens; the data store is pluggable ([`DiskCache`] or the diskless
//!   [`MemCache`]);
//! * **directory layer** (§4.3): cached results of individual lookups,
//!   valid while the directory's status/data tokens are held;
//! * **vnode layer** (§4.4): the file-system API.
//!
//! Deadlock avoidance follows §6 exactly: each cached vnode carries
//! **two locks** — a high-level lock held for the duration of a client
//! operation, and a low-level lock that is *released across RPCs* and
//! re-taken to merge results. Revocations from the server take only the
//! low-level lock. Server responses and revocations are merged in
//! serialization-stamp order (§6.2–6.4): newer status always wins and
//! old status is never written over new. Revocations for tokens not yet
//! known (the race of §6.3) are queued and processed when the in-flight
//! RPC completes.

pub mod cache;

pub use cache::{DataCache, DiskCache, MemCache, PAGE_SIZE};

use dfs_rpc::{
    Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService, Ticket,
    TokenRequest,
};
use dfs_server::VldbHandle;
use dfs_token::{Token, TokenTypes};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex};
use dfs_types::{
    Acl, ByteRange, ClientId, DfsError, DfsResult, FileStatus, Fid, SerializationStamp, ServerId,
    VolumeId,
};
use dfs_vfs::{DirEntry, SetAttrs, WriteExtent};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Pages fetched per miss (read-ahead granularity).
const FETCH_PAGES: u64 = 16;

/// Pages coalesced into one store-back extent (64 KB of 4 KB pages).
pub const STORE_EXTENT_PAGES: usize = 16;

/// Most volumes tracked by the location cache. A cell has few volumes a
/// client actually touches; bounding the cache keeps a scanner of many
/// volumes from growing client state without limit.
const LOCATION_CACHE_CAP: usize = 256;

thread_local! {
    /// Set while this thread runs the crash-recovery pipeline so epoch
    /// observations made by recovery's own RPCs do not recurse into it.
    static IN_RECOVERY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Tuning for the write-behind pipeline (coalesced store-backs and the
/// background flusher).
#[derive(Clone, Debug)]
pub struct WritebackConfig {
    /// Most contiguous dirty pages coalesced into one extent.
    pub extent_pages: usize,
    /// Most extents shipped per store-back RPC (via `StoreDataVec`).
    pub max_extents_per_rpc: usize,
    /// Ship multi-extent `StoreDataVec` RPCs; when false every extent
    /// goes out as its own `StoreData`.
    pub use_vec_rpc: bool,
    /// Run the background flusher ("background store" daemon).
    pub flusher: bool,
    /// Flusher pass interval when idle.
    pub flush_interval: Duration,
    /// Dirty pages (client-wide) above which the flusher is kicked;
    /// above twice this budget the writing thread flushes synchronously
    /// (backpressure).
    pub dirty_budget_pages: usize,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig {
            extent_pages: STORE_EXTENT_PAGES,
            max_extents_per_rpc: 8,
            use_vec_rpc: true,
            flusher: true,
            flush_interval: Duration::from_millis(2),
            dirty_budget_pages: 256,
        }
    }
}

impl WritebackConfig {
    /// The pre-pipeline behaviour: one 4 KB `StoreData` per dirty page,
    /// no background flusher, no backpressure. Benchmarks use this as
    /// the before-side of before/after comparisons.
    pub fn legacy() -> Self {
        WritebackConfig {
            extent_pages: 1,
            max_extents_per_rpc: 1,
            use_vec_rpc: false,
            flusher: false,
            flush_interval: Duration::from_millis(2),
            dirty_budget_pages: usize::MAX,
        }
    }
}

/// An open mode, mapped onto the open-token subtypes of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenMode {
    /// Normal reading.
    Read,
    /// Normal writing.
    Write,
    /// Executing (excludes writers — ETXTBSY).
    Execute,
    /// Shared reading (excludes writers).
    SharedRead,
    /// Exclusive writing (excludes everyone).
    ExclusiveWrite,
}

impl OpenMode {
    fn token(self) -> TokenTypes {
        match self {
            OpenMode::Read => TokenTypes::OPEN_READ,
            OpenMode::Write => TokenTypes::OPEN_WRITE,
            OpenMode::Execute => TokenTypes::OPEN_EXECUTE,
            OpenMode::SharedRead => TokenTypes::OPEN_SHARED_READ,
            OpenMode::ExclusiveWrite => TokenTypes::OPEN_EXCLUSIVE_WRITE,
        }
    }
}

/// Client-side statistics.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Reads served entirely from the cache under a data token.
    pub local_reads: u64,
    /// Always 0: every read and `getattr` takes the vnode locks. Kept so
    /// existing readers of the stats struct keep compiling.
    pub lockfree_reads: u64,
    /// Reads that needed a FetchData RPC.
    pub remote_reads: u64,
    /// Writes absorbed locally under a write token (no RPC at all).
    pub local_writes: u64,
    /// Writes that needed a token-acquisition RPC first.
    pub write_token_fetches: u64,
    /// Lookups served from the directory-layer cache.
    pub lookup_hits: u64,
    /// Lookups that went to the server.
    pub lookup_misses: u64,
    /// Revocations received.
    pub revocations: u64,
    /// Revocations answered "retained" (held locks/opens).
    pub retained: u64,
    /// Revocations queued for a not-yet-known token (§6.3 race).
    pub queued_revocations: u64,
    /// Dirty pages stored back from revocation handlers.
    pub revocation_stores: u64,
    /// Status merges ignored because the stamp was stale (§6.3).
    pub stale_status_dropped: u64,
    /// Retries while a volume was busy moving.
    pub busy_retries: u64,
    /// Token-contention backoff rounds slept in `read`/`write`.
    pub backoff_rounds: u64,
    /// Store-back RPCs sent (StoreData + StoreDataVec, normal class).
    pub storeback_rpcs: u64,
    /// Extents carried by those RPCs.
    pub storeback_extents: u64,
    /// Pages carried by those RPCs.
    pub storeback_pages: u64,
    /// Background-flusher passes that found dirty data.
    pub flusher_passes: u64,
    /// Writes that flushed synchronously because the dirty-page budget
    /// was exceeded twice over (backpressure).
    pub backpressure_flushes: u64,
    /// Transport-level retries: the server was crashed, unreachable or
    /// timed out and the RPC was re-sent after a backoff.
    pub transport_retries: u64,
    /// RPCs refused with `GraceWait` (server in its post-restart grace
    /// window) and retried.
    pub grace_waits: u64,
    /// Recovery passes run after observing a server epoch change.
    pub recoveries: u64,
    /// Tokens re-granted through `ReestablishTokens` during recovery.
    pub tokens_reestablished: u64,
    /// Files revalidated after a restart whose cached pages were kept
    /// (`DataVersion` unchanged, AFS-style).
    pub reval_kept: u64,
    /// Files revalidated after a restart whose cached pages were
    /// discarded (`DataVersion` changed or revalidation failed).
    pub reval_dropped: u64,
    /// Dirty write-behind pages replayed by the recovery pipeline.
    pub recovery_replayed_pages: u64,
    /// `WrongServer` redirects followed after a volume moved (§2.1).
    pub wrong_server_redirects: u64,
    /// Location-cache entries evicted to stay within the size bound.
    pub location_evictions: u64,
    /// RPCs abandoned with `Unavailable` after the retry budget
    /// (`DFS_RPC_RETRY_BUDGET`) was exhausted.
    pub unavailable_giveups: u64,
    /// Read-class RPCs answered by a §3.8 read-only replica while the
    /// volume's primary was unreachable.
    pub replica_failovers: u64,
    /// Reads served with bounded-stale replica data (never cached as
    /// token-backed state).
    pub stale_reads: u64,
    /// Largest staleness bound (µs) stamped on any replica-served
    /// response observed by this client.
    pub max_stale_us: u64,
}

impl ClientStats {
    /// Returns `self - earlier` counter-by-counter, for time-series
    /// sampling (the scenario driver snapshots per interval). The one
    /// non-counter, `max_stale_us`, is a high-water mark and carries
    /// the current watermark through unchanged.
    pub fn since(&self, earlier: &ClientStats) -> ClientStats {
        ClientStats {
            local_reads: self.local_reads - earlier.local_reads,
            lockfree_reads: self.lockfree_reads - earlier.lockfree_reads,
            remote_reads: self.remote_reads - earlier.remote_reads,
            local_writes: self.local_writes - earlier.local_writes,
            write_token_fetches: self.write_token_fetches - earlier.write_token_fetches,
            lookup_hits: self.lookup_hits - earlier.lookup_hits,
            lookup_misses: self.lookup_misses - earlier.lookup_misses,
            revocations: self.revocations - earlier.revocations,
            retained: self.retained - earlier.retained,
            queued_revocations: self.queued_revocations - earlier.queued_revocations,
            revocation_stores: self.revocation_stores - earlier.revocation_stores,
            stale_status_dropped: self.stale_status_dropped - earlier.stale_status_dropped,
            busy_retries: self.busy_retries - earlier.busy_retries,
            backoff_rounds: self.backoff_rounds - earlier.backoff_rounds,
            storeback_rpcs: self.storeback_rpcs - earlier.storeback_rpcs,
            storeback_extents: self.storeback_extents - earlier.storeback_extents,
            storeback_pages: self.storeback_pages - earlier.storeback_pages,
            flusher_passes: self.flusher_passes - earlier.flusher_passes,
            backpressure_flushes: self.backpressure_flushes - earlier.backpressure_flushes,
            transport_retries: self.transport_retries - earlier.transport_retries,
            grace_waits: self.grace_waits - earlier.grace_waits,
            recoveries: self.recoveries - earlier.recoveries,
            tokens_reestablished: self.tokens_reestablished - earlier.tokens_reestablished,
            reval_kept: self.reval_kept - earlier.reval_kept,
            reval_dropped: self.reval_dropped - earlier.reval_dropped,
            recovery_replayed_pages: self.recovery_replayed_pages
                - earlier.recovery_replayed_pages,
            wrong_server_redirects: self.wrong_server_redirects - earlier.wrong_server_redirects,
            location_evictions: self.location_evictions - earlier.location_evictions,
            unavailable_giveups: self.unavailable_giveups - earlier.unavailable_giveups,
            replica_failovers: self.replica_failovers - earlier.replica_failovers,
            stale_reads: self.stale_reads - earlier.stale_reads,
            max_stale_us: self.max_stale_us,
        }
    }

    /// Adds `other`'s counters into `self`, for fleet-wide aggregation.
    /// `max_stale_us` folds as a max.
    pub fn merge(&mut self, other: &ClientStats) {
        self.local_reads += other.local_reads;
        self.lockfree_reads += other.lockfree_reads;
        self.remote_reads += other.remote_reads;
        self.local_writes += other.local_writes;
        self.write_token_fetches += other.write_token_fetches;
        self.lookup_hits += other.lookup_hits;
        self.lookup_misses += other.lookup_misses;
        self.revocations += other.revocations;
        self.retained += other.retained;
        self.queued_revocations += other.queued_revocations;
        self.revocation_stores += other.revocation_stores;
        self.stale_status_dropped += other.stale_status_dropped;
        self.busy_retries += other.busy_retries;
        self.backoff_rounds += other.backoff_rounds;
        self.storeback_rpcs += other.storeback_rpcs;
        self.storeback_extents += other.storeback_extents;
        self.storeback_pages += other.storeback_pages;
        self.flusher_passes += other.flusher_passes;
        self.backpressure_flushes += other.backpressure_flushes;
        self.transport_retries += other.transport_retries;
        self.grace_waits += other.grace_waits;
        self.recoveries += other.recoveries;
        self.tokens_reestablished += other.tokens_reestablished;
        self.reval_kept += other.reval_kept;
        self.reval_dropped += other.reval_dropped;
        self.recovery_replayed_pages += other.recovery_replayed_pages;
        self.wrong_server_redirects += other.wrong_server_redirects;
        self.location_evictions += other.location_evictions;
        self.unavailable_giveups += other.unavailable_giveups;
        self.replica_failovers += other.replica_failovers;
        self.stale_reads += other.stale_reads;
        self.max_stale_us = self.max_stale_us.max(other.max_stale_us);
    }
}

/// Bounded volume→(server, generation) location cache (§4.1). Installs
/// are generation-monotone: a stale `WrongServer` hint arriving after a
/// fresh VLDB lookup can never roll an entry back to the old owner.
#[derive(Default)]
struct LocationCache {
    map: HashMap<VolumeId, (ServerId, u64)>,
    /// Insertion order, for cheap eviction at the cap.
    order: VecDeque<VolumeId>,
}

#[derive(Clone, Debug)]
struct HeldLock {
    range: ByteRange,
    write: bool,
    local: bool,
}

/// Low-level (per-vnode) state, guarded by the vnode's low lock.
#[derive(Default)]
struct VnState {
    status: Option<FileStatus>,
    /// Highest serialization stamp merged so far (§6.2).
    stamp: SerializationStamp,
    tokens: Vec<Token>,
    /// Pages present in the data cache and covered by a token.
    valid: BTreeSet<u64>,
    /// Pages modified locally and not yet stored back, each tagged with
    /// the `write_seq` of its last local write. A store-back snapshots
    /// (page, seq) pairs, releases the low lock for the RPC, and on
    /// return cleans a page only if its seq is unchanged — a page
    /// re-dirtied mid-flight stays dirty (no lost update).
    dirty: BTreeMap<u64, u64>,
    /// Monotone counter stamped onto dirty pages, bumped per write.
    write_seq: u64,
    /// Directory layer: name → status of individual lookups (§4.3).
    names: HashMap<String, FileStatus>,
    /// Cached full listing.
    listing: Option<Vec<DirEntry>>,
    /// Revocations that arrived for tokens we do not know yet (§6.3).
    queued: Vec<(Token, TokenTypes, SerializationStamp)>,
    /// Number of client-initiated RPCs in flight for this vnode.
    in_flight: u32,
    /// True when the cached status was updated locally under a
    /// status-write token and not yet pushed back.
    status_dirty: bool,
    /// Local byte-range locks (token-backed or server-backed).
    locks: Vec<HeldLock>,
    /// Open modes currently held.
    opens: Vec<TokenTypes>,
}

impl VnState {
    fn find_token(&self, types: TokenTypes, range: &ByteRange) -> Option<&Token> {
        self.tokens
            .iter()
            .find(|t| t.types.contains(types) && t.range.contains_range(range))
    }

    /// Returns true if the union of held tokens carrying any of `types`
    /// covers every byte of `range`.
    fn covered(&self, types: TokenTypes, range: &ByteRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let mut spans: Vec<ByteRange> = self
            .tokens
            .iter()
            .filter(|t| t.types.intersects(types))
            .map(|t| t.range)
            .collect();
        spans.sort_by_key(|r| r.start);
        let mut pos = range.start;
        for s in spans {
            if s.start > pos {
                break;
            }
            pos = pos.max(s.end.min(range.end));
            if pos >= range.end {
                return true;
            }
        }
        pos >= range.end
    }

    fn has_types(&self, types: TokenTypes) -> bool {
        self.tokens.iter().any(|t| t.types.contains(types))
    }


    fn merge_status(&mut self, status: FileStatus, stamp: SerializationStamp) -> bool {
        if stamp > self.stamp || self.status.is_none() {
            self.stamp = self.stamp.max(stamp);
            self.status = Some(status);
            true
        } else {
            false
        }
    }

    /// True if the cached status may be believed: it is present and a
    /// token carries a status guarantee (read or write).
    fn status_trusted(&self) -> bool {
        self.status.is_some()
            && self.tokens.iter().any(|t| {
                t.types
                    .intersects(TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::STATUS_WRITE.0))
            })
    }

    fn dir_trusted(&self) -> bool {
        self.tokens.iter().any(|t| {
            t.types.contains(TokenTypes::STATUS_READ) && t.types.contains(TokenTypes::DATA_READ)
        })
    }
}

struct CVnode {
    fid: Fid,
    /// High-level lock: serializes client operations on the file (§6.1).
    /// Held across RPCs *by design*: revocation handlers only ever take
    /// `lo`, so a server calling back into us can never need `hi`.
    // dfs-lint: allow(guard-across-rpc)
    hi: OrderedMutex<(), { rank::CLIENT_VNODE_HI }>,
    /// Low-level lock: guards the cached state; released across RPCs.
    lo: OrderedMutex<VnState, { rank::CLIENT_VNODE_LO }>,
}

/// Wake/stop flags for the background flusher, guarded at rank
/// `CLIENT_FLUSHER` so writers may kick it while holding a vnode `lo`.
#[derive(Default)]
struct FlusherCtl {
    stop: bool,
    kicked: bool,
    /// Set by the recovery pipeline to quiesce background store-backs
    /// while tokens are being reestablished.
    paused: bool,
}

/// A coalesced run of dirty pages snapshotted for one store-back
/// extent: contiguous bytes starting at `offset`, plus the (page,
/// write_seq) tags needed to clean only un-re-dirtied pages afterwards.
struct PendingExtent {
    offset: u64,
    data: Vec<u8>,
    pages: Vec<(u64, u64)>,
}

/// The cache manager: the DEcorum client (§4).
pub struct CacheManager {
    id: ClientId,
    addr: Addr,
    net: Network,
    vldb: VldbHandle,
    data: Arc<dyn DataCache>,
    wb: WritebackConfig,
    /// Client-wide dirty-page count, maintained by the `note_dirty` /
    /// `note_clean` helpers so budget checks never walk the vnode table.
    dirty_total: AtomicU64,
    flusher_ctl: OrderedMutex<FlusherCtl, { rank::CLIENT_FLUSHER }>,
    flusher_cv: OrderedCondvar,
    flusher_join: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
    ticket: OrderedMutex<Option<Ticket>, { rank::CLIENT_RESOURCE }>,
    /// Serializes the crash-recovery pipeline. Ranked between the vnode
    /// high locks and the vnode table: the operation that *detects* an
    /// epoch change holds at most one vnode's `hi`, and recovery itself
    /// takes only `lo` locks underneath.
    // dfs-lint: allow(guard-across-rpc) — held across the reestablish /
    // revalidate sends by design: the server serves reestablishment
    // without issuing revocations back to us, and revocation handlers
    // here take only vnode `lo` locks, never this gate.
    recovery_gate: OrderedMutex<(), { rank::CLIENT_RECOVERY }>,
    /// Last epoch observed from each file server (resource layer).
    known_epochs: OrderedMutex<HashMap<ServerId, u64>, { rank::CLIENT_RESOURCE }>,
    vnodes: OrderedMutex<HashMap<Fid, Arc<CVnode>>, { rank::CLIENT_VNODE_TABLE }>,
    locations: OrderedMutex<LocationCache, { rank::CLIENT_RESOURCE }>,
    roots: OrderedMutex<HashMap<VolumeId, Fid>, { rank::CLIENT_RESOURCE }>,
    stats: OrderedMutex<ClientStats, { rank::STATS }>,
    /// Total attempts `file_rpc` spends (across redirects, busy waits,
    /// grace waits and transport retries) before giving up with an
    /// honest `Unavailable`. `DFS_RPC_RETRY_BUDGET` overrides.
    retry_budget: u32,
}

impl CacheManager {
    /// Starts a cache manager, binding its callback service at
    /// `Client(id)`.
    ///
    /// `data` chooses disk-backed or diskless caching (§4.2).
    pub fn start(
        net: Network,
        id: ClientId,
        vldb_replicas: Vec<Addr>,
        data: Arc<dyn DataCache>,
    ) -> Arc<CacheManager> {
        Self::start_with_config(net, id, vldb_replicas, data, WritebackConfig::default())
    }

    /// Starts a cache manager with explicit write-behind tuning.
    pub fn start_with_config(
        net: Network,
        id: ClientId,
        vldb_replicas: Vec<Addr>,
        data: Arc<dyn DataCache>,
        wb: WritebackConfig,
    ) -> Arc<CacheManager> {
        let addr = Addr::Client(id);
        let cm = Arc::new(CacheManager {
            id,
            addr,
            net: net.clone(),
            vldb: VldbHandle::new(net.clone(), addr, vldb_replicas),
            data,
            wb,
            dirty_total: AtomicU64::new(0),
            flusher_ctl: OrderedMutex::new(FlusherCtl::default()),
            flusher_cv: OrderedCondvar::new(),
            flusher_join: parking_lot::Mutex::new(None),
            ticket: OrderedMutex::new(None),
            recovery_gate: OrderedMutex::new(()),
            known_epochs: OrderedMutex::new(HashMap::new()),
            vnodes: OrderedMutex::new(HashMap::new()),
            locations: OrderedMutex::new(LocationCache::default()),
            roots: OrderedMutex::new(HashMap::new()),
            stats: OrderedMutex::new(ClientStats::default()),
            retry_budget: std::env::var("DFS_RPC_RETRY_BUDGET")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|b| *b > 0)
                .unwrap_or(50),
        });
        net.register(
            addr,
            cm.clone(),
            PoolConfig { workers: 2, revocation_workers: 2, require_auth: false },
        );
        if cm.wb.flusher {
            let weak = Arc::downgrade(&cm);
            let handle = std::thread::Builder::new()
                .name(format!("dfs-flusher-{}", id.0))
                .spawn(move || Self::flusher_main(weak))
                .expect("spawn flusher");
            *cm.flusher_join.lock() = Some(handle);
        }
        cm
    }

    /// The background store daemon: wakes on a timer or a kick, and
    /// trickles dirty pages out via `store_back`. It takes no vnode
    /// `hi` lock ever, and drops its control lock before flushing, so
    /// it can never hold a guard across an RPC send.
    fn flusher_main(weak: Weak<CacheManager>) {
        loop {
            // Upgrade per iteration: holding only a weak reference lets
            // the cache manager be dropped while the daemon sleeps.
            let Some(cm) = weak.upgrade() else { return };
            let mut ctl = cm.flusher_ctl.lock();
            if !ctl.stop && !ctl.kicked {
                cm.flusher_cv.wait_for(&mut ctl, cm.wb.flush_interval);
            }
            let stop = ctl.stop;
            let paused = ctl.paused;
            ctl.kicked = false;
            drop(ctl);
            if !paused && cm.dirty_total.load(Ordering::Relaxed) > 0 {
                cm.stats.lock().flusher_passes += 1;
                let _ = cm.store_back_all();
            }
            if stop {
                return;
            }
        }
    }

    /// Wakes the flusher ahead of its timer.
    fn kick_flusher(&self) {
        self.flusher_ctl.lock().kicked = true;
        self.flusher_cv.notify_all();
    }

    /// Quiesces (or resumes) the background flusher around recovery.
    fn set_flusher_paused(&self, paused: bool) {
        self.flusher_ctl.lock().paused = paused;
        if !paused {
            self.flusher_cv.notify_all();
        }
    }

    /// Stops the background flusher (flushing remaining dirty data) and
    /// stores back anything still dirty. Idempotent.
    pub fn shutdown(&self) -> DfsResult<()> {
        let handle = self.flusher_join.lock().take();
        if let Some(h) = handle {
            self.flusher_ctl.lock().stop = true;
            self.flusher_cv.notify_all();
            let _ = h.join();
        }
        self.store_back_all()
    }

    /// Stores every dirty page of every vnode back to its server.
    pub fn store_back_all(&self) -> DfsResult<()> {
        let targets: Vec<Arc<CVnode>> = self.vnodes.lock().values().cloned().collect();
        let mut first_err = None;
        for vn in targets {
            if vn.lo.lock().dirty.is_empty() {
                continue;
            }
            if let Err(e) = self.store_back(&vn, None) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Client statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.lock().clone()
    }

    /// Authenticates as `user` via the KDC (§3.7, §4.1).
    pub fn login(&self, user: u32, secret: u64) -> DfsResult<()> {
        let resp = self
            .net
            .call(self.addr, Addr::Kdc, None, CallClass::Normal, Request::Login { user, secret })?;
        match resp {
            Response::TicketGranted(t) => {
                *self.ticket.lock() = Some(t);
                Ok(())
            }
            Response::Err(e) => Err(e),
            _ => Err(DfsError::Internal("bad KDC response")),
        }
    }

    // ------------------------------------------------------------------
    // Resource layer (§4.1)
    // ------------------------------------------------------------------

    fn server_for(&self, volume: VolumeId) -> DfsResult<ServerId> {
        if let Some((s, _)) = self.locations.lock().map.get(&volume).copied() {
            return Ok(s);
        }
        let (s, g) = self.vldb.lookup_gen(volume)?;
        self.loc_install(volume, s, g);
        Ok(s)
    }

    /// Installs a location entry if it is strictly newer than what is
    /// cached (by VLDB generation). Returns whether it was installed.
    fn loc_install(&self, volume: VolumeId, server: ServerId, generation: u64) -> bool {
        let (installed, evicted) = {
            let mut loc = self.locations.lock();
            match loc.map.get(&volume).copied() {
                Some((_, g)) if generation <= g => (false, 0),
                Some(_) => {
                    loc.map.insert(volume, (server, generation));
                    (true, 0)
                }
                None => {
                    let mut evicted = 0u64;
                    while loc.map.len() >= LOCATION_CACHE_CAP {
                        let Some(old) = loc.order.pop_front() else { break };
                        if loc.map.remove(&old).is_some() {
                            evicted += 1;
                        }
                    }
                    loc.map.insert(volume, (server, generation));
                    loc.order.push_back(volume);
                    (true, evicted)
                }
            }
        };
        if evicted > 0 {
            self.stats.lock().location_evictions += evicted;
        }
        installed
    }

    /// Drops a cached location (the next use re-resolves via the VLDB).
    /// The eviction queue entry goes too: leaving it would let repeated
    /// invalidate/reinstall cycles grow `order` without bound and make
    /// eviction pop a reinstalled entry via its stale duplicate.
    fn loc_invalidate(&self, volume: VolumeId) {
        let mut loc = self.locations.lock();
        loc.map.remove(&volume);
        loc.order.retain(|v| *v != volume);
    }

    /// Follows a `WrongServer` redirect: install the hint when newer;
    /// when it is not (a stale hint), distrust the cache entirely so the
    /// next attempt re-resolves through the VLDB.
    fn follow_redirect(&self, volume: VolumeId, hint: ServerId, generation: u64) {
        self.stats.lock().wrong_server_redirects += 1;
        if !self.loc_install(volume, hint, generation) {
            self.loc_invalidate(volume);
        }
    }

    /// Sends a file RPC, retrying transparently across volume moves
    /// (re-consulting the VLDB), brief volume-busy windows (§2.1),
    /// crashed or unreachable servers, and post-restart grace windows.
    /// Every `Status`/`Data` response carries the server's epoch; a
    /// change from the last one seen runs the recovery pipeline before
    /// the response is handed back.
    fn file_rpc(&self, volume: VolumeId, req: Request) -> DfsResult<Response> {
        let ticket = *self.ticket.lock();
        let key = volume.0.wrapping_mul(0x9E37_79B9);
        // Consecutive attempts on which the primary was unreachable;
        // read-class requests fail over to a §3.8 replica once this
        // crosses the threshold (one dropped packet is not an outage).
        const FAILOVER_AFTER: u32 = 2;
        let mut down = 0u32;
        for attempt in 0..self.retry_budget {
            let server = match self.server_for(volume) {
                Ok(s) => Some(s),
                // Even the VLDB cannot place the volume right now. A
                // replica may still hold it read-only; otherwise keep
                // burning budget so a recovering VLDB gets retried.
                Err(DfsError::Unreachable | DfsError::Timeout | DfsError::Crashed) => None,
                Err(e) => return Err(e),
            };
            let Some(server) = server else {
                down += 1;
                if down >= FAILOVER_AFTER {
                    if let Some(resp) = self.replica_fallback(volume, &req, ticket) {
                        return Ok(resp);
                    }
                }
                self.backoff_keyed(key, attempt + 1);
                continue;
            };
            let resp = self.net.call(
                self.addr,
                Addr::Server(server),
                ticket,
                CallClass::Normal,
                req.clone(),
            );
            match resp {
                Ok(Response::WrongServer { hint, generation }) => {
                    // The volume moved (§2.1): chase the hint and retry
                    // immediately — with a live hint this costs exactly
                    // one extra hop, no backoff needed.
                    down = 0;
                    self.follow_redirect(volume, hint, generation);
                }
                Ok(Response::Err(DfsError::NoSuchVolume)) => {
                    // Force a fresh VLDB lookup next iteration.
                    down = 0;
                    self.loc_invalidate(volume);
                    self.backoff_keyed(key, attempt + 1);
                }
                Ok(Response::Err(DfsError::VolumeBusy)) => {
                    down = 0;
                    self.stats.lock().busy_retries += 1;
                    self.backoff_keyed(key, attempt + 1);
                }
                Ok(Response::Err(DfsError::GraceWait)) => {
                    // The server restarted and admits only token
                    // reestablishment: learn its new epoch, recover,
                    // and retry once the grace gate admits us.
                    down = 0;
                    self.stats.lock().grace_waits += 1;
                    self.probe_epoch(server, ticket);
                    self.backoff_keyed(key, attempt + 1);
                }
                Ok(Response::Err(DfsError::Crashed)) => {
                    // Reached the node but its disk is down; it will be
                    // restarted (or the volume moved), so re-resolve
                    // this volume and retry.
                    self.stats.lock().transport_retries += 1;
                    self.loc_invalidate(volume);
                    down += 1;
                    if down >= FAILOVER_AFTER {
                        if let Some(resp) = self.replica_fallback(volume, &req, ticket) {
                            return Ok(resp);
                        }
                    }
                    self.backoff_keyed(key, attempt + 1);
                }
                Ok(other) => {
                    if let Response::Status { epoch, .. } | Response::Data { epoch, .. } =
                        &other
                    {
                        self.note_epoch(server, *epoch, ticket);
                    }
                    return Ok(other);
                }
                Err(DfsError::Unreachable | DfsError::Crashed | DfsError::Timeout) => {
                    // Invalidate only this volume's entry: other volumes
                    // cached against other servers stay warm, and this
                    // one re-resolves through the VLDB (which reflects a
                    // move or a restarted replacement).
                    self.stats.lock().transport_retries += 1;
                    self.loc_invalidate(volume);
                    down += 1;
                    if down >= FAILOVER_AFTER {
                        if let Some(resp) = self.replica_fallback(volume, &req, ticket) {
                            return Ok(resp);
                        }
                    }
                    self.backoff_keyed(key, attempt + 1);
                }
                Err(e) => return Err(e),
            }
        }
        // The budget is spent: report honest unavailability rather than
        // a timeout the caller would be tempted to retry forever.
        self.stats.lock().unavailable_giveups += 1;
        Err(DfsError::Unavailable)
    }

    /// Attempts a bounded-stale read from a §3.8 read-only replica after
    /// the primary has been unreachable for several attempts. Only
    /// requests a replica can answer with an explicit staleness stamp
    /// are eligible, and token wants are stripped: a replica's grants
    /// mean nothing at the primary and must never install as
    /// token-backed cache state.
    fn replica_fallback(
        &self,
        volume: VolumeId,
        req: &Request,
        ticket: Option<Ticket>,
    ) -> Option<Response> {
        let stripped = match req {
            Request::FetchStatus { fid, .. } => Request::FetchStatus { fid: *fid, want: None },
            Request::FetchData { fid, offset, len, .. } => {
                Request::FetchData { fid: *fid, offset: *offset, len: *len, want: None }
            }
            _ => return None,
        };
        let replicas = self.vldb.replicas_of(volume).ok()?;
        for r in replicas {
            let resp =
                self.net.call(self.addr, Addr::Server(r), ticket, CallClass::Normal, stripped.clone());
            if let Ok(resp @ (Response::Status { .. } | Response::Data { .. })) = resp {
                let (Response::Status { stale_us, .. } | Response::Data { stale_us, .. }) = &resp
                else {
                    unreachable!()
                };
                // A zero stamp means this server is not serving the
                // volume as a replica after all; only stamped (bounded-
                // stale) answers may flow back through this path.
                if *stale_us == 0 {
                    continue;
                }
                let mut st = self.stats.lock();
                st.replica_failovers += 1;
                st.max_stale_us = st.max_stale_us.max(*stale_us);
                return Some(resp);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Vnode table
    // ------------------------------------------------------------------

    fn vnode(&self, fid: Fid) -> Arc<CVnode> {
        let mut vnodes = self.vnodes.lock();
        vnodes
            .entry(fid)
            .or_insert_with(|| {
                Arc::new(CVnode {
                    fid,
                    hi: OrderedMutex::new(()),
                    lo: OrderedMutex::new(VnState::default()),
                })
            })
            .clone()
    }

    /// Merges an RPC response's tokens/status into the vnode and then
    /// applies any queued revocations, all in stamp order (§6.3).
    fn absorb(
        &self,
        vn: &CVnode,
        lo: &mut VnState,
        status: Option<(FileStatus, SerializationStamp)>,
        tokens: Vec<Token>,
    ) {
        if let Some((status, stamp)) = status {
            if !lo.merge_status(status, stamp) {
                self.stats.lock().stale_status_dropped += 1;
            }
        }
        for t in tokens {
            lo.tokens.push(t);
        }
        let queued = std::mem::take(&mut lo.queued);
        for (token, types, stamp) in queued {
            // A queued revocation may target a token granted by a reply
            // that is *still* in flight — e.g. the flusher's store-back
            // lands (and absorbs) before the FetchData that carries the
            // token. Applying it now would discard it as "already gone"
            // and the token would later install unrevoked, serving stale
            // data forever. Keep it queued until the token shows up or
            // every in-flight reply has been merged.
            if lo.in_flight > 0 && !lo.tokens.iter().any(|t| t.id == token.id) {
                lo.queued.push((token, types, stamp));
                continue;
            }
            self.apply_revocation(vn, lo, &token, types, stamp);
        }
    }

    /// Processes one typed revocation against the low-level state.
    ///
    /// Only the `types` bits are taken; remaining bits of the token stay
    /// held. Dirty pages (for data-write bits) or local status (for
    /// status-write bits) are stored back first (§5.3). Returns false if
    /// the bits are retained (held locks/opens, §5.3).
    // dfs-lint: allow(guard-across-rpc) — store-backs triggered by a
    // revocation use CallClass::Revocation, which the server serves
    // grant-free (§6.3): the reply cannot block on a further revocation
    // to us, so holding the caller's `lo` guard across the send is safe.
    fn apply_revocation(
        &self,
        vn: &CVnode,
        lo: &mut VnState,
        token: &Token,
        types: TokenTypes,
        stamp: SerializationStamp,
    ) -> bool {
        let Some(pos) = lo.tokens.iter().position(|t| t.id == token.id) else {
            return true; // Already gone (returned voluntarily).
        };
        let to_drop = TokenTypes(lo.tokens[pos].types.0 & types.0);
        if to_drop.is_empty() {
            return true;
        }
        let held_range = lo.tokens[pos].range;
        // Lock and open tokens may be kept if still in use (§5.3).
        if to_drop.intersects(TokenTypes(TokenTypes::LOCK_READ.0 | TokenTypes::LOCK_WRITE.0))
            && lo.locks.iter().any(|l| l.local && l.range.overlaps(&held_range))
        {
            self.stats.lock().retained += 1;
            return false;
        }
        if to_drop.intersects(TokenTypes::OPEN_MASK) && !lo.opens.is_empty() {
            self.stats.lock().retained += 1;
            return false;
        }
        // Store back what the revoked bits let us dirty (§5.3, §6.4):
        // data-write bits flush dirty pages in the range; status-write
        // bits push the locally-updated status (length and mtime — the
        // data itself stays cached under the data token we still hold).
        if to_drop.contains(TokenTypes::DATA_WRITE) {
            let _ = self.store_dirty(vn, lo, Some(held_range), CallClass::Revocation);
        } else if to_drop.contains(TokenTypes::STATUS_WRITE) && lo.status_dirty {
            if let Some(st) = lo.status.clone() {
                let ticket = *self.ticket.lock();
                let attrs = SetAttrs {
                    length: Some(st.length),
                    mtime: Some(st.mtime),
                    ..SetAttrs::default()
                };
                // Chase the volume across at most a few moves: a
                // `WrongServer` reply re-resolves and retries at the
                // new owner so the status push is never dropped.
                for _ in 0..4u32 {
                    let Ok(server) = self.server_for(vn.fid.volume) else { break };
                    let resp = self.net.call(
                        self.addr,
                        Addr::Server(server),
                        ticket,
                        CallClass::Revocation,
                        Request::StoreStatus { fid: vn.fid, attrs: attrs.clone() },
                    );
                    match resp {
                        Ok(Response::Status { status, stamp, .. }) => {
                            lo.merge_status(status, stamp);
                            // Only a successful push cleans the flag: a
                            // failed store-back keeps the status dirty
                            // so a later flush can retry it.
                            lo.status_dirty = false;
                            break;
                        }
                        Ok(Response::WrongServer { hint, generation }) => {
                            self.follow_redirect(vn.fid.volume, hint, generation);
                        }
                        _ => break,
                    }
                }
            }
        }
        // Strip the bits; drop the token entirely when nothing is left.
        lo.tokens[pos].types = lo.tokens[pos].types.minus(to_drop);
        if lo.tokens[pos].types.is_empty() {
            lo.tokens.remove(pos);
        }
        // Drop cache coverage no longer under any token.
        let still_covered: Vec<ByteRange> = lo
            .tokens
            .iter()
            .filter(|t| {
                t.types
                    .intersects(TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::DATA_WRITE.0))
            })
            .map(|t| t.range)
            .collect();
        if to_drop
            .intersects(TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::DATA_WRITE.0))
        {
            let dropped: Vec<u64> = lo
                .valid
                .iter()
                .copied()
                .filter(|p| {
                    let r = ByteRange::at(p * PAGE_SIZE as u64, PAGE_SIZE as u64);
                    held_range.overlaps(&r) && !still_covered.iter().any(|c| c.contains_range(&r))
                })
                .collect();
            for p in dropped {
                lo.valid.remove(&p);
                self.data.drop_page(vn.fid, p);
            }
            // Directory-content caches ride on the data token.
            lo.names.clear();
            lo.listing = None;
        }
        if to_drop
            .intersects(TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::STATUS_WRITE.0))
        {
            lo.names.clear();
            lo.listing = None;
        }
        lo.stamp = lo.stamp.max(stamp);
        true
    }

    // ------------------------------------------------------------------
    // Write-behind pipeline: coalesced store-backs (§4.2, §5.3)
    // ------------------------------------------------------------------

    /// Marks `page` dirty with the given write sequence, maintaining the
    /// client-wide dirty-page counter.
    fn note_dirty(&self, lo: &mut VnState, page: u64, seq: u64) {
        if lo.dirty.insert(page, seq).is_none() {
            self.dirty_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks `page` clean, maintaining the client-wide counter.
    fn note_clean(&self, lo: &mut VnState, page: u64) {
        if lo.dirty.remove(&page).is_some() {
            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Drops every dirty page of a vnode (file removal).
    fn clear_dirty(&self, lo: &mut VnState) {
        let n = lo.dirty.len() as u64;
        lo.dirty.clear();
        self.dirty_total.fetch_sub(n, Ordering::Relaxed);
    }

    /// Coalesces dirty pages (optionally restricted to `range`) into up
    /// to `max_extents` contiguous extents of at most
    /// `wb.extent_pages` pages each, snapshotting page contents and
    /// (page, seq) tags under the caller's `lo` guard. The last extent
    /// is clamped at EOF (partial final page); pages wholly beyond EOF
    /// or whose cached contents are gone are dropped from the dirty set
    /// on the spot.
    fn collect_extents(
        &self,
        fid: Fid,
        lo: &mut VnState,
        range: Option<ByteRange>,
        max_extents: usize,
        eof: u64,
    ) -> Vec<PendingExtent> {
        let snapshot: Vec<(u64, u64)> = lo
            .dirty
            .iter()
            .map(|(&p, &s)| (p, s))
            .filter(|(p, _)| {
                range.is_none_or(|r| {
                    r.overlaps(&ByteRange::at(p * PAGE_SIZE as u64, PAGE_SIZE as u64))
                })
            })
            .collect();
        let mut out: Vec<PendingExtent> = Vec::new();
        for (p, seq) in snapshot {
            let offset = p * PAGE_SIZE as u64;
            let len = (PAGE_SIZE as u64).min(eof.saturating_sub(offset)) as usize;
            if len == 0 {
                // Truncated past this page since it was dirtied.
                self.note_clean(lo, p);
                continue;
            }
            let Some(bytes) = self.data.read_page(fid, p) else {
                // Contents evicted from the cache: nothing left to store.
                self.note_clean(lo, p);
                continue;
            };
            // Append when contiguous with the previous page and under
            // the extent budget; a partial (EOF) page never matches the
            // byte-contiguity check, so it always ends its extent.
            let can_append = out.last().is_some_and(|e| {
                e.offset + e.data.len() as u64 == offset && e.pages.len() < self.wb.extent_pages
            });
            if can_append {
                let e = out.last_mut().expect("checked non-empty");
                e.data.extend_from_slice(&bytes[..len]);
                e.pages.push((p, seq));
            } else {
                if out.len() == max_extents {
                    break;
                }
                out.push(PendingExtent {
                    offset,
                    data: bytes[..len].to_vec(),
                    pages: vec![(p, seq)],
                });
            }
        }
        out
    }

    /// Builds the wire request for a batch — a flat `StoreData` for a
    /// single extent (16 bytes cheaper), `StoreDataVec` otherwise — and
    /// returns the (page, seq) tags the batch carries.
    fn storeback_request(fid: Fid, batch: Vec<PendingExtent>) -> (Request, Vec<(u64, u64)>) {
        let mut pages = Vec::new();
        let mut extents = Vec::with_capacity(batch.len());
        for e in batch {
            pages.extend(e.pages);
            extents.push(WriteExtent { offset: e.offset, data: e.data });
        }
        let req = if extents.len() == 1 {
            let e = extents.pop().expect("one extent");
            Request::StoreData { fid, offset: e.offset, data: e.data }
        } else {
            Request::StoreDataVec { fid, extents }
        };
        (req, pages)
    }

    /// Most extents per store-back RPC under the current config.
    fn max_extents(&self) -> usize {
        if self.wb.use_vec_rpc {
            self.wb.max_extents_per_rpc
        } else {
            1
        }
    }

    /// Stores dirty pages (optionally only those in `range`) back to the
    /// file server from *revocation* context, merging the returned
    /// status by stamp (§6.3). The caller's `lo` guard is held across
    /// the sends — safe only because revocation-class stores are served
    /// grant-free (§6.3): the reply cannot block on a further revocation
    /// aimed back at us. Normal-path store-backs use [`store_back`],
    /// which drops the guard instead.
    ///
    /// [`store_back`]: CacheManager::store_back
    // dfs-lint: allow(guard-across-rpc) — revocation-class stores are
    // grant-free at the server (§6.3), so holding the caller's `lo`
    // guard across the send cannot deadlock.
    fn store_dirty(
        &self,
        vn: &CVnode,
        lo: &mut VnState,
        range: Option<ByteRange>,
        class: CallClass,
    ) -> DfsResult<()> {
        let ticket = *self.ticket.lock();
        // Clamp against the EOF as of flush start: a reply merged after
        // a partial store reports the server's (shorter) length, which
        // must not EOF-discard pages still waiting in the dirty set.
        let eof = lo.status.as_ref().map(|s| s.length).unwrap_or(u64::MAX);
        let mut redirects = 0u32;
        loop {
            // Re-resolve per round: a volume move mid-revocation means
            // the dirty data must chase the volume to its new server.
            let server = self.server_for(vn.fid.volume)?;
            let batch = self.collect_extents(vn.fid, lo, range, self.max_extents(), eof);
            if batch.is_empty() {
                return Ok(());
            }
            let (req, pages) = Self::storeback_request(vn.fid, batch);
            let resp = self.net.call(self.addr, Addr::Server(server), ticket, class, req)?;
            match resp {
                Response::Status { status, stamp, .. } => {
                    if !lo.merge_status(status, stamp) {
                        self.stats.lock().stale_status_dropped += 1;
                    }
                }
                Response::WrongServer { hint, generation } => {
                    // Nothing was stored: the pages stay dirty and the
                    // next round re-collects them against the new owner.
                    redirects += 1;
                    if redirects > 8 {
                        return Err(DfsError::Timeout);
                    }
                    self.follow_redirect(vn.fid.volume, hint, generation);
                    continue;
                }
                Response::Err(e) => return Err(e),
                _ => return Err(DfsError::Internal("bad StoreData response")),
            }
            // `lo` was held throughout: no page can have been re-dirtied.
            let n = pages.len() as u64;
            for (p, _) in pages {
                self.note_clean(lo, p);
            }
            if class == CallClass::Revocation {
                self.stats.lock().revocation_stores += n;
            }
        }
    }

    /// The normal-path store-back: coalesces dirty pages into extents
    /// and ships them with the vnode's low-level lock **released across
    /// every send** (§6.1) — no `guard-across-rpc` suppression needed.
    /// Pages re-dirtied while an RPC was in flight keep their dirty bit
    /// (their write_seq no longer matches the snapshot) and go out on a
    /// later round; queued revocations are absorbed after each reply.
    fn store_back(&self, vn: &Arc<CVnode>, range: Option<ByteRange>) -> DfsResult<()> {
        let mut lo = vn.lo.lock();
        loop {
            // The EOF as the local writer sees it at snapshot time:
            // extents are clamped against the same status the dirty-set
            // snapshot below comes from.
            let eof = lo.status.as_ref().map_or(u64::MAX, |s| s.length);
            let batch = self.collect_extents(vn.fid, &mut lo, range, self.max_extents(), eof);
            if batch.is_empty() {
                return Ok(());
            }
            let n_extents = batch.len() as u64;
            let (req, pages) = Self::storeback_request(vn.fid, batch);
            lo.in_flight += 1;
            drop(lo);
            {
                let mut st = self.stats.lock();
                st.storeback_rpcs += 1;
                st.storeback_extents += n_extents;
                st.storeback_pages += pages.len() as u64;
            }
            let resp = self.file_rpc(vn.fid.volume, req);
            lo = vn.lo.lock();
            lo.in_flight -= 1;
            // The local length as of *now* — writes during the RPC
            // flight may have extended the file past what this store
            // carried. The reply's status wins the stamp comparison
            // but reflects only the stored prefix; letting its shorter
            // length stand would EOF-discard those still-dirty pages on
            // the next round (and shrink what a concurrent local
            // getattr observes), so re-extend while status is dirty.
            let local_len = lo.status.as_ref().map(|s| s.length);
            match resp?.into_result()? {
                Response::Status { status, stamp, .. } => {
                    if !lo.merge_status(status, stamp) {
                        self.stats.lock().stale_status_dropped += 1;
                    }
                }
                _ => return Err(DfsError::Internal("bad store-back response")),
            }
            if lo.status_dirty {
                if let (Some(l), Some(st)) = (local_len, lo.status.as_mut()) {
                    st.length = st.length.max(l);
                }
            }
            // Clean only pages unchanged since the snapshot (no lost
            // updates); re-dirtied pages stay for the next round.
            for (p, seq) in pages {
                if lo.dirty.get(&p) == Some(&seq) {
                    self.note_clean(&mut lo, p);
                }
            }
            // Revocations may have queued while we were in flight (§6.3).
            self.absorb(vn, &mut lo, None, Vec::new());
        }
    }

    /// Jittered, capped backoff for retry loops: linear ramp capped at
    /// 2 ms, with a deterministic per-(client, key, round) jitter in the
    /// upper half so colliding clients desynchronize.
    fn backoff_keyed(&self, key: u64, round: u32) {
        const BASE_US: u64 = 100;
        const CAP_US: u64 = 2_000;
        let step = (BASE_US * u64::from(round)).min(CAP_US);
        let seed = (u64::from(self.id.0) << 40) ^ key ^ u64::from(round);
        let jitter = StdRng::seed_from_u64(seed).gen_range_u64(step / 2 + 1);
        self.stats.lock().backoff_rounds += 1;
        std::thread::sleep(Duration::from_micros(step / 2 + jitter));
    }

    /// Token-contention backoff keyed by fid (used by `read`/`write`).
    fn backoff(&self, fid: Fid, round: u32) {
        self.backoff_keyed(
            (u64::from(fid.vnode.0) << 8) ^ fid.volume.0.wrapping_mul(0x9E37_79B9),
            round,
        );
    }

    // ------------------------------------------------------------------
    // Crash recovery: epoch tracking, reestablishment, replay (§3.2)
    // ------------------------------------------------------------------

    /// Asks a server for its current epoch (a `GraceWait` refusal
    /// carries none) and runs recovery if it changed.
    fn probe_epoch(&self, server: ServerId, ticket: Option<Ticket>) {
        let resp = self.net.call(
            self.addr,
            Addr::Server(server),
            ticket,
            CallClass::Normal,
            Request::GetEpoch,
        );
        if let Ok(Response::EpochIs { epoch, .. }) = resp {
            self.note_epoch(server, epoch, ticket);
        }
    }

    /// Records an observed server epoch. A change from a previously
    /// known epoch means the server crashed and restarted, losing all
    /// token state: run the recovery pipeline before proceeding.
    fn note_epoch(&self, server: ServerId, epoch: u64, ticket: Option<Ticket>) {
        if IN_RECOVERY.with(|f| f.get()) {
            return; // Recovery's own RPCs must not recurse.
        }
        {
            let mut known = self.known_epochs.lock();
            match known.get(&server).copied() {
                Some(prev) if prev == epoch => return,
                Some(_) => {}
                None => {
                    // First contact: nothing cached under an older epoch.
                    known.insert(server, epoch);
                    return;
                }
            }
        }
        self.recover(server, epoch, ticket);
    }

    /// The client half of the crash-restart pipeline, serialized by the
    /// recovery gate and idempotent (the epoch is re-checked under it):
    ///
    /// 1. quiesce the background flusher;
    /// 2. drop every token held from the dead epoch (gone server-side)
    ///    and reset per-vnode stamp floors — the restarted server's
    ///    serialization stamps start over;
    /// 3. re-register the dropped set through one `ReestablishTokens`
    ///    RPC (granted without conflict during the server's grace
    ///    window; claims not returned fall back to the normal grant
    ///    path on demand);
    /// 4. revalidate clean cached files against post-restart
    ///    attributes, keeping data pages whose `DataVersion` is
    ///    unchanged (AFS-style);
    /// 5. replay still-dirty write-behind pages through the ordinary
    ///    store-back path — an acked store survived in the journal, an
    ///    unacked one is still dirty here, so no update is lost.
    fn recover(&self, server: ServerId, epoch: u64, ticket: Option<Ticket>) {
        let _gate = self.recovery_gate.lock();
        {
            let mut known = self.known_epochs.lock();
            if known.get(&server) == Some(&epoch) {
                return; // Another thread already recovered this epoch.
            }
            known.insert(server, epoch);
        }
        self.stats.lock().recoveries += 1;
        IN_RECOVERY.with(|f| f.set(true));
        self.set_flusher_paused(true);
        self.recover_inner(server, epoch, ticket);
        self.set_flusher_paused(false);
        IN_RECOVERY.with(|f| f.set(false));
    }

    fn recover_inner(&self, server: ServerId, epoch: u64, ticket: Option<Ticket>) {
        // Cached vnodes living on the restarted server.
        let all: Vec<Arc<CVnode>> = self.vnodes.lock().values().cloned().collect();
        let mine: Vec<Arc<CVnode>> = all
            .into_iter()
            .filter(|vn| self.server_for(vn.fid.volume).ok() == Some(server))
            .collect();
        // Drop dead-epoch tokens, remembering what we held so it can be
        // claimed back; reset stamp floors so the restarted server's
        // stamps are accepted.
        let mut claims: Vec<Token> = Vec::new();
        for vn in &mine {
            let mut lo = vn.lo.lock();
            claims.append(&mut lo.tokens);
            lo.queued.clear(); // Revocations of dead tokens are moot.
            lo.stamp = SerializationStamp::default();
        }
        // One batched reestablish call re-registers the whole set.
        let granted = if claims.is_empty() {
            Vec::new()
        } else {
            match self.net.call(
                self.addr,
                Addr::Server(server),
                ticket,
                CallClass::Normal,
                Request::ReestablishTokens { epoch, tokens: claims },
            ) {
                Ok(Response::Reestablished { tokens, .. }) => tokens,
                // Grace already over, or the server bounced again: fall
                // back to the normal grant path on demand.
                _ => Vec::new(),
            }
        };
        self.stats.lock().tokens_reestablished += granted.len() as u64;
        for t in granted {
            let vn = self.vnode(t.fid);
            vn.lo.lock().tokens.push(t);
        }
        // Replay files with dirty pages; revalidate the rest. A vnode
        // whose pages were all acked pre-crash may still carry
        // `status_dirty` (only a revocation-driven `StoreStatus` clears
        // it), but its cached status already reflects the server's
        // reply to the last store — so it revalidates like a clean one.
        for vn in &mine {
            let (has_dirty, cached_dv) = {
                let lo = vn.lo.lock();
                (!lo.dirty.is_empty(), lo.status.as_ref().map(|s| s.data_version))
            };
            if has_dirty {
                // Locally-modified data is newer than anything the
                // server recovered; push it back out. Pages whose
                // stores were acked pre-crash are clean here and
                // durable there; everything else is still dirty.
                let replayed = vn.lo.lock().dirty.len() as u64;
                if self.store_back(vn, None).is_ok() {
                    self.stats.lock().recovery_replayed_pages += replayed;
                }
                continue;
            }
            let Some(cached_dv) = cached_dv else { continue };
            let resp = self
                .file_rpc(vn.fid.volume, Request::FetchStatus { fid: vn.fid, want: None })
                .and_then(|r| r.into_result());
            let mut lo = vn.lo.lock();
            match resp {
                // A replica-served (stale-stamped) status cannot
                // revalidate a cache: only the primary's answer is
                // authoritative, so stale falls to the distrust arm.
                Ok(Response::Status { status, tokens, stamp, stale_us: 0, .. }) => {
                    let keep = status.data_version == cached_dv;
                    if !keep {
                        let dropped: Vec<u64> = lo.valid.iter().copied().collect();
                        for p in dropped {
                            lo.valid.remove(&p);
                            self.data.drop_page(vn.fid, p);
                        }
                    }
                    self.absorb(vn, &mut lo, Some((status, stamp)), tokens);
                    let mut st = self.stats.lock();
                    if keep {
                        st.reval_kept += 1;
                    } else {
                        st.reval_dropped += 1;
                    }
                }
                _ => {
                    // Could not revalidate: distrust the cached copy.
                    let dropped: Vec<u64> = lo.valid.iter().copied().collect();
                    for p in dropped {
                        lo.valid.remove(&p);
                        self.data.drop_page(vn.fid, p);
                    }
                    // dfs-lint: allow(lock-gap) — not a stale write-back: the
                    // revalidation happens against the *fresh* FetchStatus
                    // reply (`status.data_version == cached_dv` above), and
                    // this branch only invalidates cached state; it never
                    // writes a pre-gap snapshot into the vnode.
                    lo.status = None;
                    self.stats.lock().reval_dropped += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Vnode layer: the file API (§4.4)
    // ------------------------------------------------------------------

    /// Returns the root fid of a volume.
    pub fn root(&self, volume: VolumeId) -> DfsResult<Fid> {
        if let Some(f) = self.roots.lock().get(&volume) {
            return Ok(*f);
        }
        match self.file_rpc(volume, Request::GetRoot { volume })?.into_result()? {
            Response::FidIs(f) => {
                self.roots.lock().insert(volume, f);
                Ok(f)
            }
            _ => Err(DfsError::Internal("bad GetRoot response")),
        }
    }

    /// Page `p`, which `lo.valid` lists, for an operation holding the
    /// vnode's `hi` lock. The data cache may have evicted it; under `lo`
    /// that is told apart from a hole. An evicted clean page comes from
    /// `fetched`, the `(first page, bytes)` runs this operation fetched
    /// and installed: while `hi` is held a page still in `valid` cannot
    /// have changed since. Otherwise it is `None`, and the caller drops
    /// it from `valid` and fetches it again. An evicted dirty page reads
    /// as zeros: its bytes are lost (store-back skips it too).
    fn valid_page(
        &self,
        lo: &VnState,
        fid: Fid,
        p: u64,
        fetched: &[(u64, Vec<u8>)],
    ) -> Option<Vec<u8>> {
        if let Some(page) = self.data.read_page(fid, p) {
            return Some(page);
        }
        if lo.dirty.contains_key(&p) {
            return Some(vec![0; PAGE_SIZE]);
        }
        fetched.iter().find_map(|(start, bytes)| {
            let at = usize::try_from(p.checked_sub(*start)?).ok()?.checked_mul(PAGE_SIZE)?;
            let mut page = bytes.get(at..)?.chunks(PAGE_SIZE).next()?.to_vec();
            page.resize(PAGE_SIZE, 0);
            Some(page)
        })
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, fid: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        let mut fetched: Vec<(u64, Vec<u8>)> = Vec::new();
        for round in 0..256u32 {
            // Fast path first, while the low-level lock is still held
            // from the previous round's merge: a freshly-granted token
            // cannot be revoked between absorb and this check.
            if lo.status_trusted() {
                let st = lo.status.clone().expect("trusted implies present");
                let end = st.length.min(offset + len as u64);
                if offset >= end {
                    self.stats.lock().local_reads += 1;
                    return Ok(Vec::new());
                }
                let want = ByteRange::new(offset, end);
                let first = offset / PAGE_SIZE as u64;
                let last = (end - 1) / PAGE_SIZE as u64;
                let readable = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::DATA_WRITE.0);
                if lo.covered(readable, &want)
                    && (first..=last).all(|p| lo.valid.contains(&p))
                {
                    let mut out = Vec::with_capacity((end - offset) as usize);
                    let mut evicted = None;
                    for p in first..=last {
                        let Some(page) = self.valid_page(&lo, fid, p, &fetched) else {
                            evicted = Some(p);
                            break;
                        };
                        let ps = p * PAGE_SIZE as u64;
                        let s = offset.max(ps) - ps;
                        let e = (end - ps).min(PAGE_SIZE as u64);
                        out.extend_from_slice(&page[s as usize..e as usize]);
                    }
                    let Some(p) = evicted else {
                        self.stats.lock().local_reads += 1;
                        return Ok(out);
                    };
                    lo.valid.remove(&p);
                }
            }

            if round > 4 {
                // Contended token: back off outside the locks so another
                // client can finish its handoff, then re-acquire.
                drop(lo);
                self.backoff(fid, round);
                lo = vn.lo.lock();
            }
            // Miss: fetch a chunk with read tokens, releasing the low
            // lock across the RPC (§6.1), then merge and retry.
            let first = offset / PAGE_SIZE as u64;
            let pages = (len as u64).div_ceil(PAGE_SIZE as u64).max(1).max(FETCH_PAGES);
            let fetch_off = first * PAGE_SIZE as u64;
            let fetch_len = (pages * PAGE_SIZE as u64) as u32;
            let fetch_range = ByteRange::at(fetch_off, fetch_len as u64);
            lo.in_flight += 1;
            drop(lo);
            let resp = self.file_rpc(
                fid.volume,
                Request::FetchData {
                    fid,
                    offset: fetch_off,
                    len: fetch_len,
                    want: TokenRequest::ranged(
                        TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
                        fetch_range,
                    ),
                },
            );
            lo = vn.lo.lock();
            lo.in_flight -= 1;
            let (bytes, status, tokens, stamp) = match resp?.into_result()? {
                Response::Data { bytes, status, tokens, stamp, stale_us, .. } => {
                    if stale_us > 0 {
                        // A §3.8 replica answered while the primary was
                        // down: hand the bytes straight to the caller.
                        // Nothing installs — the replica's tokens and
                        // stamps mean nothing at the primary, and a
                        // bounded-stale page must never masquerade as
                        // token-backed cache state.
                        self.stats.lock().stale_reads += 1;
                        let end = status.length.min(offset + len as u64);
                        if offset >= end {
                            return Ok(Vec::new());
                        }
                        let s = (offset - fetch_off) as usize;
                        let e = ((end - fetch_off) as usize).min(bytes.len());
                        return Ok(bytes.get(s..e).unwrap_or(&[]).to_vec());
                    }
                    (bytes, status, tokens, stamp)
                }
                _ => return Err(DfsError::Internal("bad FetchData response")),
            };
            // Install fetched pages; locally-dirty pages are newer than
            // anything the server returned (we hold the write token).
            let whole_pages = bytes.len() / PAGE_SIZE;
            for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
                let p = first + i as u64;
                if !lo.dirty.contains_key(&p) {
                    self.data.write_page(fid, p, chunk)?;
                    if i < whole_pages || status.length <= fetch_off + bytes.len() as u64 {
                        lo.valid.insert(p);
                    }
                }
            }
            fetched = vec![(first, bytes)];
            self.absorb(&vn, &mut lo, Some((status, stamp)), tokens);
            self.stats.lock().remote_reads += 1;
        }
        Err(DfsError::Timeout)
    }

    /// Writes `data` at `offset`; absorbed locally when a write token is
    /// held ("update the data ... without storing the data back to the
    /// server or even notifying the server", §5.2).
    pub fn write(&self, fid: Fid, offset: u64, data: &[u8]) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        let want = ByteRange::at(offset, data.len() as u64);
        let needed = TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0);

        let mut fetched: Vec<(u64, Vec<u8>)> = Vec::new();
        for round in 0..256u32 {
            if lo.covered(TokenTypes::DATA_WRITE, &want)
                && lo.has_types(TokenTypes::STATUS_WRITE)
                && lo.status.is_some()
            {
                // Partial first/last pages need their old contents, read
                // now: writing the pages between them may evict them.
                let first = offset / PAGE_SIZE as u64;
                let last = (offset + data.len() as u64 - 1) / PAGE_SIZE as u64;
                let eof = lo.status.as_ref().map(|s| s.length).unwrap_or(0);
                let mut old: Vec<(u64, Vec<u8>)> = Vec::new();
                let mut need_fetch = Vec::new();
                let ends = if first == last { &[first][..] } else { &[first, last][..] };
                for &p in ends {
                    let ps = p * PAGE_SIZE as u64;
                    let full = offset <= ps && offset + data.len() as u64 >= ps + PAGE_SIZE as u64;
                    if full {
                        continue;
                    }
                    if lo.valid.contains(&p) {
                        match self.valid_page(&lo, fid, p, &fetched) {
                            Some(page) => {
                                old.push((p, page));
                                continue;
                            }
                            None => {
                                lo.valid.remove(&p);
                            }
                        }
                    }
                    if ps < eof {
                        need_fetch.push(p);
                    }
                }
                if !need_fetch.is_empty() {
                    let mut got = Vec::new();
                    let mut failed = None;
                    lo.in_flight += 1;
                    drop(lo);
                    for p in need_fetch {
                        let resp = self.file_rpc(
                            fid.volume,
                            Request::FetchData {
                                fid,
                                offset: p * PAGE_SIZE as u64,
                                len: PAGE_SIZE as u32,
                                want: None,
                            },
                        );
                        match resp.and_then(Response::into_result) {
                            Ok(Response::Data { bytes, stale_us: 0, .. }) => {
                                self.data.write_page(fid, p, &bytes)?;
                                fetched.retain(|(q, _)| *q != p);
                                fetched.push((p, bytes));
                                got.push(p);
                            }
                            // A replica's bounded-stale page must never be
                            // merged under a write token: the unmodified
                            // part of the page would store back stale
                            // bytes (a lost update).
                            Ok(Response::Data { .. }) => failed = Some(DfsError::Unavailable),
                            Ok(_) => failed = Some(DfsError::Internal("bad FetchData response")),
                            Err(e) => failed = Some(e),
                        }
                        if failed.is_some() {
                            break;
                        }
                    }
                    lo = vn.lo.lock();
                    lo.in_flight -= 1;
                    for p in got {
                        lo.valid.insert(p);
                    }
                    if let Some(e) = failed {
                        return Err(e);
                    }
                    // Tokens may have been revoked while fetching (§6.3):
                    // drain the queue and re-check coverage.
                    self.absorb(&vn, &mut lo, None, Vec::new());
                    continue;
                }
                // Apply the write to cached pages, stamping each dirty
                // page with a fresh write sequence (lost-update guard
                // for store-backs that release `lo` mid-flight).
                lo.write_seq += 1;
                let seq = lo.write_seq;
                let mut done = 0usize;
                let mut pos = offset;
                while done < data.len() {
                    let p = pos / PAGE_SIZE as u64;
                    let within = (pos % PAGE_SIZE as u64) as usize;
                    let n = (PAGE_SIZE - within).min(data.len() - done);
                    let mut page = match old.iter().position(|(q, _)| *q == p) {
                        Some(i) => old.swap_remove(i).1,
                        None => self.data.read_page(fid, p).unwrap_or_else(|| vec![0; PAGE_SIZE]),
                    };
                    page[within..within + n].copy_from_slice(&data[done..done + n]);
                    self.data.write_page(fid, p, &page)?;
                    lo.valid.insert(p);
                    self.note_dirty(&mut lo, p, seq);
                    pos += n as u64;
                    done += n;
                }
                let st = lo.status.as_mut().expect("checked above");
                st.length = st.length.max(offset + data.len() as u64);
                st.mtime = self.net.clock().now();
                st.data_version += 1;
                let out = st.clone();
                lo.status_dirty = true;
                self.stats.lock().local_writes += 1;
                // Dirty-page budget (write-behind backpressure): over
                // budget, nudge the flusher; over twice the budget, this
                // writer pays for the flush itself.
                if self.wb.flusher {
                    let dirty = self.dirty_total.load(Ordering::Relaxed) as usize;
                    if dirty > self.wb.dirty_budget_pages.saturating_mul(2) {
                        self.stats.lock().backpressure_flushes += 1;
                        drop(lo);
                        self.store_back(&vn, None)?;
                    } else if dirty > self.wb.dirty_budget_pages {
                        self.kick_flusher();
                    }
                }
                return Ok(out);
            }

            if round > 4 {
                drop(lo);
                self.backoff(fid, round);
                lo = vn.lo.lock();
            }
            // Acquire data and status tokens in one combined grant over
            // a page-aligned hull so nearby writes stay local; typed
            // partial revocation means a later status conflict will not
            // take the byte-range data bits with it (§5.2, §5.4).
            let hull = ByteRange::new(
                (offset / PAGE_SIZE as u64) * PAGE_SIZE as u64,
                (offset + data.len() as u64).div_ceil(PAGE_SIZE as u64).max(FETCH_PAGES)
                    * PAGE_SIZE as u64,
            );
            lo.in_flight += 1;
            drop(lo);
            let resp = self.file_rpc(
                fid.volume,
                Request::GetToken {
                    fid,
                    want: TokenRequest {
                        types: TokenTypes(
                            needed.0 | TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0,
                        ),
                        range: hull,
                    },
                },
            );
            lo = vn.lo.lock();
            lo.in_flight -= 1;
            match resp?.into_result()? {
                Response::Status { status, tokens, stamp, .. } => {
                    self.absorb(&vn, &mut lo, Some((status, stamp)), tokens);
                }
                _ => return Err(DfsError::Internal("bad GetToken response")),
            }
            self.stats.lock().write_token_fetches += 1;
        }
        Err(DfsError::Timeout)
    }

    /// Prefetches data tokens over `range` so subsequent reads (and
    /// writes, with `write = true`) in that range are served locally —
    /// how a partitioned workload claims its byte range (§5.4).
    pub fn acquire_data_token(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let types = if write {
            TokenTypes(
                TokenTypes::DATA_WRITE.0
                    | TokenTypes::DATA_READ.0
                    | TokenTypes::STATUS_WRITE.0
                    | TokenTypes::STATUS_READ.0,
            )
        } else {
            TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0)
        };
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        lo.in_flight += 1;
        drop(lo);
        let resp = self
            .file_rpc(fid.volume, Request::GetToken { fid, want: TokenRequest { types, range } });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result()? {
            Response::Status { status, tokens, stamp, .. } => {
                self.absorb(&vn, &mut lo, Some((status, stamp)), tokens);
                Ok(())
            }
            _ => Err(DfsError::Internal("bad GetToken response")),
        }
    }

    /// Flushes dirty data and returns when it is durable at the server.
    pub fn fsync(&self, fid: Fid) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let had_dirty = !vn.lo.lock().dirty.is_empty();
        self.store_back(&vn, None)?;
        if !had_dirty {
            // Nothing shipped, so no store-back forced the server's
            // log. The caller still asked for durability — a freshly
            // created (or renamed, chmod'ed, ...) file must survive a
            // crash — so force the log explicitly.
            self.file_rpc(fid.volume, Request::Fsync { fid })?.into_result()?;
        }
        Ok(())
    }

    /// Looks up `name` in `dir`, consulting the directory layer first
    /// (§4.3: "the client must in general cache the results of
    /// individual lookups").
    pub fn lookup(&self, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        if lo.dir_trusted() {
            if let Some(st) = lo.names.get(name) {
                self.stats.lock().lookup_hits += 1;
                return Ok(st.clone());
            }
            if lo.listing.is_some()
                && !lo.listing.as_ref().unwrap().iter().any(|e| e.name == name)
            {
                self.stats.lock().lookup_hits += 1;
                return Err(DfsError::NotFound);
            }
        }
        lo.in_flight += 1;
        drop(lo);
        self.stats.lock().lookup_misses += 1;
        let resp = self.file_rpc(
            dir.volume,
            Request::Lookup {
                dir,
                name: name.to_string(),
                want: TokenRequest::whole(TokenTypes(
                    TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0,
                )),
            },
        );
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result() {
            Ok(Response::Status { status, tokens, stamp, .. }) => {
                self.absorb(&vn, &mut lo, None, tokens);
                lo.names.insert(name.to_string(), status.clone());
                drop(lo);
                // Seed the child vnode's status too.
                let child = self.vnode(status.fid);
                let mut clo = child.lo.lock();
                if !clo.merge_status(status.clone(), stamp) {
                    self.stats.lock().stale_status_dropped += 1;
                }
                Ok(status)
            }
            Ok(_) => Err(DfsError::Internal("bad Lookup response")),
            Err(e) => Err(e),
        }
    }

    /// Lists a directory, cached under the directory's data token.
    pub fn readdir(&self, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        if lo.dir_trusted() {
            if let Some(l) = &lo.listing {
                self.stats.lock().lookup_hits += 1;
                return Ok(l.clone());
            }
        }
        lo.in_flight += 1;
        drop(lo);
        let resp = self.file_rpc(dir.volume, Request::Readdir { dir });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result()? {
            Response::Entries(entries) => {
                if lo.dir_trusted() {
                    lo.listing = Some(entries.clone());
                }
                Ok(entries)
            }
            _ => Err(DfsError::Internal("bad Readdir response")),
        }
    }

    fn namespace_rpc(&self, dir: Fid, req: Request) -> DfsResult<FileStatus> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        lo.in_flight += 1;
        drop(lo);
        let resp = self.file_rpc(dir.volume, req);
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result() {
            Ok(Response::Status { status, tokens, stamp, .. }) => {
                self.absorb(&vn, &mut lo, None, tokens);
                // We made this change ourselves: our directory caches can
                // be updated in place (the server did not revoke our own
                // tokens, §5.2 same-host compatibility).
                lo.listing = None;
                drop(lo);
                let child = self.vnode(status.fid);
                let mut clo = child.lo.lock();
                clo.merge_status(status.clone(), stamp);
                Ok(status)
            }
            Ok(Response::Ok) => Ok(FileStatus::default()),
            Ok(_) => Err(DfsError::Internal("bad namespace response")),
            Err(e) => Err(e),
        }
    }

    /// Creates a regular file.
    pub fn create(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        let st =
            self.namespace_rpc(dir, Request::Create { dir, name: name.into(), mode })?;
        let vn = self.vnode(dir);
        let mut lo = vn.lo.lock();
        lo.names.insert(name.to_string(), st.clone());
        Ok(st)
    }

    /// Creates a directory.
    pub fn mkdir(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        let st = self.namespace_rpc(dir, Request::Mkdir { dir, name: name.into(), mode })?;
        let vn = self.vnode(dir);
        vn.lo.lock().names.insert(name.to_string(), st.clone());
        Ok(st)
    }

    /// Creates a symlink.
    pub fn symlink(&self, dir: Fid, name: &str, target: &str) -> DfsResult<FileStatus> {
        self.namespace_rpc(
            dir,
            Request::Symlink { dir, name: name.into(), target: target.into() },
        )
    }

    /// Reads a symlink target.
    pub fn readlink(&self, fid: Fid) -> DfsResult<String> {
        match self.file_rpc(fid.volume, Request::Readlink { fid })?.into_result()? {
            Response::Target(t) => Ok(t),
            _ => Err(DfsError::Internal("bad Readlink response")),
        }
    }

    /// Adds a hard link.
    pub fn link(&self, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.namespace_rpc(dir, Request::Link { dir, name: name.into(), target })
    }

    /// Removes a file.
    pub fn remove(&self, dir: Fid, name: &str) -> DfsResult<()> {
        let st = self.namespace_rpc(dir, Request::Remove { dir, name: name.into() })?;
        let vn = self.vnode(dir);
        vn.lo.lock().names.remove(name);
        // Invalidate the victim's cached state.
        let victim = self.vnode(st.fid);
        let mut vlo = victim.lo.lock();
        vlo.status = None;
        vlo.valid.clear();
        self.clear_dirty(&mut vlo);
        self.data.evict_file(st.fid);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, dir: Fid, name: &str) -> DfsResult<()> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        lo.in_flight += 1;
        drop(lo);
        let resp = self.file_rpc(dir.volume, Request::Rmdir { dir, name: name.into() });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        resp?.into_result()?;
        lo.names.remove(name);
        lo.listing = None;
        Ok(())
    }

    /// Renames an entry.
    pub fn rename(
        &self,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        self.file_rpc(
            src_dir.volume,
            Request::Rename {
                src_dir,
                src_name: src_name.into(),
                dst_dir,
                dst_name: dst_name.into(),
            },
        )?
        .into_result()?;
        for (d, n) in [(src_dir, src_name), (dst_dir, dst_name)] {
            let vn = self.vnode(d);
            let mut lo = vn.lo.lock();
            lo.names.remove(n);
            lo.listing = None;
        }
        Ok(())
    }

    /// Returns the file's status, from cache when the token allows.
    pub fn getattr(&self, fid: Fid) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        if lo.status_trusted() {
            self.stats.lock().local_reads += 1;
            return Ok(lo.status.clone().expect("trusted implies present"));
        }
        lo.in_flight += 1;
        drop(lo);
        let resp = self.file_rpc(
            fid.volume,
            Request::FetchStatus { fid, want: TokenRequest::whole(TokenTypes::STATUS_READ) },
        );
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result()? {
            Response::Status { status, tokens, stamp, stale_us, .. } => {
                if stale_us > 0 {
                    // Replica-served while the primary is down: report
                    // the bounded-stale status without absorbing it —
                    // the replica's stamp must not poison the vnode's
                    // stamp ordering for when the primary returns.
                    self.stats.lock().stale_reads += 1;
                    return Ok(status);
                }
                self.absorb(&vn, &mut lo, Some((status.clone(), stamp)), tokens);
                Ok(lo.status.clone().unwrap_or(status))
            }
            _ => Err(DfsError::Internal("bad FetchStatus response")),
        }
    }

    /// Changes attributes (truncation goes to the server).
    pub fn setattr(&self, fid: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        // Push dirty data first so truncation happens after our writes.
        self.store_back(&vn, None)?;
        let mut lo = vn.lo.lock();
        lo.in_flight += 1;
        drop(lo);
        let resp =
            self.file_rpc(fid.volume, Request::StoreStatus { fid, attrs: attrs.clone() });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result()? {
            Response::Status { status, tokens, stamp, .. } => {
                if let Some(len) = attrs.length {
                    // Truncation invalidates cached pages past the end.
                    let keep = len.div_ceil(PAGE_SIZE as u64);
                    let dropped: Vec<u64> =
                        lo.valid.iter().copied().filter(|p| *p >= keep).collect();
                    for p in dropped {
                        lo.valid.remove(&p);
                        self.note_clean(&mut lo, p);
                        self.data.drop_page(fid, p);
                    }
                }
                self.absorb(&vn, &mut lo, Some((status.clone(), stamp)), tokens);
                Ok(lo.status.clone().unwrap_or(status))
            }
            _ => Err(DfsError::Internal("bad StoreStatus response")),
        }
    }

    /// Reads a file's ACL.
    pub fn get_acl(&self, fid: Fid) -> DfsResult<Acl> {
        match self.file_rpc(fid.volume, Request::GetAcl { fid })?.into_result()? {
            Response::AclIs(a) => Ok(a),
            _ => Err(DfsError::Internal("bad GetAcl response")),
        }
    }

    /// Replaces a file's ACL.
    pub fn set_acl(&self, fid: Fid, acl: &Acl) -> DfsResult<()> {
        self.file_rpc(fid.volume, Request::SetAcl { fid, acl: acl.clone() })?
            .into_result()?;
        Ok(())
    }

    /// Opens the file in `mode`, obtaining the matching open token.
    pub fn open(&self, fid: Fid, mode: OpenMode) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        let tok = mode.token();
        if !lo.has_types(tok) {
            lo.in_flight += 1;
            drop(lo);
            let resp = self.file_rpc(
                fid.volume,
                Request::GetToken {
                    fid,
                    want: TokenRequest { types: tok, range: ByteRange::WHOLE },
                },
            );
            lo = vn.lo.lock();
            lo.in_flight -= 1;
            match resp?.into_result()? {
                Response::Status { status, tokens, stamp, .. } => {
                    self.absorb(&vn, &mut lo, Some((status, stamp)), tokens);
                }
                _ => return Err(DfsError::Internal("bad GetToken response")),
            }
        }
        lo.opens.push(tok);
        Ok(())
    }

    /// Closes one open handle, storing dirty data back (AFS-compatible
    /// behaviour; with tokens this is not required for consistency).
    pub fn close(&self, fid: Fid, mode: OpenMode) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let tok = mode.token();
        {
            let mut lo = vn.lo.lock();
            if let Some(i) = lo.opens.iter().position(|t| *t == tok) {
                lo.opens.remove(i);
            }
        }
        self.store_back(&vn, None)
    }

    /// Sets a byte-range lock, locally when a lock token is held (§5.2).
    pub fn lock(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        let needed = if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
        if lo.find_token(needed, &range).is_some() {
            // Local conflict check among our own lockers.
            if lo.locks.iter().any(|l| l.range.overlaps(&range) && (l.write || write)) {
                return Err(DfsError::LockConflict);
            }
            lo.locks.push(HeldLock { range, write, local: true });
            return Ok(());
        }
        lo.in_flight += 1;
        drop(lo);
        let resp = self.file_rpc(fid.volume, Request::SetLock { fid, range, write });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        resp?.into_result()?;
        lo.locks.push(HeldLock { range, write, local: false });
        Ok(())
    }

    /// Tries to obtain a lock *token* so subsequent locks are local.
    pub fn acquire_lock_token(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let types = if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        lo.in_flight += 1;
        drop(lo);
        let resp = self
            .file_rpc(fid.volume, Request::GetToken { fid, want: TokenRequest { types, range } });
        let mut lo = vn.lo.lock();
        lo.in_flight -= 1;
        match resp?.into_result()? {
            Response::Status { status, tokens, stamp, .. } => {
                self.absorb(&vn, &mut lo, Some((status, stamp)), tokens);
                Ok(())
            }
            _ => Err(DfsError::Internal("bad GetToken response")),
        }
    }

    /// Releases a byte-range lock.
    pub fn unlock(&self, fid: Fid, range: ByteRange) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lo.lock();
        let mut was_remote = false;
        lo.locks.retain(|l| {
            if l.range.overlaps(&range) {
                was_remote |= !l.local;
                false
            } else {
                true
            }
        });
        if was_remote {
            lo.in_flight += 1;
            drop(lo);
            let resp = self.file_rpc(fid.volume, Request::ReleaseLock { fid, range });
            let mut lo2 = vn.lo.lock();
            lo2.in_flight -= 1;
            resp?.into_result()?;
        }
        Ok(())
    }

    /// Returns tokens currently held on a fid (diagnostics/tests).
    pub fn held_tokens(&self, fid: Fid) -> Vec<Token> {
        self.vnode(fid).lo.lock().tokens.clone()
    }

    /// Returns the number of dirty (unstored) pages for a fid.
    pub fn dirty_pages(&self, fid: Fid) -> usize {
        self.vnode(fid).lo.lock().dirty.len()
    }

    /// Client-wide count of dirty (unstored) pages, O(1).
    pub fn total_dirty_pages(&self) -> u64 {
        self.dirty_total.load(Ordering::Relaxed)
    }

}

impl CacheManager {
    /// Handles one incoming revocation — shared by the single-token
    /// `RevokeToken` arm and the batched `RevokeVec` fan-out. Returns
    /// whether the token was returned.
    fn handle_revocation(&self, token: Token, types: TokenTypes, stamp: SerializationStamp) -> bool {
        self.stats.lock().revocations += 1;
        let vn = {
            let vnodes = self.vnodes.lock();
            vnodes.get(&token.fid).cloned()
        };
        let Some(vn) = vn else {
            return true;
        };
        // Revocations take ONLY the low-level lock (§6.1): the
        // high-level lock may be held by one of our own
        // operations blocked on this very server.
        let mut lo = vn.lo.lock();
        let known = lo.tokens.iter().any(|t| t.id == token.id);
        if !known {
            if lo.in_flight > 0 {
                // §6.3: the call that returns this token is still
                // in flight; queue the revocation for processing
                // when the reply arrives.
                lo.queued.push((token, types, stamp));
                self.stats.lock().queued_revocations += 1;
            }
            return true;
        }
        self.apply_revocation(&vn, &mut lo, &token, types, stamp)
    }
}

impl RpcService for CacheManager {
    fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
        match req {
            Request::RevokeToken { token, types, stamp } => {
                let returned = self.handle_revocation(token, types, stamp);
                Response::RevokeAck { returned }
            }
            Request::RevokeVec { items } => {
                // Fan a batched revocation out to the per-fid handler;
                // the single ack answers every item, in order. Each
                // item takes (and releases) its own vnode's lo lock —
                // a batch may span many files.
                let returned = items
                    .into_iter()
                    .map(|(token, types, stamp)| self.handle_revocation(token, types, stamp))
                    .collect();
                Response::RevokeVecAck { returned }
            }
            Request::Ping => Response::Ok,
            _ => Response::Err(DfsError::InvalidArgument),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_token::TokenId;
    use dfs_types::{VnodeId, VolumeId};

    fn tok(id: u64, types: TokenTypes, range: ByteRange) -> Token {
        Token {
            id: TokenId(id),
            fid: Fid::new(VolumeId(1), VnodeId(1), 1),
            types,
            range,
        }
    }

    #[test]
    fn coverage_union_of_tokens() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::DATA_READ, ByteRange::new(0, 100)));
        st.tokens.push(tok(2, TokenTypes::DATA_READ, ByteRange::new(100, 200)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(0, 200)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(50, 150)));
        assert!(!st.covered(TokenTypes::DATA_READ, &ByteRange::new(150, 250)));
        assert!(!st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(0, 10)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(5, 5)), "empty range");
    }

    #[test]
    fn coverage_with_gap_fails() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::DATA_WRITE, ByteRange::new(0, 100)));
        st.tokens.push(tok(2, TokenTypes::DATA_WRITE, ByteRange::new(150, 300)));
        assert!(!st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(0, 300)));
        assert!(st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(160, 290)));
    }

    #[test]
    fn merge_status_is_monotone_in_stamps() {
        let mut st = VnState::default();
        let s5 = FileStatus { length: 5, ..Default::default() };
        assert!(st.merge_status(s5, SerializationStamp(5)));
        let s3 = FileStatus { length: 3, ..Default::default() };
        assert!(!st.merge_status(s3, SerializationStamp(3)), "older stamp rejected (§6.3)");
        assert_eq!(st.status.as_ref().unwrap().length, 5);
        let s9 = FileStatus { length: 9, ..Default::default() };
        assert!(st.merge_status(s9, SerializationStamp(9)));
        assert_eq!(st.status.as_ref().unwrap().length, 9);
        assert_eq!(st.stamp, SerializationStamp(9));
    }

    #[test]
    fn status_trust_requires_token() {
        let mut st = VnState::default();
        st.merge_status(FileStatus::default(), SerializationStamp(1));
        assert!(!st.status_trusted(), "status without a token is untrusted");
        st.tokens.push(tok(1, TokenTypes::STATUS_READ, ByteRange::WHOLE));
        assert!(st.status_trusted());
        assert!(!st.dir_trusted(), "dir trust needs data+status read");
        st.tokens.push(tok(2, TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0), ByteRange::WHOLE));
        assert!(st.dir_trusted());
    }

    #[test]
    fn location_cache_order_survives_invalidate_reinstall_cycles() {
        use crate::cache::MemCache;
        use dfs_types::{ClientId, ServerId, SimClock};

        let net = Network::new(SimClock::new(), 0);
        let cm = CacheManager::start(net, ClientId(1), Vec::new(), Arc::new(MemCache::new()));
        // A crash-failover or stale-hint loop invalidates and reinstalls
        // the same volume over and over; the eviction queue must not
        // accumulate a duplicate per cycle.
        for _ in 0..10 * LOCATION_CACHE_CAP {
            cm.loc_install(VolumeId(7), ServerId(1), 1);
            cm.loc_invalidate(VolumeId(7));
        }
        cm.loc_install(VolumeId(7), ServerId(1), 1);
        {
            let loc = cm.locations.lock();
            assert_eq!(loc.map.len(), 1);
            assert_eq!(loc.order.len(), 1, "one queue entry per cached volume");
        }
        // Fill to the cap: the churned volume must not be evicted by a
        // stale duplicate while fresher entries survive.
        for v in 100..100 + LOCATION_CACHE_CAP as u64 - 1 {
            cm.loc_install(VolumeId(v), ServerId(1), 1);
        }
        let loc = cm.locations.lock();
        assert!(loc.map.len() <= LOCATION_CACHE_CAP);
        assert!(loc.map.contains_key(&VolumeId(7)), "no stale dup got it evicted early");
        drop(loc);
        let _ = cm.shutdown();
    }

    #[test]
    fn queued_revocation_survives_unrelated_absorb_while_reply_in_flight() {
        use crate::cache::MemCache;
        use dfs_types::{ClientId, SimClock};

        let net = Network::new(SimClock::new(), 0);
        let cm = CacheManager::start(net, ClientId(1), Vec::new(), Arc::new(MemCache::new()));
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let vn = cm.vnode(fid);
        let t = tok(
            42,
            TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
            ByteRange::WHOLE,
        );

        // A revocation arrives for a token whose granting reply is still
        // in flight (§6.3): it parks in the queue. Two RPCs are out —
        // say a FetchData and a flusher store-back.
        {
            let mut lo = vn.lo.lock();
            lo.in_flight = 2;
            lo.queued.push((t.clone(), t.types, SerializationStamp(7)));
        }
        // The unrelated reply (no tokens) merges first: the queued
        // revocation must survive this drain — its token is airborne.
        {
            let mut lo = vn.lo.lock();
            lo.in_flight -= 1;
            cm.absorb(&vn, &mut lo, None, Vec::new());
            assert_eq!(lo.queued.len(), 1, "revocation of an in-flight token must stay queued");
        }
        // The granting reply lands: the token installs and the parked
        // revocation strips it in the same merge.
        {
            let mut lo = vn.lo.lock();
            lo.in_flight -= 1;
            cm.absorb(&vn, &mut lo, None, vec![t.clone()]);
            assert!(lo.queued.is_empty());
            assert!(lo.tokens.is_empty(), "token must not survive its queued revocation");
        }
        // A revocation whose token never arrives is dropped once nothing
        // is in flight any more (returned voluntarily — genuinely moot).
        {
            let mut lo = vn.lo.lock();
            lo.queued.push((
                tok(43, TokenTypes::DATA_READ, ByteRange::WHOLE),
                TokenTypes::DATA_READ,
                SerializationStamp(9),
            ));
            cm.absorb(&vn, &mut lo, None, Vec::new());
            assert!(lo.queued.is_empty(), "moot revocation dropped when nothing is in flight");
        }
        let _ = cm.shutdown();
    }

    #[test]
    fn open_mode_token_mapping() {
        assert_eq!(OpenMode::Read.token(), TokenTypes::OPEN_READ);
        assert_eq!(OpenMode::Write.token(), TokenTypes::OPEN_WRITE);
        assert_eq!(OpenMode::Execute.token(), TokenTypes::OPEN_EXECUTE);
        assert_eq!(OpenMode::SharedRead.token(), TokenTypes::OPEN_SHARED_READ);
        assert_eq!(OpenMode::ExclusiveWrite.token(), TokenTypes::OPEN_EXCLUSIVE_WRITE);
    }

    #[test]
    fn find_token_requires_full_containment() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::LOCK_WRITE, ByteRange::new(10, 20)));
        assert!(st.find_token(TokenTypes::LOCK_WRITE, &ByteRange::new(12, 18)).is_some());
        assert!(st.find_token(TokenTypes::LOCK_WRITE, &ByteRange::new(5, 18)).is_none());
        assert!(st.find_token(TokenTypes::LOCK_READ, &ByteRange::new(12, 18)).is_none());
        assert!(st.has_types(TokenTypes::LOCK_WRITE));
        assert!(!st.has_types(TokenTypes::OPEN_READ));
    }
}
