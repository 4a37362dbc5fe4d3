//! The DEcorum file server: protocol exporter and related servers (§3).
//!
//! A [`FileServer`] assembles, per the paper's Figure 1:
//!
//! * the **token manager** (§3.1) from [`dfs_token`];
//! * the **host model** (§3.2) — per-client state and revocation
//!   delivery tracking;
//! * the **vnode glue layer** (§3.3) — local access that synchronizes
//!   with remote guarantees, usable over *any* [`dfs_vfs::PhysicalFs`]
//!   (Episode or the FFS baseline: the interoperability goal of §1);
//! * the **volume registry** (local) and the replicated **VLDB** (§3.4);
//! * the **server procedures** (§3.5) — the RPC dispatch;
//! * the **volume server** (§3.6) — on-line volume motion;
//! * the **replication server** (§3.8) — lazy, bounded-staleness
//!   replicas driven by whole-volume tokens and incremental dumps.
//!
//! Authentication (§3.7) is enforced by the RPC substrate against the
//! shared Kerberos-style registry.

pub mod glue;
pub mod hosts;
pub mod locks;
pub mod vldb;

pub use glue::{Glue, LocalHost};
pub use hosts::{HostModel, HostRecord, RemoteHost, DEFAULT_LEASE_US};
pub use locks::LockTable;
pub use vldb::{VldbHandle, VldbReplica};

use dfs_journal::{HostLog, HostLogReplay};
use dfs_rpc::{
    Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService,
    TokenRequest,
};
use dfs_token::{Token, TokenManager, TokenTypes};
use dfs_types::{
    ByteRange, ClientId, DfsError, DfsResult, Fid, HostId, ServerId, Timestamp, VnodeId,
    VolumeId,
};
use dfs_vfs::{Credentials, PhysicalFs, VfsPlus, WriteExtent};
use dfs_types::lock::{rank, OrderedMutex};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Read tokens a client wants to cache directory contents.
pub const DIR_READ: TokenTypes = TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0);
/// Write tokens the server takes while mutating a directory.
pub const DIR_WRITE: TokenTypes =
    TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0);

/// Most extents a single `StoreDataVec` may carry.
pub const MAX_STORE_EXTENTS: usize = 64;
/// Most payload bytes a single `StoreDataVec` may carry (8 MiB).
pub const MAX_STORE_BYTES: usize = 8 << 20;

/// Server operation statistics.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// File RPCs served.
    pub ops: u64,
    /// Calls refused because the volume was being moved.
    pub busy_rejections: u64,
    /// Calls refused because the post-restart grace window was open and
    /// the caller had not reestablished yet.
    pub grace_rejections: u64,
    /// Volume moves completed.
    pub moves: u64,
    /// Replica refresh passes that shipped data.
    pub replica_refreshes: u64,
    /// Calls for volumes not hosted here answered with `WrongServer`.
    pub wrong_server_redirects: u64,
    /// Calls for volumes not hosted here forwarded to the owner.
    pub forwards: u64,
    /// File RPCs served, by volume — the fleet load monitor's signal
    /// for picking the hottest volume when rebalancing.
    pub volume_ops: HashMap<VolumeId, u64>,
}

impl ServerStats {
    /// Adds `other`'s counters into `self` (`volume_ops` merged per
    /// key) — fleet-wide aggregation for the scenario driver.
    pub fn merge(&mut self, other: &ServerStats) {
        self.ops += other.ops;
        self.busy_rejections += other.busy_rejections;
        self.grace_rejections += other.grace_rejections;
        self.moves += other.moves;
        self.replica_refreshes += other.replica_refreshes;
        self.wrong_server_redirects += other.wrong_server_redirects;
        self.forwards += other.forwards;
        for (vol, n) in &other.volume_ops {
            *self.volume_ops.entry(*vol).or_default() += n;
        }
    }
}

struct ReplJob {
    volume: VolumeId,
    source: ServerId,
    max_staleness_us: u64,
    last_refresh: Timestamp,
    base_version: u64,
    dirty: bool,
}

/// Post-restart recovery state: while the grace window is open, only
/// hosts known to the previous instance may do file work, and only
/// after checking in via `ReestablishTokens` (Lustre-style recovery).
#[derive(Default)]
struct RecoveryState {
    /// Simulated-time deadline of the grace window; `None` = no grace
    /// window (normal operation).
    grace_until: Option<Timestamp>,
    /// Clients the previous instance knew about — the hosts allowed
    /// (and expected) to reestablish.
    expected: HashSet<ClientId>,
    /// Hosts that have checked in under the current epoch.
    checked_in: HashSet<ClientId>,
}

/// A DEcorum file server node.
pub struct FileServer {
    id: ServerId,
    addr: Addr,
    net: Network,
    physical: Arc<dyn PhysicalFs>,
    tm: Arc<TokenManager>,
    local_host: Arc<LocalHost>,
    hosts: Arc<HostModel>,
    locks: LockTable,
    vldb: VldbHandle,
    /// Restart epoch: 1 for a freshly started server, +1 per restart.
    /// Stamped into every `Status`/`Data` response so clients detect a
    /// crash-restart from ordinary traffic.
    epoch: u64,
    mounts: OrderedMutex<HashMap<VolumeId, Arc<dyn VfsPlus>>, { rank::VOLUME_REGISTRY }>,
    busy: OrderedMutex<HashSet<VolumeId>, { rank::VOLUME_REGISTRY }>,
    /// Volumes this server hosts (authoritative membership; a request
    /// for any other volume is redirected or forwarded, never mounted).
    hosted: OrderedMutex<HashSet<VolumeId>, { rank::VOLUME_REGISTRY }>,
    /// Volumes restored by an in-progress move but not yet handed over:
    /// the VLDB still names the source, so requests here keep being
    /// redirected until `VolInstallTokens` promotes the copy to
    /// `hosted` (a stale client hint must never read — let alone write
    /// — the phase-1 snapshot). `VolDiscard` empties this on a failed
    /// move.
    staged: OrderedMutex<HashSet<VolumeId>, { rank::VOLUME_REGISTRY }>,
    /// File RPCs currently executing, per volume — drained by a move's
    /// blackout phase so the delta dump sees no in-flight mutation.
    inflight: OrderedMutex<HashMap<VolumeId, u64>, { rank::VOLUME_REGISTRY }>,
    /// Where volumes this server moved away now live: the hint answered
    /// in `WrongServer` without a VLDB round trip (§2.1).
    routes: OrderedMutex<HashMap<VolumeId, (ServerId, u64)>, { rank::SERVER_ROUTES }>,
    repl: OrderedMutex<Vec<ReplJob>, { rank::VOLUME_REGISTRY }>,
    known_hosts: OrderedMutex<HashSet<HostId>, { rank::SERVER_HOSTS }>,
    recovery: OrderedMutex<RecoveryState, { rank::SERVER_HOSTS }>,
    /// Durable host/lease journal (the Episode aggregate's host-log
    /// ring). When present, the server records which clients hold
    /// tokens and when they were last heard from, so a restart can
    /// rebuild its expected-host set from disk even if the previous
    /// instance's memory is gone with the machine. `None` for physical
    /// file systems without a host-log region (the FFS baseline).
    host_log: Option<Arc<HostLog>>,
    stats: OrderedMutex<ServerStats, { rank::STATS }>,
}

impl FileServer {
    /// Builds a server over `physical`, binds it at `Server(id)`, and
    /// registers its existing volumes in the VLDB. The server starts at
    /// epoch 1 with no recovery grace window.
    pub fn start(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
    ) -> DfsResult<Arc<FileServer>> {
        Self::start_instance(
            net,
            id,
            physical,
            None,
            vldb_replicas,
            pool,
            1,
            RecoveryState::default(),
        )
    }

    /// Like [`FileServer::start`], but with a durable host journal: the
    /// server records token-holder/lease facts into `host_log` as it
    /// runs, so a later [`FileServer::restart`] can rebuild recovery
    /// state from disk alone.
    pub fn start_journaled(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
    ) -> DfsResult<Arc<FileServer>> {
        Self::start_instance(
            net,
            id,
            physical,
            host_log,
            vldb_replicas,
            pool,
            1,
            RecoveryState::default(),
        )
    }

    /// Restarts a server after a crash, on the same (journal-recovered)
    /// `physical`. Recovery state comes from the *durable* host journal
    /// replay, never from the dying instance's memory: the previous
    /// epoch is the highest epoch ever journaled, and the expected-host
    /// set is every journaled client that held tokens and was still
    /// inside its lease — so recovery survives losing the whole machine,
    /// not just the process. The new instance runs at `prev_epoch + 1`
    /// and opens a `grace_us`-long recovery window during which the
    /// expected hosts may reestablish their tokens. Grace ends early
    /// once every still-lease-live expected host has checked in;
    /// lease-expired hosts never pin the window.
    ///
    /// Binding the address replaces the crashed node on the network, so
    /// the restarted server is immediately reachable.
    #[allow(clippy::too_many_arguments)] // A restart is a whole-machine rebuild; the args are the machine.
    pub fn restart(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        replay: &HostLogReplay,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
        grace_us: u64,
    ) -> DfsResult<Arc<FileServer>> {
        let now = net.clock().now();
        // Wait only for hosts that actually held tokens at their last
        // journaling and are still lease-live: a caller with nothing to
        // reestablish (or one long dead) must not pin the grace window.
        let expected: HashSet<ClientId> = replay
            .hosts
            .iter()
            .filter(|(_, (seen, holding))| {
                *holding && now.0.saturating_sub(*seen) <= DEFAULT_LEASE_US
            })
            .map(|(c, _)| ClientId(*c))
            .collect();
        let recovery = RecoveryState {
            grace_until: Some(Timestamp(now.0 + grace_us)),
            expected,
            checked_in: HashSet::new(),
        };
        // A replay that never saw a `ServerEpoch` (pre-host-log
        // aggregate) still restarts above the floor epoch of 1.
        let prev_epoch = replay.epoch.max(1);
        let srv = Self::start_instance(
            net,
            id,
            physical,
            host_log,
            vldb_replicas,
            pool,
            prev_epoch + 1,
            recovery,
        )?;
        // Seed the host model with journaled last-seen times so lease
        // expiry applies to hosts that never come back.
        for (c, (last_seen, _)) in &replay.hosts {
            srv.hosts.seed(ClientId(*c), Timestamp(*last_seen));
        }
        Ok(srv)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_instance(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
        epoch: u64,
        recovery: RecoveryState,
    ) -> DfsResult<Arc<FileServer>> {
        let addr = Addr::Server(id);
        let vldb = VldbHandle::new(net.clone(), addr, vldb_replicas);
        let srv = Arc::new(FileServer {
            id,
            addr,
            net: net.clone(),
            physical,
            tm: Arc::new(TokenManager::new()),
            local_host: LocalHost::new(HostId::Local(id.0)),
            hosts: Arc::new(HostModel::new()),
            locks: LockTable::new(),
            vldb,
            epoch,
            mounts: OrderedMutex::new(HashMap::new()),
            busy: OrderedMutex::new(HashSet::new()),
            hosted: OrderedMutex::new(HashSet::new()),
            staged: OrderedMutex::new(HashSet::new()),
            inflight: OrderedMutex::new(HashMap::new()),
            routes: OrderedMutex::new(HashMap::new()),
            repl: OrderedMutex::new(Vec::new()),
            known_hosts: OrderedMutex::new(HashSet::new()),
            recovery: OrderedMutex::new(recovery),
            host_log: host_log.clone(),
            stats: OrderedMutex::new(ServerStats::default()),
        });
        // Journal this instance's epoch before serving anything: a
        // crash from here on must restart at `epoch + 1` even if no
        // other host fact was ever recorded.
        if let Some(hl) = &host_log {
            hl.record_epoch(epoch)?;
        }
        srv.tm.register_host(srv.local_host.clone());
        for vol in srv.physical.list_volumes()? {
            srv.hosted.lock().insert(vol.id);
            srv.vldb.register(vol.id, id)?;
        }
        net.register(addr, srv.clone(), pool);
        Ok(srv)
    }

    /// Unbinds this server from the network (graceful shutdown; the
    /// physical file system stays with its owner for a later restart).
    pub fn stop(&self) {
        self.net.unregister(self.addr);
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// This instance's restart epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while the post-restart grace window is open.
    pub fn in_grace(&self) -> bool {
        let now = self.net.clock().now();
        let mut rec = self.recovery.lock();
        self.grace_open(&mut rec, now)
    }

    /// Checks (and lazily closes) the grace window. Grace ends at the
    /// deadline or as soon as every expected host that is still inside
    /// its lease has checked in — dead clients don't pin the window.
    fn grace_open(
        &self,
        rec: &mut RecoveryState,
        now: Timestamp,
    ) -> bool {
        let Some(until) = rec.grace_until else { return false };
        let all_in = rec
            .expected
            .iter()
            .all(|c| rec.checked_in.contains(c) || !self.hosts.lease_live(*c, now));
        if now >= until || all_in {
            rec.grace_until = None;
            return false;
        }
        true
    }

    /// The token manager (diagnostics and tests).
    pub fn token_manager(&self) -> &Arc<TokenManager> {
        &self.tm
    }

    /// The host model (diagnostics).
    pub fn host_model(&self) -> &Arc<HostModel> {
        &self.hosts
    }

    /// Operation statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.lock().clone()
    }

    /// Returns a glue-wrapped VFS for *local* access to a volume on this
    /// server — the path a local user's system calls take (Figure 1).
    ///
    /// Local operations acquire tokens exactly like remote clients, so
    /// they synchronize correctly with exported guarantees (§5.1, §5.5).
    pub fn local_volume(&self, vol: VolumeId) -> DfsResult<Arc<Glue>> {
        let fs = self.mount(vol)?;
        Ok(Arc::new(Glue::new(fs, self.tm.clone(), self.local_host.clone())))
    }

    fn mount(&self, vol: VolumeId) -> DfsResult<Arc<dyn VfsPlus>> {
        // Busy-volume gating happens in `dispatch` (so revocation-class
        // store-backs can land while a move is quiescing the volume).
        let mut mounts = self.mounts.lock();
        if let Some(v) = mounts.get(&vol) {
            return Ok(v.clone());
        }
        let mounted = self.physical.mount(vol)?;
        mounts.insert(vol, mounted.clone());
        Ok(mounted)
    }

    fn unmount(&self, vol: VolumeId) {
        self.mounts.lock().remove(&vol);
    }

    /// Maps the RPC caller to a token-manager host, registering the
    /// remote proxy on first contact (§5.1 host registration).
    fn host_for(&self, caller: Addr) -> DfsResult<HostId> {
        let host = match caller {
            Addr::Client(c) => HostId::Client(c),
            Addr::Server(s) => HostId::Replicator(s.0),
            _ => return Err(DfsError::InvalidArgument),
        };
        let mut known = self.known_hosts.lock();
        if known.insert(host) {
            match caller {
                Addr::Client(c) => self.tm.register_host(RemoteHost::client(
                    self.net.clone(),
                    self.addr,
                    c,
                    self.hosts.clone(),
                )),
                Addr::Server(s) => self.tm.register_host(RemoteHost::replicator(
                    self.net.clone(),
                    self.addr,
                    s,
                    self.hosts.clone(),
                )),
                _ => unreachable!(),
            }
        }
        Ok(host)
    }

    /// Builds credentials from the authenticated principal.
    fn cred_for(&self, ctx: &CallContext) -> Credentials {
        match ctx.principal {
            Some(user) => {
                Credentials { user, groups: self.net.auth().groups_of(user) }
            }
            // Unauthenticated calls run as the system principal; cells
            // that care configure `require_auth` on the node.
            None => Credentials::system(),
        }
    }

    /// Durable lease refresh: re-journal `client`'s last-seen time (and
    /// current token-holder status) once the on-disk fact has gone stale
    /// by a quarter of the lease. Coarse on purpose — one synchronous
    /// ring write per client per lease/4, not per RPC — and always an
    /// over-approximation in between: a restart reading a slightly old
    /// `last_seen` only shortens how long a dead client is waited for,
    /// never forgets a live one (the client's reestablishment doesn't
    /// depend on the journal being fresh).
    fn journal_lease_refresh(&self, client: ClientId, now: Timestamp) {
        let Some(hl) = &self.host_log else { return };
        let quarter = self.hosts.lease_us() / 4;
        let stale = hl
            .lease_of(client.0)
            .is_none_or(|(seen, _)| now.0.saturating_sub(seen) >= quarter);
        if stale {
            let holding = self.tm.token_holders().contains(&client);
            let _ = hl.record_lease(client.0, now.0, holding);
        }
    }

    /// Durably marks `host` as a token holder the moment it first keeps
    /// a grant. Eager (unlike the lease refresh) because this is the
    /// fact a restart's grace window is built from: a client that
    /// crashed the server one RPC after taking its first write token
    /// must already be in the journal. The holding flag is only cleared
    /// by a later lease refresh observing no tokens — over-inclusion
    /// merely extends grace, which is safe.
    fn journal_holding(&self, host: HostId) {
        let HostId::Client(c) = host else { return };
        let Some(hl) = &self.host_log else { return };
        if hl.lease_of(c.0).map(|(_, h)| h) != Some(true) {
            let _ = hl.record_lease(c.0, self.net.clock().now().0, true);
        }
    }

    /// Grants `base ∪ want` to `host` on `fid`, runs `f`, and either
    /// hands the token to the caller (if `want` was given) or releases
    /// it. Returns `f`'s result, the tokens to ship, and the stamp.
    fn with_grant<R>(
        &self,
        host: HostId,
        fid: Fid,
        base: TokenTypes,
        range: ByteRange,
        want: Option<TokenRequest>,
        f: impl FnOnce() -> DfsResult<R>,
    ) -> DfsResult<(R, Vec<Token>, dfs_types::SerializationStamp)> {
        let (types, range) = match &want {
            Some(w) => (base.union(w.types), range.union_hull(&w.range)),
            None => (base, range),
        };
        let (token, stamp) = self.tm.grant(host, fid, types, range)?;
        let result = f();
        let keep = want.is_some() && result.is_ok();
        if !keep {
            self.tm.release(host, token.fid, token.id);
        } else {
            self.journal_holding(host);
        }
        match result {
            Ok(r) => Ok((r, if keep { vec![token] } else { Vec::new() }, stamp)),
            Err(e) => Err(e),
        }
    }

    fn volume_of(&self, fid: Fid) -> DfsResult<Arc<dyn VfsPlus>> {
        self.mount(fid.volume)
    }

    /// Applies a store-back batch through `Vfs::write_vec`: one journal
    /// transaction, one group commit, durable on return. Shared by
    /// `StoreData` (single extent) and `StoreDataVec`.
    fn store_extents(
        &self,
        ctx: &CallContext,
        cred: &Credentials,
        fid: Fid,
        extents: Vec<WriteExtent>,
    ) -> DfsResult<Response> {
        let host = self.host_for(ctx.caller)?;
        let fs = self.volume_of(fid)?;
        // Stores issued from token-revocation code (§6.3) run without
        // further token acquisition: the storing client holds the write
        // token being revoked, and granting here could nest revocation
        // chains past any pool bound.
        if ctx.class == CallClass::Revocation {
            let status = fs.write_vec(cred, fid, &extents)?;
            let stamp = self.tm.stamp(fid);
            return Ok(Response::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 });
        }
        // One grant covering the hull of all extents.
        let mut range = ByteRange::at(extents[0].offset, extents[0].data.len() as u64);
        for e in &extents[1..] {
            range = range.union_hull(&ByteRange::at(e.offset, e.data.len() as u64));
        }
        let (status, _tokens, stamp) = self.with_grant(
            host,
            fid,
            TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0),
            range,
            None,
            || fs.write_vec(cred, fid, &extents),
        )?;
        Ok(Response::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 })
    }

    // ------------------------------------------------------------------
    // Volume motion (§3.6) and replication (§3.8)
    // ------------------------------------------------------------------

    /// Pulls back every outstanding guarantee on a volume: dirty data
    /// and status at clients are stored back before this returns.
    fn quiesce_volume(&self, volume: VolumeId) -> DfsResult<()> {
        let vol_fid = Fid::new(volume, VnodeId(0), 0);
        let (t, _) =
            self.tm.grant(HostId::Local(self.id.0), vol_fid, DIR_WRITE, ByteRange::WHOLE)?;
        self.tm.release(HostId::Local(self.id.0), t.fid, t.id);
        Ok(())
    }

    /// Pulls back only the *write* guarantees on a volume: dirty data
    /// and status at clients are stored back, but read, lock, and open
    /// tokens survive — with their ids intact — so a live move can ship
    /// them to the target instead of revoking the world.
    fn quiesce_writes(&self, volume: VolumeId) -> DfsResult<()> {
        let vol_fid = Fid::new(volume, VnodeId(0), 0);
        let (t, _) =
            self.tm.grant(HostId::Local(self.id.0), vol_fid, DIR_READ, ByteRange::WHOLE)?;
        self.tm.release(HostId::Local(self.id.0), t.fid, t.id);
        Ok(())
    }

    /// Drops one in-flight count for `volume` (entries vanish at zero so
    /// the map only holds active volumes).
    fn inflight_dec(&self, volume: VolumeId) {
        let mut inflight = self.inflight.lock();
        if let Some(n) = inflight.get_mut(&volume) {
            *n -= 1;
            if *n == 0 {
                inflight.remove(&volume);
            }
        }
    }

    /// Waits for file RPCs already past the busy gate to finish, so a
    /// move's delta dump sees no in-flight mutation.
    fn drain_inflight(&self, volume: VolumeId) {
        loop {
            let n = self.inflight.lock().get(&volume).copied().unwrap_or(0);
            if n == 0 {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Moves a volume to `target` **live** (§2.1: applications "are
    /// blocked for a short time" — only for the delta, not the bulk).
    ///
    /// Phase 1, volume fully available: store dirty client data back,
    /// clone-ship a consistent full snapshot to the target, and note
    /// its high-water data version. Writes keep landing here; anything
    /// newer than the snapshot travels in the phase-2 delta.
    ///
    /// Phase 2, short blackout: mark the volume busy (new file calls
    /// bounce with retryable `VolumeBusy`), pull back just the write
    /// guarantees (read/lock/open tokens survive), wait out calls that
    /// had already passed the busy gate, ship the delta dump, install
    /// the surviving client tokens at the target with ids preserved,
    /// flip the VLDB entry (generation bump), and note the new owner in
    /// the route table so this server answers `WrongServer` cheaply.
    fn move_volume(&self, volume: VolumeId, target: ServerId) -> DfsResult<()> {
        if target == self.id {
            return Err(DfsError::InvalidArgument);
        }
        if !self.hosted.lock().contains(&volume) {
            return Err(DfsError::NoSuchVolume);
        }
        // Phase 1: live bulk ship.
        self.quiesce_writes(volume)?;
        let full = self.physical.dump_volume(volume, 0)?;
        let base = full.max_data_version;
        if let Err(e) = self
            .net
            .call(
                self.addr,
                Addr::Server(target),
                None,
                CallClass::Normal,
                Request::VolRestore { dump: full, read_only: false },
            )
            .and_then(Response::into_result)
        {
            // A timed-out ship may still have landed; make sure no
            // staged copy survives the aborted move (best effort).
            let _ = self.net.call(
                self.addr,
                Addr::Server(target),
                None,
                CallClass::Normal,
                Request::VolDiscard { volume },
            );
            return Err(e);
        }

        // Phase 2: blackout.
        self.busy.lock().insert(volume);
        let result = (|| {
            self.quiesce_writes(volume)?;
            self.drain_inflight(volume);
            let mut delta = self.physical.dump_volume(volume, base)?;
            // A `base` of 0 (volume never written) dumps everything with
            // `since_version == 0`, which the restorer reads as "create
            // from scratch" — but the target already holds the phase-1
            // copy. Mark the dump incremental; applying every file over
            // the identical copy is harmless.
            delta.since_version = delta.since_version.max(1);
            self.net
                .call(
                    self.addr,
                    Addr::Server(target),
                    None,
                    CallClass::Normal,
                    Request::VolRestore { dump: delta, read_only: false },
                )?
                .into_result()?;
            // Ship the surviving guarantees: clients keep their cached
            // tokens across the move, and the target keeps stamping
            // above our serialization floors (§6.2).
            let (grants, stamps) = self.tm.export_volume(volume);
            let grants: Vec<(ClientId, Token)> = grants
                .into_iter()
                .filter_map(|(h, t)| match h {
                    HostId::Client(c) => Some((c, t)),
                    _ => None,
                })
                .collect();
            self.net
                .call(
                    self.addr,
                    Addr::Server(target),
                    None,
                    CallClass::Normal,
                    Request::VolInstallTokens { volume, grants, stamps },
                )?
                .into_result()?;
            // Flip ownership. Route note first, then drop from hosted:
            // the instant the routing gate starts redirecting, the hint
            // must already be there.
            self.vldb.register(volume, target)?;
            let generation = self.vldb.lookup_gen(volume).map(|(_, g)| g).unwrap_or(0);
            self.routes.lock().insert(volume, (target, generation));
            self.hosted.lock().remove(&volume);
            self.unmount(volume);
            self.physical.delete_volume(volume)?;
            self.tm.drop_volume(volume);
            Ok(())
        })();
        self.busy.lock().remove(&volume);
        if result.is_ok() {
            self.stats.lock().moves += 1;
        } else {
            // Phase 1 left a staged copy at the target; tell it to throw
            // the copy away so the fork cannot outlive the failed move
            // (best effort — an unreachable target discards nothing, but
            // its copy stays staged and is never served).
            let _ = self.net.call(
                self.addr,
                Addr::Server(target),
                None,
                CallClass::Normal,
                Request::VolDiscard { volume },
            );
        }
        result
    }

    /// Starts lazily replicating `volume` from `source` onto this
    /// server, with the given maximum staleness (§3.8).
    fn replica_add(&self, volume: VolumeId, source: ServerId, max_staleness_us: u64) -> DfsResult<()> {
        // Initial full fetch.
        let resp = self.net.call(
            self.addr,
            Addr::Server(source),
            None,
            CallClass::Normal,
            Request::VolDump { volume, since_version: 0 },
        )?;
        let dump = match resp.into_result()? {
            Response::Dump(d) => d,
            _ => return Err(DfsError::Internal("bad dump response")),
        };
        let base = dump.max_data_version;
        self.physical.restore_volume(&dump, true)?;
        self.unmount(volume);
        // The replica serves (read-only) copies of the volume itself —
        // it must not redirect readers back to the master.
        self.hosted.lock().insert(volume);
        // Whole-volume token: the guarantee that the replica may be used
        // until the master changes (§3.8).
        let _ = self.net.call(
            self.addr,
            Addr::Server(source),
            None,
            CallClass::Normal,
            Request::GetToken {
                fid: Fid::new(volume, VnodeId(0), 0),
                want: TokenRequest {
                    types: DIR_READ,
                    range: ByteRange::WHOLE,
                },
            },
        );
        self.repl.lock().push(ReplJob {
            volume,
            source,
            max_staleness_us,
            last_refresh: self.net.clock().now(),
            base_version: base,
            dirty: false,
        });
        // Advertise this replica in the VLDB so clients can find it
        // when the primary is down (§3.8 promotion). Best effort: a
        // replica that fails to advertise still serves direct readers.
        let _ = self.vldb.add_replica(volume, self.id);
        Ok(())
    }

    /// Stamps the replica staleness bound into a file response when the
    /// answering volume is a §3.8 replica: the age of its last refresh,
    /// clamped to ≥ 1 µs so even a just-refreshed replica is
    /// distinguishable from the primary (clients must not treat replica
    /// bytes as token-backed cacheable data). Primary-served volumes
    /// (no replication job) pass through with `stale_us` = 0.
    fn stamp_staleness(&self, volume: Option<VolumeId>, resp: Response) -> Response {
        let Some(v) = volume else { return resp };
        let age = {
            let jobs = self.repl.lock();
            jobs.iter()
                .find(|j| j.volume == v)
                .map(|j| self.net.clock().now().micros_since(j.last_refresh).max(1))
        };
        let Some(age) = age else { return resp };
        match resp {
            Response::Status { status, tokens, stamp, epoch, .. } => {
                Response::Status { status, tokens, stamp, epoch, stale_us: age }
            }
            Response::Data { bytes, status, tokens, stamp, epoch, .. } => {
                Response::Data { bytes, status, tokens, stamp, epoch, stale_us: age }
            }
            other => other,
        }
    }

    /// One replication pass: refreshes any replica past its staleness
    /// bound (or known-dirty via token revocation). Driven explicitly by
    /// `ReplTick` so experiments control simulated time.
    fn replica_tick(&self) -> DfsResult<()> {
        let now = self.net.clock().now();
        let due: Vec<(VolumeId, ServerId, u64)> = {
            let jobs = self.repl.lock();
            jobs.iter()
                .filter(|j| {
                    // Lazy: refresh only when the master is known to have
                    // changed (our whole-volume token was revoked) AND
                    // the staleness budget has been spent. An unchanged
                    // master costs no refresh traffic at all (§3.8).
                    j.dirty && now.micros_since(j.last_refresh) >= j.max_staleness_us
                })
                .map(|j| (j.volume, j.source, j.base_version))
                .collect()
        };
        for (volume, source, base) in due {
            let resp = self.net.call(
                self.addr,
                Addr::Server(source),
                None,
                CallClass::Normal,
                Request::VolDump { volume, since_version: base },
            )?;
            let dump = match resp.into_result()? {
                Response::Dump(d) => d,
                _ => continue,
            };
            let new_base = dump.max_data_version;
            let shipped = !dump.files.is_empty();
            if shipped {
                // The client of the replica "is guaranteed to always see
                // a consistent snapshot": swap-in happens under the
                // volume mount lock via restore.
                self.unmount(volume);
                self.physical.restore_volume(&dump, true)?;
            }
            // Re-arm the whole-volume token.
            let _ = self.net.call(
                self.addr,
                Addr::Server(source),
                None,
                CallClass::Normal,
                Request::GetToken {
                    fid: Fid::new(volume, VnodeId(0), 0),
                    want: TokenRequest { types: DIR_READ, range: ByteRange::WHOLE },
                },
            );
            let mut jobs = self.repl.lock();
            if let Some(j) = jobs.iter_mut().find(|j| j.volume == volume) {
                j.last_refresh = now;
                j.base_version = new_base;
                j.dirty = false;
            }
            if shipped {
                self.stats.lock().replica_refreshes += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The server procedures (§3.5)
    // ------------------------------------------------------------------

    fn handle(&self, ctx: &CallContext, req: Request) -> DfsResult<Response> {
        use Request as Q;
        use Response as P;
        let cred = self.cred_for(ctx);
        match req {
            Q::Ping => Ok(P::Ok),

            Q::GetRoot { volume } => {
                let fs = self.mount(volume)?;
                Ok(P::FidIs(fs.root()?))
            }

            Q::FetchStatus { fid, want } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(fid)?;
                let (status, tokens, stamp) = self.with_grant(
                    host,
                    fid,
                    TokenTypes::STATUS_READ,
                    ByteRange::WHOLE,
                    want,
                    || fs.getattr(&cred, fid),
                )?;
                Ok(P::Status { status, tokens, stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::FetchData { fid, offset, len, want } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(fid)?;
                let range = ByteRange::at(offset, len as u64);
                let ((bytes, status), tokens, stamp) = self.with_grant(
                    host,
                    fid,
                    TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
                    range,
                    want,
                    || {
                        let bytes = fs.read(&cred, fid, offset, len as usize)?;
                        let status = fs.getattr(&cred, fid)?;
                        Ok((bytes, status))
                    },
                )?;
                Ok(P::Data { bytes, status, tokens, stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::StoreData { fid, offset, data } => {
                let extents = vec![WriteExtent { offset, data }];
                self.store_extents(ctx, &cred, fid, extents)
            }

            Q::StoreDataVec { fid, extents } => {
                if extents.is_empty()
                    || extents.len() > MAX_STORE_EXTENTS
                    || extents.iter().map(|e| e.data.len()).sum::<usize>() > MAX_STORE_BYTES
                {
                    return Err(DfsError::InvalidArgument);
                }
                self.store_extents(ctx, &cred, fid, extents)
            }

            Q::StoreStatus { fid, attrs } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(fid)?;
                if ctx.class == CallClass::Revocation {
                    // Status pushed back from revocation code: grant-free
                    // (the storing client holds the status-write token).
                    let status = fs.setattr(&cred, fid, &attrs)?;
                    let stamp = self.tm.stamp(fid);
                    return Ok(P::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 });
                }
                let types = if attrs.length.is_some() { DIR_WRITE } else { TokenTypes::STATUS_WRITE };
                let (status, _t, stamp) = self.with_grant(
                    host,
                    fid,
                    types,
                    ByteRange::WHOLE,
                    None,
                    || fs.setattr(&cred, fid, &attrs),
                )?;
                Ok(P::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::Fsync { fid } => {
                let fs = self.volume_of(fid)?;
                fs.fsync(&cred, fid)?;
                Ok(P::Ok)
            }

            Q::GetToken { fid, want } => {
                let host = self.host_for(ctx.caller)?;
                // Whole-volume tokens (vnode 0) have no status to fetch.
                if fid.vnode.0 == 0 {
                    let (token, stamp) = self.tm.grant(host, fid, want.types, want.range)?;
                    self.journal_holding(host);
                    return Ok(P::Status {
                        status: dfs_types::FileStatus { fid, stamp, ..Default::default() },
                        tokens: vec![token],
                        stamp,
                        epoch: self.epoch,
                        stale_us: 0,
                    });
                }
                let fs = self.volume_of(fid)?;
                let (status, tokens, stamp) = self.with_grant(
                    host,
                    fid,
                    TokenTypes::NONE,
                    want.range,
                    Some(want),
                    || fs.getattr(&cred, fid),
                )?;
                Ok(P::Status { status, tokens, stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::ReturnToken { fid, token } => {
                let host = self.host_for(ctx.caller)?;
                self.tm.release(host, fid, token);
                Ok(P::Ok)
            }

            Q::Lookup { dir, name, want } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(dir)?;
                let (status, tokens, _stamp) = self.with_grant(
                    host,
                    dir,
                    DIR_READ,
                    ByteRange::WHOLE,
                    want,
                    || fs.lookup(&cred, dir, &name),
                )?;
                let stamp = self.tm.stamp(status.fid);
                Ok(P::Status { status, tokens, stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::Create { dir, name, mode } => self.namespace_op(ctx, dir, |fs| {
                fs.create(&cred, dir, &name, mode)
            }),
            Q::Mkdir { dir, name, mode } => self.namespace_op(ctx, dir, |fs| {
                fs.mkdir(&cred, dir, &name, mode)
            }),
            Q::Symlink { dir, name, target } => self.namespace_op(ctx, dir, |fs| {
                fs.symlink(&cred, dir, &name, &target)
            }),
            Q::Link { dir, name, target } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(dir)?;
                let (t2, _) =
                    self.tm.grant(host, target, TokenTypes::STATUS_WRITE, ByteRange::WHOLE)?;
                let result = self.with_grant(host, dir, DIR_WRITE, ByteRange::WHOLE, None, || {
                    fs.link(&cred, dir, &name, target)
                });
                self.tm.release(host, t2.fid, t2.id);
                let (status, _t, stamp) = result?;
                Ok(P::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::Remove { dir, name } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(dir)?;
                // Assure no remote users of the victim (§5.4): take an
                // exclusive-write open token plus write tokens on it.
                let victim = fs.lookup(&cred, dir, &name)?;
                let (vt, _) = self.tm.grant(
                    host,
                    victim.fid,
                    TokenTypes(
                        TokenTypes::OPEN_EXCLUSIVE_WRITE.0
                            | TokenTypes::STATUS_WRITE.0
                            | TokenTypes::DATA_WRITE.0,
                    ),
                    ByteRange::WHOLE,
                )?;
                let result = self.with_grant(host, dir, DIR_WRITE, ByteRange::WHOLE, None, || {
                    fs.remove(&cred, dir, &name)
                });
                self.tm.release(host, vt.fid, vt.id);
                let (status, _t, stamp) = result?;
                Ok(P::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 })
            }

            Q::Rmdir { dir, name } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(dir)?;
                let victim = fs.lookup(&cred, dir, &name)?;
                let (vt, _) = self.tm.grant(
                    host,
                    victim.fid,
                    TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0),
                    ByteRange::WHOLE,
                )?;
                let result = self.with_grant(host, dir, DIR_WRITE, ByteRange::WHOLE, None, || {
                    fs.rmdir(&cred, dir, &name)
                });
                self.tm.release(host, vt.fid, vt.id);
                result?;
                Ok(P::Ok)
            }

            Q::Rename { src_dir, src_name, dst_dir, dst_name } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(src_dir)?;
                // Grant on both directories in fid order (deadlock
                // avoidance between concurrent server operations).
                let (a, b) = if src_dir <= dst_dir { (src_dir, dst_dir) } else { (dst_dir, src_dir) };
                let (t1, _) = self.tm.grant(host, a, DIR_WRITE, ByteRange::WHOLE)?;
                let t2 = if b != a {
                    Some(self.tm.grant(host, b, DIR_WRITE, ByteRange::WHOLE)?.0)
                } else {
                    None
                };
                let result = fs.rename(&cred, src_dir, &src_name, dst_dir, &dst_name);
                if let Some(t) = t2 {
                    self.tm.release(host, t.fid, t.id);
                }
                self.tm.release(host, t1.fid, t1.id);
                result?;
                Ok(P::Ok)
            }

            Q::Readdir { dir } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(dir)?;
                let (entries, _t, _s) = self.with_grant(
                    host,
                    dir,
                    DIR_READ,
                    ByteRange::WHOLE,
                    None,
                    || fs.readdir(&cred, dir),
                )?;
                Ok(P::Entries(entries))
            }

            Q::Readlink { fid } => {
                let fs = self.volume_of(fid)?;
                Ok(P::Target(fs.readlink(&cred, fid)?))
            }

            Q::GetAcl { fid } => {
                let fs = self.volume_of(fid)?;
                Ok(P::AclIs(fs.get_acl(&cred, fid)?))
            }

            Q::SetAcl { fid, acl } => {
                let host = self.host_for(ctx.caller)?;
                let fs = self.volume_of(fid)?;
                let (_r, _t, _s) = self.with_grant(
                    host,
                    fid,
                    TokenTypes::STATUS_WRITE,
                    ByteRange::WHOLE,
                    None,
                    || fs.set_acl(&cred, fid, &acl),
                )?;
                Ok(P::Ok)
            }

            Q::SetLock { fid, range, write } => {
                let host = self.host_for(ctx.caller)?;
                self.volume_of(fid)?;
                // A server-mediated lock must first pull back conflicting
                // lock *tokens*: holders with active locks retain them,
                // which correctly refuses this lock (§5.3).
                let types =
                    if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
                let (t, _) = self.tm.grant(host, fid, types, range)?;
                let result = self.locks.set(host, fid, range, write);
                self.tm.release(host, t.fid, t.id);
                result?;
                Ok(P::Ok)
            }

            Q::ReleaseLock { fid, range } => {
                let host = self.host_for(ctx.caller)?;
                self.locks.release(host, fid, range);
                Ok(P::Ok)
            }

            Q::VolCreate { volume, name } => {
                self.physical.create_volume(volume, &name)?;
                self.hosted.lock().insert(volume);
                self.vldb.register(volume, self.id)?;
                Ok(P::Ok)
            }
            Q::VolDelete { volume } => {
                self.unmount(volume);
                self.physical.delete_volume(volume)?;
                self.hosted.lock().remove(&volume);
                self.vldb.unregister(volume)?;
                Ok(P::Ok)
            }
            Q::VolClone { src, clone, name } => {
                // Snapshot what clients have written, not just what has
                // been stored back: revoke outstanding write tokens.
                self.quiesce_volume(src)?;
                self.physical.clone_volume(src, clone, &name)?;
                self.hosted.lock().insert(clone);
                self.vldb.register(clone, self.id)?;
                Ok(P::Ok)
            }
            Q::VolDump { volume, since_version } => {
                self.quiesce_volume(volume)?;
                Ok(P::Dump(self.physical.dump_volume(volume, since_version)?))
            }
            Q::VolRestore { dump, read_only } => {
                let vol = dump.volume;
                self.physical.restore_volume(&dump, read_only)?;
                self.unmount(vol);
                // A move target keeps the shipped copy *staged* until the
                // handover completes (`VolInstallTokens`): the VLDB still
                // names the source, and a client holding a stale hint
                // aimed here must be redirected there — serving (or
                // accepting writes into) the phase-1 snapshot would fork
                // the volume, with the writes clobbered by the phase-2
                // delta.
                if !self.hosted.lock().contains(&vol) {
                    self.staged.lock().insert(vol);
                }
                Ok(P::Ok)
            }
            Q::VolInstallTokens { volume, grants, stamps } => {
                // A move source handing over the volume's coherence
                // state: install each surviving client grant verbatim
                // (ids preserved, so clients' cached tokens stay valid
                // and future revocations match them), and lift every
                // serialization counter to the source's floor so stamps
                // stay monotone across the move (§6.2).
                let now = self.net.clock().now();
                for (client, token) in grants {
                    if token.fid.volume != volume {
                        return Err(DfsError::InvalidArgument);
                    }
                    let host = self.host_for(Addr::Client(client))?;
                    // Count the shipped client as seen, so a later
                    // restart of *this* server expects it to recover —
                    // durably: the move's handover is exactly the kind
                    // of state a crashed target must not forget.
                    self.hosts.seed(client, now);
                    self.journal_holding(host);
                    self.tm.install_grant(host, token);
                }
                for (fid, stamp) in stamps {
                    self.tm.raise_stamp_floor(fid, stamp);
                }
                // Handover complete: the delta is applied and the
                // coherence state is in place, so the staged copy
                // becomes a hosted volume this server serves (the
                // source flips the VLDB right after this call returns).
                self.staged.lock().remove(&volume);
                self.hosted.lock().insert(volume);
                self.routes.lock().remove(&volume);
                Ok(P::Ok)
            }
            Q::VolDiscard { volume } => {
                // The source aborted a move after the bulk ship: throw
                // away the staged copy so this server cannot end up
                // claiming a stale fork of the volume. Already-promoted
                // (or never-staged) volumes are untouched.
                if self.staged.lock().remove(&volume) {
                    self.unmount(volume);
                    self.physical.delete_volume(volume)?;
                }
                Ok(P::Ok)
            }
            Q::VolInfo { volume } => Ok(P::VolumeIs(self.physical.volume_info(volume)?)),
            Q::VolList => Ok(P::Volumes(self.physical.list_volumes()?)),
            Q::VolMove { volume, target } => {
                self.move_volume(volume, target)?;
                Ok(P::Ok)
            }

            Q::ReplAdd { volume, source, max_staleness_us } => {
                self.replica_add(volume, source, max_staleness_us)?;
                Ok(P::Ok)
            }
            Q::ReplTick => {
                self.replica_tick()?;
                Ok(P::Ok)
            }

            Q::GetEpoch => Ok(P::EpochIs { epoch: self.epoch, in_grace: self.in_grace() }),

            Q::ReestablishTokens { epoch, tokens } => {
                let client = match ctx.caller {
                    Addr::Client(c) => c,
                    _ => return Err(DfsError::InvalidArgument),
                };
                if epoch != self.epoch {
                    // The caller is talking to a different instance than
                    // it thinks (e.g. we restarted again); it must
                    // re-probe before claiming anything.
                    return Err(DfsError::InvalidArgument);
                }
                let host = self.host_for(ctx.caller)?;
                let now = self.net.clock().now();
                let (in_grace, expected) = {
                    let mut rec = self.recovery.lock();
                    (self.grace_open(&mut rec, now), rec.expected.contains(&client))
                };
                let mut granted = Vec::new();
                if in_grace && expected {
                    // Re-grant claims that don't conflict with what other
                    // hosts already reestablished; conflicting claims are
                    // silently dropped (the honest pre-crash grant set is
                    // conflict-free, so drops only punish stale claims).
                    for t in tokens {
                        if let Some((token, _stamp)) =
                            self.tm.reestablish(host, t.fid, t.types, t.range)
                        {
                            granted.push(token);
                        }
                    }
                }
                if !granted.is_empty() {
                    // The re-grants make this client a holder under the
                    // *new* instance; journal that for the next crash.
                    self.journal_holding(host);
                }
                if expected {
                    let mut rec = self.recovery.lock();
                    rec.checked_in.insert(client);
                    // Last expected host in: close the window early.
                    self.grace_open(&mut rec, now);
                }
                Ok(P::Reestablished { epoch: self.epoch, tokens: granted })
            }

            Q::RevokeToken { token, types: _, stamp: _ } => {
                // We hold whole-volume replica tokens only: mark the
                // replica dirty and return the token (§3.8).
                let mut jobs = self.repl.lock();
                if let Some(j) = jobs.iter_mut().find(|j| j.volume == token.fid.volume) {
                    j.dirty = true;
                }
                Ok(P::RevokeAck { returned: true })
            }

            Q::RevokeVec { items } => {
                // Batched twin of RevokeToken: mark each token's volume
                // replica dirty and return every token, one answer per
                // item in request order.
                let mut jobs = self.repl.lock();
                let returned = items
                    .iter()
                    .map(|(token, _types, _stamp)| {
                        if let Some(j) =
                            jobs.iter_mut().find(|j| j.volume == token.fid.volume)
                        {
                            j.dirty = true;
                        }
                        true
                    })
                    .collect();
                Ok(P::RevokeVecAck { returned })
            }

            Q::Login { .. } | Q::VlLookup { .. } | Q::VlRegister { .. }
            | Q::VlUnregister { .. } | Q::VlList | Q::VlAddReplica { .. }
            | Q::VlReplicas { .. } => Err(DfsError::InvalidArgument),
        }
    }

    fn namespace_op(
        &self,
        ctx: &CallContext,
        dir: Fid,
        f: impl FnOnce(&Arc<dyn VfsPlus>) -> DfsResult<dfs_types::FileStatus>,
    ) -> DfsResult<Response> {
        let host = self.host_for(ctx.caller)?;
        let fs = self.volume_of(dir)?;
        let (status, _t, _s) =
            self.with_grant(host, dir, DIR_WRITE, ByteRange::WHOLE, None, || f(&fs))?;
        let stamp = self.tm.stamp(status.fid);
        Ok(Response::Status { status, tokens: Vec::new(), stamp, epoch: self.epoch, stale_us: 0 })
    }

    /// The volume a file RPC is about, if any. Admin traffic (volume
    /// motion, replication, VLDB, recovery probes) returns `None`: it
    /// is addressed to a specific server deliberately and must never be
    /// redirected or forwarded.
    fn volume_of_req(req: &Request) -> Option<VolumeId> {
        match req {
            Request::GetRoot { volume } => Some(*volume),
            _ => Self::fid_of(req).map(|f| f.volume),
        }
    }

    /// File RPCs cheap enough to answer by proxy: token-free one-shot
    /// reads. Everything else involves granting, returning, or storing
    /// under tokens, which must happen directly between the client and
    /// the owning server — those bounce with `WrongServer` instead.
    fn forwards_ok(req: &Request) -> bool {
        matches!(
            req,
            Request::GetRoot { .. }
                | Request::Readlink { .. }
                | Request::GetAcl { .. }
                | Request::Fsync { .. }
        )
    }

    /// Answers a call for a volume this server does not host: forward
    /// one-shot reads to the owner, redirect everything else with a
    /// `WrongServer` hint (route note if we moved it away ourselves,
    /// else a fresh VLDB lookup).
    fn not_hosted(&self, ctx: &CallContext, volume: VolumeId, req: Request) -> Response {
        let hint = self.routes.lock().get(&volume).copied();
        let hint = match hint {
            Some(h) => Some(h),
            None => match self.vldb.lookup_gen(volume) {
                Ok((server, generation)) if server != self.id => Some((server, generation)),
                _ => None,
            },
        };
        let Some((server, generation)) = hint else {
            return Response::Err(DfsError::NoSuchVolume);
        };
        if Self::forwards_ok(&req) {
            self.stats.lock().forwards += 1;
            // Forward over the trusted inter-server channel with the
            // caller's authenticated principal attached, so the owner's
            // ACL checks run against the real caller — a plain re-send
            // would arrive unauthenticated and either fail outright
            // (require_auth cells) or run as the system principal.
            return match self.net.call_forwarded(
                self.addr,
                Addr::Server(server),
                ctx.principal,
                ctx.class,
                req,
            ) {
                Ok(resp) => resp,
                // The owner is down. Surface that as a response: the
                // client's failover machinery owns retrying the owner,
                // not this bystander.
                Err(DfsError::Unreachable) | Err(DfsError::Crashed) => {
                    Response::Err(DfsError::Crashed)
                }
                Err(e) => Response::Err(e),
            };
        }
        self.stats.lock().wrong_server_redirects += 1;
        Response::WrongServer { hint: server, generation }
    }

    fn fid_of(req: &Request) -> Option<Fid> {
        match req {
            Request::FetchStatus { fid, .. }
            | Request::FetchData { fid, .. }
            | Request::StoreData { fid, .. }
            | Request::StoreDataVec { fid, .. }
            | Request::StoreStatus { fid, .. }
            | Request::Fsync { fid }
            | Request::GetToken { fid, .. }
            | Request::ReturnToken { fid, .. }
            | Request::Readlink { fid }
            | Request::GetAcl { fid }
            | Request::SetAcl { fid, .. }
            | Request::SetLock { fid, .. }
            | Request::ReleaseLock { fid, .. } => Some(*fid),
            Request::Lookup { dir, .. }
            | Request::Create { dir, .. }
            | Request::Mkdir { dir, .. }
            | Request::Symlink { dir, .. }
            | Request::Link { dir, .. }
            | Request::Remove { dir, .. }
            | Request::Rmdir { dir, .. }
            | Request::Readdir { dir } => Some(*dir),
            Request::Rename { src_dir, .. } => Some(*src_dir),
            _ => None,
        }
    }
}

impl RpcService for FileServer {
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
        if let Addr::Client(c) = ctx.caller {
            let now = self.net.clock().now();
            self.hosts.saw_call(c, ctx.principal, now);
            self.journal_lease_refresh(c, now);
        }
        // Routing gate: a file call for a volume this server does not
        // host is forwarded or redirected before any recovery or busy
        // gating — the owner, not this server, holds the volume's
        // recovery story. Applies to every call class: a store-back
        // aimed at a moved-away volume must chase it too.
        let volume = Self::volume_of_req(&req);
        if let Some(v) = volume {
            if !self.hosted.lock().contains(&v) {
                return self.not_hosted(&ctx, v, req);
            }
        }
        // Post-restart recovery gate: while the grace window is open,
        // file work is admitted only from hosts that have reestablished
        // their tokens. Probes (Ping/GetEpoch), the reestablish call
        // itself, admin traffic, and revocation-class store-backs pass.
        if ctx.class != CallClass::Revocation
            && (Self::fid_of(&req).is_some() || matches!(req, Request::GetRoot { .. }))
        {
            let gated = {
                let now = self.net.clock().now();
                let mut rec = self.recovery.lock();
                self.grace_open(&mut rec, now)
                    && match ctx.caller {
                        Addr::Client(c) => !rec.checked_in.contains(&c),
                        // Peers (replicators) are not part of recovery.
                        _ => false,
                    }
            };
            if gated {
                self.stats.lock().grace_rejections += 1;
                return Response::Err(DfsError::GraceWait);
            }
        }
        // Track in-flight file work per volume *before* consulting the
        // busy gate. A move's blackout phase sets `busy` first and only
        // then drains `inflight`, so with this ordering a racing call
        // either increments early enough for the drain to wait on it,
        // or reads `busy` after the blackout began and backs out — it
        // can never slip a mutation in after the drain observed zero.
        if let Some(v) = volume {
            *self.inflight.lock().entry(v).or_insert(0) += 1;
        }
        // Volume motion blocks file access briefly (§2.1) — except for
        // revocation-triggered store-backs, which the move's own
        // quiescing is waiting on.
        if ctx.class != CallClass::Revocation {
            if let Some(v) = volume {
                if self.busy.lock().contains(&v) {
                    self.stats.lock().busy_rejections += 1;
                    self.inflight_dec(v);
                    return Response::Err(DfsError::VolumeBusy);
                }
            }
        }
        {
            let mut stats = self.stats.lock();
            stats.ops += 1;
            if let Some(v) = volume {
                *stats.volume_ops.entry(v).or_insert(0) += 1;
            }
        }
        let resp = match self.handle(&ctx, req) {
            Ok(resp) => resp,
            Err(e) => Response::Err(e),
        };
        let resp = self.stamp_staleness(volume, resp);
        if let Some(v) = volume {
            self.inflight_dec(v);
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::{DiskConfig, SimDisk};
    use dfs_episode::{Episode, FormatParams};
    use dfs_types::{ClientId, SimClock};

    fn cell() -> (Network, Arc<FileServer>) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "root.cell").unwrap();
        let srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep,
            vec![Addr::Vldb(0)],
            PoolConfig::default(),
        )
        .unwrap();
        (net, srv)
    }

    fn call(net: &Network, req: Request) -> Response {
        net.call(Addr::Client(ClientId(7)), Addr::Server(ServerId(1)), None, CallClass::Normal, req)
            .unwrap()
    }

    #[test]
    fn get_root_and_create_and_fetch() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let created = match call(
            &net,
            Request::Create { dir: root, name: "hello".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        match call(
            &net,
            Request::StoreData { fid: created.fid, offset: 0, data: b"remote!".to_vec() },
        ) {
            Response::Status { status, .. } => assert_eq!(status.length, 7),
            other => panic!("{other:?}"),
        }
        match call(
            &net,
            Request::FetchData { fid: created.fid, offset: 0, len: 32, want: None },
        ) {
            Response::Data { bytes, status, .. } => {
                assert_eq!(bytes, b"remote!");
                assert_eq!(status.length, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_data_vec_applies_batch_in_one_group_commit() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "root.cell").unwrap();
        let _srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep.clone(),
            vec![Addr::Vldb(0)],
            PoolConfig::default(),
        )
        .unwrap();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "v".into(), mode: 0o644 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        let before = ep.journal().stats().syncs;
        let extents = vec![
            WriteExtent { offset: 0, data: vec![1u8; 4096] },
            WriteExtent { offset: 4096, data: vec![2u8; 4096] },
            WriteExtent { offset: 16384, data: vec![3u8; 100] },
        ];
        match call(&net, Request::StoreDataVec { fid: f.fid, extents }) {
            Response::Status { status, .. } => assert_eq!(status.length, 16484),
            other => panic!("{other:?}"),
        }
        // The whole batch forced the log exactly once.
        assert_eq!(ep.journal().stats().syncs, before + 1);
        match call(&net, Request::FetchData { fid: f.fid, offset: 4096, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, vec![2u8; 8]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_data_vec_rejects_malformed_batches() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "m".into(), mode: 0o644 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        // Empty batch.
        assert_eq!(
            call(&net, Request::StoreDataVec { fid: f.fid, extents: vec![] }),
            Response::Err(DfsError::InvalidArgument)
        );
        // Too many extents.
        let many = (0..=MAX_STORE_EXTENTS as u64)
            .map(|i| WriteExtent { offset: i * 8192, data: vec![0u8; 1] })
            .collect();
        assert_eq!(
            call(&net, Request::StoreDataVec { fid: f.fid, extents: many }),
            Response::Err(DfsError::InvalidArgument)
        );
        // Too many payload bytes.
        let fat = vec![WriteExtent { offset: 0, data: vec![0u8; MAX_STORE_BYTES + 1] }];
        assert_eq!(
            call(&net, Request::StoreDataVec { fid: f.fid, extents: fat }),
            Response::Err(DfsError::InvalidArgument)
        );
    }

    #[test]
    fn stamps_increase_per_file() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let s1 = match call(&net, Request::FetchStatus { fid: root, want: None }) {
            Response::Status { stamp, .. } => stamp,
            other => panic!("{other:?}"),
        };
        let s2 = match call(&net, Request::FetchStatus { fid: root, want: None }) {
            Response::Status { stamp, .. } => stamp,
            other => panic!("{other:?}"),
        };
        assert!(s2 > s1, "per-file serialization stamps must increase (§6.2)");
    }

    #[test]
    fn vldb_learns_server_volumes_on_start() {
        let (net, srv) = cell();
        let vldb = VldbHandle::new(net, Addr::Client(ClientId(9)), vec![Addr::Vldb(0)]);
        assert_eq!(vldb.lookup(VolumeId(1)).unwrap(), srv.id());
    }

    #[test]
    fn local_and_remote_access_synchronize() {
        // The §5.5 example in miniature: a local user and a remote user
        // write the same file; token conflicts force serialization.
        let (net, srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "x".into(), mode: 0o666 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        // Remote client writes via RPC.
        call(&net, Request::StoreData { fid: f.fid, offset: 0, data: b"remote".to_vec() });
        // Local user reads through the glue layer.
        let local = srv.local_volume(VolumeId(1)).unwrap();
        let cred = Credentials::system();
        use dfs_vfs::Vfs;
        assert_eq!(local.read(&cred, f.fid, 0, 16).unwrap(), b"remote");
        // Local write, then remote read.
        local.write(&cred, f.fid, 0, b"local!").unwrap();
        match call(&net, Request::FetchData { fid: f.fid, offset: 0, len: 16, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"local!"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn namespace_round_trip() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        call(&net, Request::Mkdir { dir: root, name: "d".into(), mode: 0o755 });
        let d = match call(&net, Request::Lookup { dir: root, name: "d".into(), want: None }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        assert!(d.is_dir());
        call(&net, Request::Create { dir: d.fid, name: "f".into(), mode: 0o644 });
        let entries = match call(&net, Request::Readdir { dir: d.fid }) {
            Response::Entries(e) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(entries.len(), 1);
        call(&net, Request::Rename {
            src_dir: d.fid,
            src_name: "f".into(),
            dst_dir: root,
            dst_name: "g".into(),
        });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "g".into(), want: None }),
            Response::Status { .. }
        ));
        call(&net, Request::Remove { dir: root, name: "g".into() });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "g".into(), want: None }),
            Response::Err(DfsError::NotFound)
        ));
        call(&net, Request::Rmdir { dir: root, name: "d".into() });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "d".into(), want: None }),
            Response::Err(DfsError::NotFound)
        ));
    }

    #[test]
    fn server_side_locks() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "l".into(), mode: 0o666 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        let lock = |c: u32, write: bool| {
            net.call(
                Addr::Client(ClientId(c)),
                Addr::Server(ServerId(1)),
                None,
                CallClass::Normal,
                Request::SetLock { fid: f.fid, range: ByteRange::new(0, 100), write },
            )
            .unwrap()
        };
        assert_eq!(lock(1, true), Response::Ok);
        assert_eq!(lock(2, true), Response::Err(DfsError::LockConflict));
        net.call(
            Addr::Client(ClientId(1)),
            Addr::Server(ServerId(1)),
            None,
            CallClass::Normal,
            Request::ReleaseLock { fid: f.fid, range: ByteRange::new(0, 100) },
        )
        .unwrap();
        assert_eq!(lock(2, true), Response::Ok);
    }

    #[test]
    fn volume_move_between_servers() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let mk = |n: u32| {
            let disk = SimDisk::new(DiskConfig::with_blocks(16384));
            let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
            FileServer::start(
                net.clone(),
                ServerId(n),
                ep,
                vec![Addr::Vldb(0)],
                PoolConfig::default(),
            )
            .unwrap()
        };
        let s1 = mk(1);
        let s2 = mk(2);
        // Create a volume with content on s1.
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        send(ServerId(1), Request::VolCreate { volume: VolumeId(7), name: "proj".into() });
        let root = match send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match send(
            ServerId(1),
            Request::Create { dir: root, name: "file".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        send(ServerId(1), Request::StoreData { fid: f.fid, offset: 0, data: b"movable".to_vec() });

        // Move it.
        assert_eq!(
            send(ServerId(1), Request::VolMove { volume: VolumeId(7), target: ServerId(2) }),
            Response::Ok
        );
        assert_eq!(s1.stats().moves, 1);

        // VLDB points at s2; fids still resolve; data survived.
        let vldb = VldbHandle::new(net.clone(), c, vec![Addr::Vldb(0)]);
        assert_eq!(vldb.lookup(VolumeId(7)).unwrap(), ServerId(2));
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 16, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"movable"),
            other => panic!("{other:?}"),
        }
        // The old server redirects with a hint at the new owner.
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid: f.fid, want: None }),
            Response::WrongServer { hint: ServerId(2), .. }
        ));
        assert!(s1.stats().wrong_server_redirects >= 1);
        // Token-free one-shot calls are forwarded transparently.
        match send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }) {
            Response::FidIs(r) => assert_eq!(r, root),
            other => panic!("{other:?}"),
        }
        assert!(s1.stats().forwards >= 1);
        let _ = s2;
    }

    #[test]
    fn unknown_volume_redirects_via_vldb() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let mk = |n: u32| {
            let disk = SimDisk::new(DiskConfig::with_blocks(16384));
            let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
            FileServer::start(
                net.clone(),
                ServerId(n),
                ep,
                vec![Addr::Vldb(0)],
                PoolConfig::default(),
            )
            .unwrap()
        };
        let _s1 = mk(1);
        let _s2 = mk(2);
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        // Volume 9 lives on s2; a file call misdirected at s1 gets a
        // hint from the VLDB even though s1 never hosted the volume.
        send(ServerId(2), Request::VolCreate { volume: VolumeId(9), name: "elsewhere".into() });
        let fid = Fid::new(VolumeId(9), VnodeId(1), 1);
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid, want: None }),
            Response::WrongServer { hint: ServerId(2), .. }
        ));
        // A volume nobody hosts is an error, not a redirect loop.
        let ghost = Fid::new(VolumeId(99), VnodeId(1), 1);
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid: ghost, want: None }),
            Response::Err(DfsError::NoSuchVolume)
        ));
    }

    #[test]
    fn lazy_replication_ships_increments() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let mk = |n: u32| {
            let disk = SimDisk::new(DiskConfig::with_blocks(16384));
            let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
            FileServer::start(
                net.clone(),
                ServerId(n),
                ep,
                vec![Addr::Vldb(0)],
                PoolConfig::default(),
            )
            .unwrap()
        };
        let _s1 = mk(1);
        let s2 = mk(2);
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        send(ServerId(1), Request::VolCreate { volume: VolumeId(7), name: "src".into() });
        let root = match send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match send(
            ServerId(1),
            Request::Create { dir: root, name: "data".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        send(ServerId(1), Request::StoreData { fid: f.fid, offset: 0, data: b"v1".to_vec() });

        // Replicate onto s2 with a 10-minute staleness bound.
        let ten_min = 600 * 1_000_000;
        assert_eq!(
            send(
                ServerId(2),
                Request::ReplAdd { volume: VolumeId(7), source: ServerId(1), max_staleness_us: ten_min },
            ),
            Response::Ok
        );
        // Replica serves v1 (read-only).
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"v1"),
            other => panic!("{other:?}"),
        }
        // Master changes; replica stays at v1 until the bound expires.
        send(ServerId(1), Request::StoreData { fid: f.fid, offset: 0, data: b"v2".to_vec() });
        send(ServerId(2), Request::ReplTick);
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => {
                // The write revoked the whole-volume token, marking the
                // replica dirty: the next tick refreshes regardless of
                // the staleness clock. Both v1 and v2 are acceptable
                // here; the guarantee is only "no more than ten minutes
                // stale", and never regressing.
                assert!(bytes == b"v2" || bytes == b"v1");
            }
            other => panic!("{other:?}"),
        }
        clock.advance_micros(ten_min + 1);
        send(ServerId(2), Request::ReplTick);
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"v2", "bound expired: must refresh"),
            other => panic!("{other:?}"),
        }
        assert!(s2.stats().replica_refreshes >= 1);
    }

    #[test]
    fn authenticated_permissions_flow_through() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 0);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "v").unwrap();
        let _srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep,
            vec![Addr::Vldb(0)],
            PoolConfig { require_auth: true, ..PoolConfig::default() },
        )
        .unwrap();
        net.auth().add_user(100, 42);
        let ticket = net.auth().login(100, 42).unwrap();
        let c = Addr::Client(ClientId(1));

        // Unauthenticated call is refused.
        let r = net
            .call(c, Addr::Server(ServerId(1)), None, CallClass::Normal, Request::VolList)
            .unwrap();
        assert_eq!(r, Response::Err(DfsError::AuthenticationFailed));

        // Authenticated call succeeds, and the cred is user 100 — who
        // cannot write the system-owned root (mode 0755).
        let root = match net
            .call(
                c,
                Addr::Server(ServerId(1)),
                Some(ticket),
                CallClass::Normal,
                Request::GetRoot { volume: VolumeId(1) },
            )
            .unwrap()
        {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let r = net
            .call(
                c,
                Addr::Server(ServerId(1)),
                Some(ticket),
                CallClass::Normal,
                Request::Create { dir: root, name: "nope".into(), mode: 0o644 },
            )
            .unwrap();
        assert_eq!(r, Response::Err(DfsError::PermissionDenied));
    }
}
