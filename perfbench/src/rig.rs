//! Assembles a one-server cell from public constructors, keeping a
//! handle to every layer: network, server, token manager, Episode,
//! journal and disk. `Cell` hides the Episode handle and cannot wrap
//! the physical file system, so the benchmark builds the cell itself,
//! the way the group-commit bench does.

use crate::trace::{Layer, Recorder, TracedFs, TracedService};
use dfs_client::{CacheManager, MemCache, WritebackConfig};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_rpc::{Addr, Network, PoolConfig};
use dfs_server::{FileServer, VldbReplica};
use dfs_types::{AggregateId, ClientId, DfsResult, Fid, ServerId, SimClock, VolumeId};
use dfs_vfs::PhysicalFs;
use std::sync::Arc;

/// Network latency charged per call.
pub const LATENCY_US: u64 = 200;
pub const VOLUME: VolumeId = VolumeId(1);
const SERVER: ServerId = ServerId(1);
const VLDB: Addr = Addr::Vldb(0);
/// The server pools `Cell` uses by default.
const SERVER_POOL: PoolConfig = PoolConfig {
    workers: 8,
    revocation_workers: 4,
    require_auth: false,
};
/// The pools `CacheManager::start_with_config` binds a client with.
const CLIENT_POOL: PoolConfig = PoolConfig {
    workers: 2,
    revocation_workers: 2,
    require_auth: false,
};
/// Post-restart grace window for the crash check.
const GRACE_US: u64 = 500_000;

pub struct Rig {
    pub clock: SimClock,
    pub net: Network,
    pub disk: SimDisk,
    pub ep: Arc<Episode>,
    pub srv: Arc<FileServer>,
    pub clients: Vec<Arc<CacheManager>>,
    pub rec: Option<Arc<Recorder>>,
    pub root: Fid,
    next_client: u32,
}

impl Rig {
    /// One server (default disk cost model, `Cell`'s default disk and
    /// log sizes) and `clients` diskless clients with the flusher off,
    /// so nothing runs on a timer. With `rec`, the server's requests,
    /// each client's revocation handler and every Episode vnode op
    /// record spans.
    pub fn build(clients: usize, rec: Option<Arc<Recorder>>) -> DfsResult<Rig> {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), LATENCY_US);
        net.register(VLDB, VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(32 * 1024));
        let ep = Episode::format(
            disk.clone(),
            clock.clone(),
            FormatParams {
                aggregate: AggregateId(1),
                anodes: 8192,
                ..FormatParams::default()
            },
        )?;
        ep.create_volume(VOLUME, "bench")?;
        let srv = start_server(&net, &ep, rec.as_ref(), |net, physical| {
            FileServer::start_journaled(
                net,
                SERVER,
                physical,
                ep.host_log().cloned(),
                vec![VLDB],
                SERVER_POOL,
            )
        })?;
        let mut rig = Rig {
            clock,
            net,
            disk,
            ep,
            srv,
            clients: Vec::new(),
            rec,
            root: Fid::default(),
            next_client: 1,
        };
        for _ in 0..clients {
            let c = rig.new_client();
            rig.clients.push(c);
        }
        rig.root = rig.clients[0].root(VOLUME)?;
        Ok(rig)
    }

    /// Starts another client. Its revocation handler is traced when
    /// the rig is.
    pub fn new_client(&mut self) -> Arc<CacheManager> {
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let wb = WritebackConfig {
            flusher: false,
            ..WritebackConfig::default()
        };
        let c = CacheManager::start_with_config(
            self.net.clone(),
            id,
            vec![VLDB],
            Arc::new(MemCache::new()),
            wb,
        );
        if let Some(rec) = &self.rec {
            let svc = TracedService {
                inner: c.clone(),
                layer: Layer::Revoke,
                rec: rec.clone(),
            };
            self.net
                .register(Addr::Client(id), Arc::new(svc), CLIENT_POOL);
        }
        c
    }

    /// Crashes the server (its disk loses every unflushed write),
    /// restarts it on the same disk through journal replay, and steps
    /// the simulated clock until the grace window has closed, as the
    /// scenario engine does. Returns the committed transactions replay
    /// found in the log.
    pub fn crash_and_restart(&mut self) -> DfsResult<u64> {
        let addr = Addr::Server(SERVER);
        self.net.set_crashed(addr, true);
        self.disk.crash(None);
        self.srv.stop();
        self.disk.power_on();
        let (ep, report) = Episode::open(self.disk.clone(), self.clock.clone())?;
        self.srv = start_server(&self.net, &ep, None, |net, physical| {
            FileServer::restart(
                net,
                SERVER,
                physical,
                ep.host_log().cloned(),
                ep.host_replay(),
                vec![VLDB],
                SERVER_POOL,
                GRACE_US,
            )
        })?;
        self.ep = ep;
        for _ in 0..1_000 {
            if !self.srv.in_grace() {
                break;
            }
            self.clock.advance_millis(10);
        }
        Ok(report.committed_txns)
    }

    /// Unbinds every node so the pools' worker threads exit and the
    /// service ↔ network reference cycles are broken.
    pub fn teardown(self) {
        for id in 1..self.next_client {
            self.net.unregister(Addr::Client(ClientId(id)));
        }
        self.srv.stop();
        self.net.unregister(VLDB);
    }
}

/// Starts a server over `ep`, wrapped for tracing when `rec` is given.
fn start_server(
    net: &Network,
    ep: &Arc<Episode>,
    rec: Option<&Arc<Recorder>>,
    start: impl FnOnce(Network, Arc<dyn PhysicalFs>) -> DfsResult<Arc<FileServer>>,
) -> DfsResult<Arc<FileServer>> {
    let physical: Arc<dyn PhysicalFs> = match rec {
        Some(rec) => Arc::new(TracedFs {
            inner: ep.clone(),
            rec: rec.clone(),
        }),
        None => ep.clone(),
    };
    let srv = start(net.clone(), physical)?;
    if let Some(rec) = rec {
        let svc = TracedService {
            inner: srv.clone(),
            layer: Layer::Server,
            rec: rec.clone(),
        };
        net.register(Addr::Server(SERVER), Arc::new(svc), SERVER_POOL);
    }
    Ok(srv)
}
