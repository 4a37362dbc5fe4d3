//! Span recording at layer boundaries, from the benchmark's side of
//! each boundary: the benchmark's `CacheManager` calls, an `RpcService`
//! wrapper over the file server and over each client's revocation
//! handler, and a `PhysicalFs`/`VfsPlus` wrapper around Episode.
//! Spans are kept in memory and read out after the timed phase.

use crate::stats::Interval;
use dfs_rpc::{CallContext, Request, Response, RpcService};
use dfs_types::{Acl, AggregateId, DfsResult, Fid, FileStatus, VolumeId};
use dfs_vfs::{
    Credentials, DirEntry, PhysicalFs, SalvageReport, SetAttrs, Vfs, VfsPlus, VolumeDump,
    VolumeInfo, WriteExtent,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A call the benchmark makes into `CacheManager`.
    Client,
    /// A file-server request, named by its RPC label.
    Server,
    /// A client's handler for a server-to-client (revocation) call.
    Revoke,
    /// An Episode vnode operation.
    Episode,
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    /// Index of the timed op the span belongs to.
    pub op: u32,
    pub iv: Interval,
}

/// Op index meaning "not in the timed phase": nothing is recorded.
const IDLE: u32 = u32::MAX;

pub struct Recorder {
    origin: Instant,
    op: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            op: AtomicU32::new(IDLE),
            spans: Mutex::default(),
        })
    }

    /// Attributes spans recorded from now on to timed op `op`.
    pub fn set_op(&self, op: u32) {
        self.op.store(op, Ordering::SeqCst);
    }

    /// Stops recording (the timed phase is over).
    pub fn idle(&self) {
        self.op.store(IDLE, Ordering::SeqCst);
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&self, layer: Layer, name: &'static str, start: u64) {
        let end = self.now();
        let op = self.op.load(Ordering::SeqCst);
        if op == IDLE {
            return;
        }
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                layer,
                name,
                op,
                iv: Interval { start, end },
            });
    }

    /// Times `f` as one span.
    pub fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(layer, name, start);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// An `RpcService` that records one span per request, named by label.
pub struct TracedService {
    pub inner: Arc<dyn RpcService>,
    pub layer: Layer,
    pub rec: Arc<Recorder>,
}

impl RpcService for TracedService {
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
        let label = req.label();
        self.rec
            .span(self.layer, label, || self.inner.dispatch(ctx, req))
    }
}

/// Episode behind a span-recording `PhysicalFs`: every volume it mounts
/// records one span per vnode op.
pub struct TracedFs {
    pub inner: Arc<dyn PhysicalFs>,
    pub rec: Arc<Recorder>,
}

impl PhysicalFs for TracedFs {
    fn aggregate_id(&self) -> AggregateId {
        self.inner.aggregate_id()
    }
    fn list_volumes(&self) -> DfsResult<Vec<VolumeInfo>> {
        self.inner.list_volumes()
    }
    fn volume_info(&self, vol: VolumeId) -> DfsResult<VolumeInfo> {
        self.inner.volume_info(vol)
    }
    fn create_volume(&self, id: VolumeId, name: &str) -> DfsResult<()> {
        self.inner.create_volume(id, name)
    }
    fn delete_volume(&self, vol: VolumeId) -> DfsResult<()> {
        self.inner.delete_volume(vol)
    }
    fn clone_volume(&self, src: VolumeId, clone_id: VolumeId, name: &str) -> DfsResult<()> {
        self.inner.clone_volume(src, clone_id, name)
    }
    fn mount(&self, vol: VolumeId) -> DfsResult<Arc<dyn VfsPlus>> {
        let inner = self.inner.mount(vol)?;
        Ok(Arc::new(TracedVol {
            inner,
            rec: self.rec.clone(),
        }))
    }
    fn dump_volume(&self, vol: VolumeId, since_version: u64) -> DfsResult<VolumeDump> {
        self.inner.dump_volume(vol, since_version)
    }
    fn restore_volume(&self, dump: &VolumeDump, read_only: bool) -> DfsResult<()> {
        self.inner.restore_volume(dump, read_only)
    }
    fn salvage(&self) -> DfsResult<SalvageReport> {
        self.inner.salvage()
    }
    fn sync_aggregate(&self) -> DfsResult<()> {
        self.inner.sync_aggregate()
    }
}

struct TracedVol {
    inner: Arc<dyn VfsPlus>,
    rec: Arc<Recorder>,
}

impl TracedVol {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(Layer::Episode, name, f)
    }
}

impl Vfs for TracedVol {
    fn volume_id(&self) -> VolumeId {
        self.inner.volume_id()
    }
    fn root(&self) -> DfsResult<Fid> {
        self.inner.root()
    }
    fn lookup(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        self.span("lookup", || self.inner.lookup(cred, dir, name))
    }
    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.span("create", || self.inner.create(cred, dir, name, mode))
    }
    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.span("mkdir", || self.inner.mkdir(cred, dir, name, mode))
    }
    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.span("symlink", || self.inner.symlink(cred, dir, name, target))
    }
    fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.span("link", || self.inner.link(cred, dir, name, target))
    }
    fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        self.span("remove", || self.inner.remove(cred, dir, name))
    }
    fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        self.span("rmdir", || self.inner.rmdir(cred, dir, name))
    }
    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        self.span("rename", || {
            self.inner
                .rename(cred, src_dir, src_name, dst_dir, dst_name)
        })
    }
    fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        self.span("readdir", || self.inner.readdir(cred, dir))
    }
    fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        self.span("read", || self.inner.read(cred, file, offset, len))
    }
    fn write(
        &self,
        cred: &Credentials,
        file: Fid,
        offset: u64,
        data: &[u8],
    ) -> DfsResult<FileStatus> {
        self.span("write", || self.inner.write(cred, file, offset, data))
    }
    fn write_vec(
        &self,
        cred: &Credentials,
        file: Fid,
        extents: &[WriteExtent],
    ) -> DfsResult<FileStatus> {
        self.span("write_vec", || self.inner.write_vec(cred, file, extents))
    }
    fn getattr(&self, cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        self.span("getattr", || self.inner.getattr(cred, file))
    }
    fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        self.span("setattr", || self.inner.setattr(cred, file, attrs))
    }
    fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String> {
        self.span("readlink", || self.inner.readlink(cred, file))
    }
    fn fsync(&self, cred: &Credentials, file: Fid) -> DfsResult<()> {
        self.span("fsync", || self.inner.fsync(cred, file))
    }
    fn sync(&self) -> DfsResult<()> {
        self.span("sync", || self.inner.sync())
    }
}

impl VfsPlus for TracedVol {
    fn get_acl(&self, cred: &Credentials, file: Fid) -> DfsResult<Acl> {
        self.span("get_acl", || self.inner.get_acl(cred, file))
    }
    fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()> {
        self.span("set_acl", || self.inner.set_acl(cred, file, acl))
    }
}
