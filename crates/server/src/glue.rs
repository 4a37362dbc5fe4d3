//! The Vnode glue layer (§3.3, §5.1).
//!
//! "For each Vnode operation provided by a conventional file system, a
//! corresponding 'wrapper' operation is substituted that obtains tokens
//! and then performs the original operation." The glue layer is what
//! makes *local* access on a file server — and any non-DEcorum exporter
//! on the same host — synchronize with guarantees exported to remote
//! DEcorum clients: it is itself just another client of the token
//! manager (§5.1).
//!
//! The local host's revoke procedure blocks while a local operation is
//! in progress on the file (local callers hold tokens only for the
//! duration of a Vnode call, §5.5), then returns the token: the glue
//! never caches anything, so there is nothing to store back.

use dfs_token::{RevokeResult, Token, TokenHost, TokenManager, TokenTypes};
use dfs_types::{
    Acl, ByteRange, DfsResult, FileStatus, Fid, HostId, SerializationStamp,
};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex};
use dfs_vfs::{Credentials, DirEntry, SetAttrs, Vfs, VfsPlus};
use std::collections::HashMap;
use std::sync::Arc;

/// The glue layer's registration with the token manager: tracks which
/// fids have a local operation in flight so revocations wait for them.
pub struct LocalHost {
    id: HostId,
    active: OrderedMutex<HashMap<Fid, usize>, { rank::HOST_TABLE }>,
    cv: OrderedCondvar,
}

impl LocalHost {
    /// Creates the local host for a server.
    pub fn new(id: HostId) -> Arc<LocalHost> {
        Arc::new(LocalHost {
            id,
            active: OrderedMutex::new(HashMap::new()),
            cv: OrderedCondvar::new(),
        })
    }

    fn enter(&self, fid: Fid) {
        *self.active.lock().entry(fid).or_insert(0) += 1;
    }

    fn exit(&self, fid: Fid) {
        let mut active = self.active.lock();
        if let Some(n) = active.get_mut(&fid) {
            *n -= 1;
            if *n == 0 {
                active.remove(&fid);
            }
        }
        self.cv.notify_all();
    }
}

impl TokenHost for LocalHost {
    fn host_id(&self) -> HostId {
        self.id
    }

    fn revoke(
        &self,
        token: &Token,
        _types: TokenTypes,
        _stamp: SerializationStamp,
    ) -> RevokeResult {
        // Wait until no local operation is using this file, then yield.
        let mut active = self.active.lock();
        while active.contains_key(&token.fid) {
            self.cv.wait(&mut active);
        }
        RevokeResult::Returned
    }
}

/// The glue-wrapped view of a physical file system volume.
///
/// Presents the same VFS+ interface it is given ("transparent from the
/// point of view of the programmer"), but every operation first obtains
/// the tokens that make it serializable against remote holders.
pub struct Glue {
    fs: Arc<dyn VfsPlus>,
    tm: Arc<TokenManager>,
    host: Arc<LocalHost>,
}

impl Glue {
    /// Wraps `fs` with token acquisition against `tm`.
    pub fn new(fs: Arc<dyn VfsPlus>, tm: Arc<TokenManager>, host: Arc<LocalHost>) -> Glue {
        tm.register_host(host.clone());
        Glue { fs, tm, host }
    }

    /// Runs `f` while holding `types` over `range` of `fid`.
    fn with_tokens<R>(
        &self,
        fid: Fid,
        types: TokenTypes,
        range: ByteRange,
        f: impl FnOnce() -> DfsResult<R>,
    ) -> DfsResult<R> {
        let (token, _stamp) = self.tm.grant(self.host.id, fid, types, range)?;
        self.host.enter(fid);
        let result = f();
        self.host.exit(fid);
        // Local callers return tokens as soon as the call completes
        // (§5.5: "it can return the token any time after the VOP_RDWR
        // call has completed execution").
        self.tm.release(self.host.id, token.fid, token.id);
        result
    }

    /// Runs `f` holding tokens on two files, granted in fid order so two
    /// glue operations cannot deadlock against each other.
    fn with_tokens2<R>(
        &self,
        a: (Fid, TokenTypes),
        b: (Fid, TokenTypes),
        f: impl FnOnce() -> DfsResult<R>,
    ) -> DfsResult<R> {
        let (first, second) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let (t1, _) = self.tm.grant(self.host.id, first.0, first.1, ByteRange::WHOLE)?;
        if first.0 == second.0 {
            self.host.enter(first.0);
            let result = f();
            self.host.exit(first.0);
            self.tm.release(self.host.id, t1.fid, t1.id);
            return result;
        }
        let t2 = match self.tm.grant(self.host.id, second.0, second.1, ByteRange::WHOLE) {
            Ok((t, _)) => t,
            Err(e) => {
                self.tm.release(self.host.id, t1.fid, t1.id);
                return Err(e);
            }
        };
        self.host.enter(first.0);
        self.host.enter(second.0);
        let result = f();
        self.host.exit(second.0);
        self.host.exit(first.0);
        self.tm.release(self.host.id, t2.fid, t2.id);
        self.tm.release(self.host.id, t1.fid, t1.id);
        result
    }
}

const DIR_WRITE: TokenTypes =
    TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0);
const DIR_READ: TokenTypes = TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0);

impl Vfs for Glue {
    fn volume_id(&self) -> dfs_types::VolumeId {
        self.fs.volume_id()
    }

    fn root(&self) -> DfsResult<Fid> {
        self.fs.root()
    }

    fn lookup(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        self.with_tokens(dir, DIR_READ, ByteRange::WHOLE, || self.fs.lookup(cred, dir, name))
    }

    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens(dir, DIR_WRITE, ByteRange::WHOLE, || self.fs.create(cred, dir, name, mode))
    }

    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens(dir, DIR_WRITE, ByteRange::WHOLE, || self.fs.mkdir(cred, dir, name, mode))
    }

    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.with_tokens(dir, DIR_WRITE, ByteRange::WHOLE, || {
            self.fs.symlink(cred, dir, name, target)
        })
    }

    fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.with_tokens2((dir, DIR_WRITE), (target, TokenTypes::STATUS_WRITE), || {
            self.fs.link(cred, dir, name, target)
        })
    }

    fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        // Deleting needs assurance the file has no remote users (§5.4):
        // an exclusive-write open token on the victim.
        let victim = self.fs.lookup(cred, dir, name)?;
        self.with_tokens2(
            (dir, DIR_WRITE),
            (
                victim.fid,
                TokenTypes(
                    TokenTypes::OPEN_EXCLUSIVE_WRITE.0 | TokenTypes::STATUS_WRITE.0,
                ),
            ),
            || self.fs.remove(cred, dir, name),
        )
    }

    fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        let victim = self.fs.lookup(cred, dir, name)?;
        self.with_tokens2((dir, DIR_WRITE), (victim.fid, TokenTypes::STATUS_WRITE), || {
            self.fs.rmdir(cred, dir, name)
        })
    }

    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        self.with_tokens2((src_dir, DIR_WRITE), (dst_dir, DIR_WRITE), || {
            self.fs.rename(cred, src_dir, src_name, dst_dir, dst_name)
        })
    }

    fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        self.with_tokens(dir, DIR_READ, ByteRange::WHOLE, || self.fs.readdir(cred, dir))
    }

    fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        self.with_tokens(
            file,
            TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
            ByteRange::at(offset, len as u64),
            || self.fs.read(cred, file, offset, len),
        )
    }

    fn write(
        &self,
        cred: &Credentials,
        file: Fid,
        offset: u64,
        data: &[u8],
    ) -> DfsResult<FileStatus> {
        self.with_tokens(
            file,
            TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0),
            ByteRange::at(offset, data.len() as u64),
            || self.fs.write(cred, file, offset, data),
        )
    }

    fn getattr(&self, cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        self.with_tokens(file, TokenTypes::STATUS_READ, ByteRange::WHOLE, || {
            self.fs.getattr(cred, file)
        })
    }

    fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let types = if attrs.length.is_some() {
            TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0)
        } else {
            TokenTypes::STATUS_WRITE
        };
        self.with_tokens(file, types, ByteRange::WHOLE, || self.fs.setattr(cred, file, attrs))
    }

    fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String> {
        self.with_tokens(file, TokenTypes::DATA_READ, ByteRange::WHOLE, || {
            self.fs.readlink(cred, file)
        })
    }

    fn fsync(&self, cred: &Credentials, file: Fid) -> DfsResult<()> {
        self.fs.fsync(cred, file)
    }

    fn sync(&self) -> DfsResult<()> {
        self.fs.sync()
    }
}

impl VfsPlus for Glue {
    fn get_acl(&self, cred: &Credentials, file: Fid) -> DfsResult<Acl> {
        self.with_tokens(file, TokenTypes::STATUS_READ, ByteRange::WHOLE, || {
            self.fs.get_acl(cred, file)
        })
    }

    fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()> {
        self.with_tokens(file, TokenTypes::STATUS_WRITE, ByteRange::WHOLE, || {
            self.fs.set_acl(cred, file, acl)
        })
    }
}
