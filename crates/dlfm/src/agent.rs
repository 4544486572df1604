//! The main daemon and per-connection child agents (§2.2).
//!
//! "When a connect request from a database agent is received, the main
//! daemon spawns a child agent which then establishes a connection with the
//! requesting database agent. All subsequent requests (link/unlink
//! operations) from the same connection are served by this child agent."
//!
//! The paper's shape — one thread per connection — collapses under the
//! "millions of users" north star: N database connections would pin N OS
//! threads per file server, nearly all of them idle. The main daemon
//! instead multiplexes every connection over one **shared agent executor**
//! (an [`ElasticPool`] bounded by `DlfmConfig::agent_executor_threads`):
//! an [`AgentHandle`] is a queue endpoint, not a thread, so 256
//! connections ride on a handful of workers. There is no per-connection
//! thread mode: it bought nothing. On the a12 256-agent churn (2-core
//! machine, three `lab --quick` runs) it served 2213 / 2029 / 2226 ops/s
//! on 257 threads against the shared executor's 2174 / 2132 / 2237 ops/s
//! on 16.
//!
//! Each agent operation has exactly one fenced handler here —
//! `serve_link`, `serve_unlink`, `serve_prepare`, `serve_decide` —
//! called by both the in-process [`AgentHandle`] and the wire daemon
//! (`crate::wire`), which adds only its transport bookkeeping. The
//! DataLinks engine holds one agent connection per (connection, file
//! server) and enlists it in the host transaction's 2PC.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};

use crate::modes::{ControlMode, OnUnlink};
use crate::pool::{ElasticPool, Job, PoolOptions, PoolStats};
use crate::server::DlfmServer;

/// Runs `op` under the coordinator fence with panic containment
/// ([`crate::pool::deliver_or_rethrow`]): `reply` always gets the outcome,
/// a panic's context included, before the panic is re-thrown for the pool
/// to count — so a caller never mistakes a contained panic for a dead
/// agent.
fn fenced(
    label: &str,
    server: &DlfmServer,
    coord_epoch: u64,
    op: impl FnOnce() -> Result<(), String>,
    reply: impl FnOnce(Result<(), String>),
) {
    crate::pool::deliver_or_rethrow(
        label,
        || {
            server.guard_coordinator(coord_epoch)?;
            op()
        },
        |outcome| reply(outcome.unwrap_or_else(|msg| Err(format!("agent {msg}")))),
    );
}

/// Links `path` in the context of `host_txid` for a coordinator of
/// generation `coord_epoch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_link(
    server: &DlfmServer,
    coord_epoch: u64,
    host_txid: u64,
    path: &str,
    mode: ControlMode,
    recovery: bool,
    on_unlink: OnUnlink,
    reply: impl FnOnce(Result<(), String>),
) {
    fenced(
        "Link",
        server,
        coord_epoch,
        || server.link_file(host_txid, path, mode, recovery, on_unlink),
        reply,
    );
}

/// Unlinks `path` in the context of `host_txid`.
pub(crate) fn serve_unlink(
    server: &DlfmServer,
    coord_epoch: u64,
    host_txid: u64,
    path: &str,
    reply: impl FnOnce(Result<(), String>),
) {
    fenced("Unlink", server, coord_epoch, || server.unlink_file(host_txid, path), reply);
}

/// 2PC phase one for the sub-transaction of `host_txid`.
pub(crate) fn serve_prepare(
    server: &DlfmServer,
    coord_epoch: u64,
    host_txid: u64,
    reply: impl FnOnce(Result<(), String>),
) {
    fenced("Prepare", server, coord_epoch, || server.prepare_host(host_txid), reply);
}

/// 2PC decision: commit or abort the sub-transaction of `host_txid`. A
/// fenced coordinator's decision is dropped, not applied — the promoted
/// host owns the outcome now. Not panic-contained: a failed commit after
/// the coordinator's decision is an invariant break
/// (`DlfmServer::commit_host` panics on purpose).
pub(crate) fn serve_decide(server: &DlfmServer, coord_epoch: u64, host_txid: u64, commit: bool) {
    if server.guard_coordinator(coord_epoch).is_err() {
        return;
    }
    if commit {
        server.commit_host(host_txid)
    } else {
        server.abort_host(host_txid)
    }
}

/// Handle to a child agent. One per database connection per file server.
/// The handle is stamped with the **coordinator epoch** current at connect
/// time; every request carries it, so after a host failover raises the
/// server's fence, traffic from handles minted under the deposed host is
/// recognizably stale and refused (see `DlfmServer::fence_coordinator`).
///
/// Link/unlink run on the shared executor. 2PC settlement
/// (prepare/commit/abort) runs *inline* on the coordinator's thread, never
/// through the bounded pool. Queueing settlement would deadlock under
/// contention — link/unlink handlers block on repository row locks until
/// the lock-holding transaction settles, so a pool saturated with
/// lock-waiting link requests would leave no worker for the one commit
/// that releases them (the classic bounded-executor starvation cycle).
/// Inline settlement matches the close path's `PreparedTxnParticipant`,
/// which already prepares/commits on the host's committing thread.
#[derive(Clone)]
pub struct AgentHandle {
    executor: Arc<ElasticPool<Job>>,
    server: Arc<DlfmServer>,
    server_name: String,
    coord_epoch: u64,
}

impl AgentHandle {
    /// Runs `op` on the shared executor and waits for its reply.
    fn call(
        &self,
        op: impl FnOnce(&DlfmServer, Sender<Result<(), String>>) + Send + 'static,
    ) -> Result<(), String> {
        let (reply, rx) = bounded(1);
        let server = Arc::clone(&self.server);
        self.executor.submit(Box::new(move || op(&server, reply)));
        rx.recv().map_err(|_| "child agent is down".to_string())?
    }

    /// Links a file in the context of `host_txid`.
    pub fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String> {
        let (coord_epoch, path) = (self.coord_epoch, path.to_string());
        self.call(move |server, reply| {
            serve_link(server, coord_epoch, host_txid, &path, mode, recovery, on_unlink, |r| {
                let _ = reply.send(r);
            })
        })
    }

    /// Unlinks a file in the context of `host_txid`.
    pub fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String> {
        let (coord_epoch, path) = (self.coord_epoch, path.to_string());
        self.call(move |server, reply| {
            serve_unlink(server, coord_epoch, host_txid, &path, |r| {
                let _ = reply.send(r);
            })
        })
    }

    /// The file server this agent fronts.
    pub fn server_name(&self) -> &str {
        &self.server_name
    }

    /// The coordinator epoch this handle was minted under.
    pub fn coord_epoch(&self) -> u64 {
        self.coord_epoch
    }
}

/// The agent participates in the host transaction's two-phase commit (the
/// paper's "operations done in DLFM are treated as a sub-transaction of
/// the host database transaction"), inline on the coordinator's thread —
/// settlement must always make progress even when every executor worker
/// is blocked on a row lock it is about to release (see [`AgentHandle`]).
impl dl_minidb::Participant for AgentHandle {
    fn prepare(&self, txid: u64) -> Result<(), String> {
        let mut vote = None;
        serve_prepare(&self.server, self.coord_epoch, txid, |r| vote = Some(r));
        vote.expect("serve_prepare always replies")
    }

    fn commit(&self, txid: u64) {
        serve_decide(&self.server, self.coord_epoch, txid, true)
    }

    fn abort(&self, txid: u64) {
        serve_decide(&self.server, self.coord_epoch, txid, false)
    }
}

/// What the DataLinks engine needs from an agent connection, independent
/// of how it reaches the file server: the in-process [`AgentHandle`]
/// fast path ([`crate::server::Transport::Local`]) and the framed socket
/// client (`crate::wire::WireAgent`, [`crate::server::Transport::Socket`])
/// implement the same surface, so sharded routing, failover fencing and
/// 2PC enlistment work identically over both.
pub trait AgentConnection: Send + Sync {
    /// Links a file in the context of `host_txid`.
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String>;
    /// Unlinks a file in the context of `host_txid`.
    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String>;
    /// 2PC phase one for this connection's sub-transaction of `host_txid`.
    fn prepare(&self, host_txid: u64) -> Result<(), String>;
    /// 2PC decision, commit path.
    fn commit(&self, host_txid: u64);
    /// 2PC decision, abort path.
    fn abort(&self, host_txid: u64);
    /// The file server this connection fronts.
    fn server_name(&self) -> &str;
    /// The coordinator epoch the connection was minted under.
    fn coord_epoch(&self) -> u64;
}

impl AgentConnection for AgentHandle {
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String> {
        AgentHandle::link(self, host_txid, path, mode, recovery, on_unlink)
    }

    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String> {
        AgentHandle::unlink(self, host_txid, path)
    }

    fn prepare(&self, host_txid: u64) -> Result<(), String> {
        dl_minidb::Participant::prepare(self, host_txid)
    }

    fn commit(&self, host_txid: u64) {
        dl_minidb::Participant::commit(self, host_txid)
    }

    fn abort(&self, host_txid: u64) {
        dl_minidb::Participant::abort(self, host_txid)
    }

    fn server_name(&self) -> &str {
        AgentHandle::server_name(self)
    }

    fn coord_epoch(&self) -> u64 {
        AgentHandle::coord_epoch(self)
    }
}

/// Adapter enlisting any [`AgentConnection`] as a minidb 2PC participant
/// (the engine registers one per touched file server per transaction).
pub struct AgentParticipant(pub Arc<dyn AgentConnection>);

impl dl_minidb::Participant for AgentParticipant {
    fn prepare(&self, txid: u64) -> Result<(), String> {
        self.0.prepare(txid)
    }

    fn commit(&self, txid: u64) {
        self.0.commit(txid)
    }

    fn abort(&self, txid: u64) {
        self.0.abort(txid)
    }
}

/// The main daemon: accepts connections. A connect is a queue
/// registration on the shared executor, not a thread.
pub struct MainDaemon {
    server: Arc<DlfmServer>,
    executor: Arc<ElasticPool<Job>>,
    connections: AtomicUsize,
}

impl MainDaemon {
    pub fn new(server: Arc<DlfmServer>) -> MainDaemon {
        let cfg = server.config();
        let opts = PoolOptions::adaptive(
            &format!("dlfm-agent-{}", cfg.server_name),
            1,
            cfg.agent_executor_threads.max(1),
        );
        let executor = Arc::new(ElasticPool::new(opts, Arc::new(|job: Job| job())));
        MainDaemon { server, executor, connections: AtomicUsize::new(0) }
    }

    /// Handles a connect request from a database agent: registers the
    /// connection on the shared executor and returns its handle.
    pub fn connect(&self) -> AgentHandle {
        self.connections.fetch_add(1, Ordering::Relaxed);
        AgentHandle {
            executor: Arc::clone(&self.executor),
            server: Arc::clone(&self.server),
            server_name: self.server.config().server_name.clone(),
            // The handle inherits the coordinator epoch current right now:
            // a handle minted before a host failover keeps the old epoch
            // and is fenced out; re-connecting after promotion picks up
            // the new one.
            coord_epoch: self.server.coordinator_epoch(),
        }
    }

    /// Number of agent connections accepted so far (logical child agents).
    pub fn child_count(&self) -> usize {
        self.connections.load(Ordering::Relaxed)
    }

    /// OS threads currently serving agent requests: the executor pool's
    /// live worker count.
    pub fn executor_threads(&self) -> usize {
        self.executor.stats().workers()
    }

    /// Shared-executor gauges.
    pub fn executor_stats(&self) -> &PoolStats {
        self.executor.stats()
    }

    /// Type-erased live size of the shared executor, for capacity
    /// aggregation.
    pub fn executor_probe(&self) -> Arc<dyn crate::pool::PoolProbe> {
        Arc::clone(&self.executor) as Arc<dyn crate::pool::PoolProbe>
    }

    /// The shared executor itself, for the wire daemon to submit decoded
    /// frames onto.
    pub(crate) fn wire_executor(&self) -> Arc<ElasticPool<Job>> {
        Arc::clone(&self.executor)
    }
}
