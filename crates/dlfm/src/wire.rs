//! The DLFM protocol on the wire (`Transport::Socket`).
//!
//! The paper's host↔DLFM boundary is a network boundary: database agents
//! and DLFS talk to the daemon complex over connections, not function
//! calls. This module is that boundary made real on top of `dl-net`'s
//! frame codec and poll(2) reactor:
//!
//! * [`WireDaemon`] — the server. One reactor thread serves every agent
//!   and upcall connection of a node over a Unix-domain socket; decoded
//!   frames fan out to the *same* pools the in-process path uses — link/
//!   unlink to the shared agent executor, upcalls to the elastic upcall
//!   pool, and 2PC settlement to a small dedicated settle pool (never the
//!   agent executor: settlement queued behind lock-waiting link jobs is
//!   the classic bounded-executor deadlock, see `crate::agent`).
//!   Thousands of connections therefore ride on a fixed thread count.
//!   Link, unlink, prepare and decide run the same fenced handlers as the
//!   in-process path (`crate::agent::serve_*`); this module adds only the
//!   transport's bookkeeping: tombstones, in-flight host transactions per
//!   connection, and the reply frame.
//! * [`WireConnector`] / [`WireConn`] — the client. One reactor
//!   multiplexes any number of outbound connections; each call is a
//!   request-id-correlated frame round-trip.
//! * [`WireAgent`] / [`WireUpcall`] — adapters giving the wire client the
//!   [`AgentConnection`] and [`UpcallTransport`] surfaces, so the engine
//!   and DLFS cannot tell the transports apart.
//!
//! **Presumed abort on connection loss.** A severed connection's
//! unsettled host transactions are resolved on the settle pool through
//! [`DlfmServer::resolve_client_loss`]: commit only if the host recorded
//! a commit, abort otherwise — a client that died between prepare and
//! decide never committed. A link job racing the disconnect settles its
//! own sub-transaction when it finds the connection's tombstone, so no
//! sub-transaction leaks the resolution sweep.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dl_net::{Message, NetEvent, Reactor, ReactorHandle};
use dl_obs::{Counter, NetStats};
use parking_lot::Mutex;

use crate::agent::{
    serve_decide, serve_link, serve_prepare, serve_unlink, AgentConnection, MainDaemon,
};
use crate::modes::{ControlMode, OnUnlink};
use crate::pool::{ElasticPool, Job, PoolOptions, PoolStats};
use crate::server::{DlfmServer, OpenDecision};
use crate::token::TokenKind;
use crate::upcall::{UpcallClient, UpcallReply, UpcallRequest, UpcallTransport};

/// How long a client waits for a reply frame before declaring the call
/// lost. Generous: every server-side stage is pool-queued, and a stall
/// this long means the connection or the daemon is gone.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

// Enum ↔ u8 wire mappings. `dl-net` carries raw discriminants so it
// stays independent of DLFM's type definitions; this module is the one
// place the mapping lives.

fn mode_to_u8(m: ControlMode) -> u8 {
    match m {
        ControlMode::Nff => 0,
        ControlMode::Rff => 1,
        ControlMode::Rfb => 2,
        ControlMode::Rdb => 3,
        ControlMode::Rfd => 4,
        ControlMode::Rdd => 5,
    }
}

fn mode_from_u8(b: u8) -> Option<ControlMode> {
    Some(match b {
        0 => ControlMode::Nff,
        1 => ControlMode::Rff,
        2 => ControlMode::Rfb,
        3 => ControlMode::Rdb,
        4 => ControlMode::Rfd,
        5 => ControlMode::Rdd,
        _ => return None,
    })
}

fn on_unlink_to_u8(o: OnUnlink) -> u8 {
    match o {
        OnUnlink::Restore => 0,
        OnUnlink::Delete => 1,
    }
}

fn on_unlink_from_u8(b: u8) -> Option<OnUnlink> {
    Some(match b {
        0 => OnUnlink::Restore,
        1 => OnUnlink::Delete,
        _ => return None,
    })
}

fn token_kind_to_u8(k: TokenKind) -> u8 {
    match k {
        TokenKind::Read => 0,
        TokenKind::Write => 1,
    }
}

fn token_kind_from_u8(b: u8) -> Option<TokenKind> {
    Some(match b {
        0 => TokenKind::Read,
        1 => TokenKind::Write,
        _ => return None,
    })
}

fn result_msg(result: Result<(), String>) -> Message {
    match result {
        Ok(()) => Message::Ok,
        Err(e) => Message::Err(e),
    }
}

/// Distinguishes concurrently-running wire daemons' socket files within
/// one process (tests spin up many nodes).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// The server side: a reactor serving framed agent/upcall connections
/// over one Unix-domain socket, multiplexed onto the node's daemon pools.
pub struct WireDaemon {
    /// Owns the poller thread; dropped last-ish (field order) so handler
    /// state stays alive while it drains.
    _reactor: Reactor,
    path: PathBuf,
    /// 2PC settlement + disconnect resolution. Small and dedicated: these
    /// jobs must make progress even when every agent-executor worker
    /// blocks on a row lock only a settlement can release.
    settle: Arc<ElasticPool<Job>>,
    presumed_aborts: Arc<Counter>,
    stats: Arc<NetStats>,
}

impl WireDaemon {
    /// Binds the node's wire socket and starts serving. Frames route to
    /// `main`'s shared agent executor, `upcall`'s elastic pool, and a
    /// dedicated settle pool; `stats` sees every connection and frame.
    pub fn spawn(
        server: Arc<DlfmServer>,
        main: &MainDaemon,
        upcall: UpcallClient,
        stats: Arc<NetStats>,
    ) -> Result<WireDaemon, String> {
        let name = server.config().server_name.clone();
        let path = std::env::temp_dir().join(format!(
            "dl-wire-{}-{}-{}.sock",
            std::process::id(),
            SOCKET_SEQ.fetch_add(1, Ordering::Relaxed),
            name
        ));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("bind wire socket {}: {e}", path.display()))?;

        let settle = Arc::new(ElasticPool::new(
            PoolOptions::fixed(&format!("dlfm-settle-{name}"), 4),
            Arc::new(|job: Job| job()),
        ));
        let presumed_aborts = Arc::new(Counter::new());
        let reactor = {
            let (settle, presumed_aborts) = (Arc::clone(&settle), Arc::clone(&presumed_aborts));
            Reactor::spawn(&format!("wire-{name}"), Some(listener), Arc::clone(&stats), |h| {
                let front = Arc::new(Front {
                    h: h.clone(),
                    server,
                    executor: main.wire_executor(),
                    settle,
                    upcall,
                    inflight: Mutex::new(HashMap::new()),
                    dead: Mutex::new(HashSet::new()),
                    presumed_aborts,
                });
                move |ev| serve_event(&front, ev)
            })
            .map_err(|e| format!("spawn wire reactor: {e}"))?
        };

        Ok(WireDaemon { _reactor: reactor, path, settle, presumed_aborts, stats })
    }

    /// The Unix-socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// Host transactions settled by presumed abort after their connection
    /// died mid-2PC.
    pub fn presumed_aborts(&self) -> &Arc<Counter> {
        &self.presumed_aborts
    }

    /// Live gauges of the settle pool (thread-accounting in benches).
    pub fn settle_stats(&self) -> &PoolStats {
        self.settle.stats()
    }

    /// This daemon's wire instruments.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

impl Drop for WireDaemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The server's event handler: which pool each frame runs on, and the
/// transport's own bookkeeping around the fenced agent handlers of
/// `crate::agent` — dead-connection tombstones, per-connection in-flight
/// host transactions, and the reply frame.
struct Front {
    h: ReactorHandle,
    server: Arc<DlfmServer>,
    executor: Arc<ElasticPool<Job>>,
    settle: Arc<ElasticPool<Job>>,
    upcall: UpcallClient,
    /// Host transactions each connection still has in flight. Touched
    /// from the reactor thread and the pools; the map is the
    /// serialization point.
    inflight: Mutex<HashMap<u64, HashSet<u64>>>,
    /// Tombstones of connections already torn down.
    dead: Mutex<HashSet<u64>>,
    presumed_aborts: Arc<Counter>,
}

/// One reactor event: route a frame to the right pool, or sweep a dead
/// connection's transactions.
fn serve_event(front: &Arc<Front>, ev: NetEvent) {
    let (conn, rid, msg) = match ev {
        NetEvent::Accepted(_) => return,
        NetEvent::Disconnected(conn) => {
            // Tombstone first: any queued or future job for this
            // connection must see it before deciding to apply work.
            front.dead.lock().insert(conn);
            let txids = front.inflight.lock().remove(&conn).unwrap_or_default();
            if !txids.is_empty() {
                let (server, presumed_aborts) =
                    (Arc::clone(&front.server), Arc::clone(&front.presumed_aborts));
                front.settle.submit(Box::new(move || {
                    for txid in txids {
                        if !server.resolve_client_loss(txid) {
                            presumed_aborts.inc();
                        }
                    }
                }));
            }
            return;
        }
        NetEvent::Frame { conn, request_id, msg } => (conn, request_id, msg),
    };
    let h = &front.h;

    match msg {
        // --- session, served inline on the reactor thread (cheap) ---
        Message::Hello { client: _ } => {
            let cfg = front.server.config();
            h.send(
                conn,
                rid,
                &Message::HelloAck {
                    server: cfg.server_name.clone(),
                    coord_epoch: front.server.coordinator_epoch(),
                    strict_link: cfg.strict_link,
                    dlfm_uid: cfg.dlfm_cred.uid,
                    dlfm_gid: cfg.dlfm_cred.gid,
                },
            );
        }
        Message::EpochGet => h.send(conn, rid, &Message::EpochIs(front.server.epoch())),
        Message::FreshnessToken => {
            h.send(conn, rid, &Message::Freshness(front.server.repository().db().durable_lsn()))
        }

        // --- link/unlink, on the shared agent executor ---------------
        Message::Link { txid, coord_epoch, path, mode, recovery, on_unlink } => {
            let (Some(mode), Some(on_unlink)) = (mode_from_u8(mode), on_unlink_from_u8(on_unlink))
            else {
                h.send(conn, rid, &Message::Err("bad mode/on_unlink discriminant".into()));
                return;
            };
            front.on_executor(conn, rid, txid, move |srv, reply| {
                serve_link(srv, coord_epoch, txid, &path, mode, recovery, on_unlink, reply)
            });
        }
        Message::Unlink { txid, coord_epoch, path } => {
            front.on_executor(conn, rid, txid, move |srv, reply| {
                serve_unlink(srv, coord_epoch, txid, &path, reply)
            });
        }

        // --- 2PC settlement, on the dedicated settle pool ------------
        Message::Prepare { txid, coord_epoch } => front.prepare(conn, rid, txid, coord_epoch),
        Message::Commit { txid, coord_epoch } => front.decide(conn, rid, txid, coord_epoch, true),
        Message::Abort { txid, coord_epoch } => front.decide(conn, rid, txid, coord_epoch, false),

        // --- upcalls, on the elastic upcall pool ---------------------
        Message::ValidateToken { path, token, uid } => {
            let h = h.clone();
            front.upcall.submit_with(
                UpcallRequest::ValidateToken { path, token, uid },
                move |rep| {
                    let msg = match rep {
                        UpcallReply::TokenValid(kind) => {
                            Message::TokenKindIs(token_kind_to_u8(kind))
                        }
                        UpcallReply::Rejected(e) => Message::Err(e),
                        other => Message::Err(format!("unexpected reply {other:?}")),
                    };
                    h.send(conn, rid, &msg);
                },
            );
        }
        Message::OpenCheck { path, uid, wanted, opener } => {
            let Some(wanted) = token_kind_from_u8(wanted) else {
                h.send(conn, rid, &Message::Err("bad token-kind discriminant".into()));
                return;
            };
            let h = h.clone();
            front.upcall.submit_with(
                UpcallRequest::OpenCheck { path, uid, wanted, opener },
                move |rep| {
                    let msg = match rep {
                        UpcallReply::Open(OpenDecision::Approved { open_as }) => {
                            Message::OpenApproved { uid: open_as.uid, gid: open_as.gid }
                        }
                        UpcallReply::Open(OpenDecision::NotManaged) => Message::OpenNotManaged,
                        UpcallReply::Open(OpenDecision::Busy) => Message::OpenBusy,
                        UpcallReply::Open(OpenDecision::Rejected(e)) => Message::OpenRejected(e),
                        UpcallReply::Rejected(e) => Message::OpenRejected(e),
                        other => Message::OpenRejected(format!("unexpected reply {other:?}")),
                    };
                    h.send(conn, rid, &msg);
                },
            );
        }
        Message::CloseNotify { path, opener, wrote, size, mtime } => {
            let h = h.clone();
            front.upcall.submit_with(
                UpcallRequest::CloseNotify { path, opener, wrote, size, mtime },
                move |rep| {
                    let msg = match rep {
                        UpcallReply::Ok => Message::Ok,
                        UpcallReply::Rejected(e) => Message::Err(e),
                        other => Message::Err(format!("unexpected reply {other:?}")),
                    };
                    h.send(conn, rid, &msg);
                },
            );
        }
        Message::MutationCheck { path } => {
            let h = h.clone();
            front.upcall.submit_with(UpcallRequest::MutationCheck { path }, move |rep| {
                let msg = match rep {
                    UpcallReply::Ok => Message::Ok,
                    UpcallReply::Rejected(e) => Message::Err(e),
                    other => Message::Err(format!("unexpected reply {other:?}")),
                };
                h.send(conn, rid, &msg);
            });
        }
        Message::RegisterOpen { path, uid, opener } => {
            let h = h.clone();
            front
                .upcall
                .submit_with(UpcallRequest::RegisterOpen { path, uid, opener }, move |_rep| {
                    h.send(conn, rid, &Message::Ok)
                });
        }
        Message::UnregisterOpen { path, opener } => {
            let h = h.clone();
            front.upcall.submit_with(UpcallRequest::UnregisterOpen { path, opener }, move |_rep| {
                h.send(conn, rid, &Message::Ok)
            });
        }

        // A server never receives reply-tagged frames.
        other => {
            h.send(conn, rid, &Message::Err(format!("unexpected message {other:?}")));
        }
    }
}

impl Front {
    /// Sends a reply frame unless the connection is already gone.
    fn reply(&self, conn: u64, rid: u64, msg: &Message) {
        if !self.dead.lock().contains(&conn) {
            self.h.send(conn, rid, msg);
        }
    }

    /// Queues a link/unlink of `txid` on the shared agent executor. Work
    /// queued for a connection that has since died is skipped. A
    /// sub-transaction the handler opened after its connection died is
    /// settled here, by presumed abort: the disconnect sweep may have run
    /// before it existed.
    fn on_executor(
        self: &Arc<Self>,
        conn: u64,
        rid: u64,
        txid: u64,
        op: impl FnOnce(&DlfmServer, Box<dyn FnOnce(Result<(), String>) + '_>) + Send + 'static,
    ) {
        self.inflight.lock().entry(conn).or_default().insert(txid);
        let front = Arc::clone(self);
        self.executor.submit(Box::new(move || {
            if front.dead.lock().contains(&conn) {
                return;
            }
            op(
                &front.server,
                Box::new(|result| {
                    if front.dead.lock().contains(&conn) {
                        if result.is_ok() {
                            front.server.abort_host(txid);
                        }
                        return;
                    }
                    front.h.send(conn, rid, &result_msg(result));
                }),
            );
        }));
    }

    /// Queues a 2PC prepare of `txid` on the settle pool.
    fn prepare(self: &Arc<Self>, conn: u64, rid: u64, txid: u64, coord_epoch: u64) {
        self.inflight.lock().entry(conn).or_default().insert(txid);
        let front = Arc::clone(self);
        self.settle.submit(Box::new(move || {
            serve_prepare(&front.server, coord_epoch, txid, |result| {
                front.reply(conn, rid, &result_msg(result))
            })
        }));
    }

    /// Queues a 2PC decision on the settle pool. The reply still unblocks
    /// a fenced caller whose decision was dropped — same as the local
    /// route.
    fn decide(self: &Arc<Self>, conn: u64, rid: u64, txid: u64, coord_epoch: u64, commit: bool) {
        let front = Arc::clone(self);
        self.settle.submit(Box::new(move || {
            serve_decide(&front.server, coord_epoch, txid, commit);
            if let Some(set) = front.inflight.lock().get_mut(&conn) {
                set.remove(&txid);
            }
            front.reply(conn, rid, &Message::Ok);
        }));
    }
}

/// Per-connection client state shared with the connector's event handler.
#[derive(Default)]
struct ConnShared {
    /// Outstanding calls by request-id; the handler routes reply frames
    /// here. Dropping a sender fails the waiting caller fast.
    pending: Mutex<HashMap<u64, mpsc::Sender<Message>>>,
    dead: AtomicBool,
    round_trips: AtomicU64,
}

/// The client side: one reactor multiplexing any number of outbound wire
/// connections.
pub struct WireConnector {
    _reactor: Reactor,
    handle: ReactorHandle,
    conns: Arc<Mutex<HashMap<u64, Arc<ConnShared>>>>,
    stats: Arc<NetStats>,
}

impl WireConnector {
    /// Starts the client reactor. `stats` sees every connection's frames
    /// and the caller-observed round-trip latency.
    pub fn new(name: &str, stats: Arc<NetStats>) -> Result<WireConnector, String> {
        let conns: Arc<Mutex<HashMap<u64, Arc<ConnShared>>>> = Arc::new(Mutex::new(HashMap::new()));
        let reactor = {
            let conns = Arc::clone(&conns);
            Reactor::spawn(&format!("wire-cli-{name}"), None, Arc::clone(&stats), |_h| {
                move |ev| match ev {
                    NetEvent::Accepted(_) => {}
                    NetEvent::Frame { conn, request_id, msg } => {
                        let shared = conns.lock().get(&conn).map(Arc::clone);
                        if let Some(shared) = shared {
                            if let Some(tx) = shared.pending.lock().remove(&request_id) {
                                let _ = tx.send(msg);
                            }
                        }
                    }
                    NetEvent::Disconnected(conn) => {
                        if let Some(shared) = conns.lock().remove(&conn) {
                            shared.dead.store(true, Ordering::Relaxed);
                            // Drop every waiting caller's sender: they get
                            // a RecvError now instead of a full timeout.
                            shared.pending.lock().clear();
                        }
                    }
                }
            })
            .map_err(|e| format!("spawn wire client reactor: {e}"))?
        };
        let handle = reactor.handle();
        Ok(WireConnector { _reactor: reactor, handle, conns, stats })
    }

    /// Opens a connection to a [`WireDaemon`]'s socket and performs the
    /// Hello handshake. The returned connection is stamped with the
    /// coordinator epoch the server held at connect time — exactly like
    /// an in-process agent handle, so failover fencing works unchanged.
    pub fn connect(&self, socket: &Path, client: &str) -> Result<Arc<WireConn>, String> {
        let stream = std::os::unix::net::UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        let id = self.handle.register(stream).map_err(|e| format!("register wire conn: {e}"))?;
        let shared = Arc::new(ConnShared::default());
        self.conns.lock().insert(id, Arc::clone(&shared));
        let mut conn = WireConn {
            id,
            handle: self.handle.clone(),
            shared,
            stats: Arc::clone(&self.stats),
            next_req: AtomicU64::new(1),
            server_name: String::new(),
            coord_epoch: 0,
            strict_link: false,
            dlfm_uid: 0,
            dlfm_gid: 0,
        };
        match conn.call(Message::Hello { client: client.to_string() })? {
            Message::HelloAck { server, coord_epoch, strict_link, dlfm_uid, dlfm_gid } => {
                conn.server_name = server;
                conn.coord_epoch = coord_epoch;
                conn.strict_link = strict_link;
                conn.dlfm_uid = dlfm_uid;
                conn.dlfm_gid = dlfm_gid;
            }
            other => return Err(format!("bad hello reply: {other:?}")),
        }
        Ok(Arc::new(conn))
    }

    /// This connector's wire instruments.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

/// One client connection: request-id-correlated call/reply over a frame
/// stream, plus the session parameters cached from the Hello handshake.
pub struct WireConn {
    id: u64,
    handle: ReactorHandle,
    shared: Arc<ConnShared>,
    stats: Arc<NetStats>,
    next_req: AtomicU64,
    server_name: String,
    coord_epoch: u64,
    strict_link: bool,
    dlfm_uid: u32,
    dlfm_gid: u32,
}

impl WireConn {
    /// One frame round-trip: send `msg`, block until the correlated reply
    /// arrives, the connection dies, or the 30 s call timeout passes.
    pub fn call(&self, msg: Message) -> Result<Message, String> {
        if self.shared.dead.load(Ordering::Relaxed) {
            return Err(format!("wire connection to '{}' is closed", self.server_name));
        }
        let rid = self.next_req.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.shared.pending.lock().insert(rid, tx);
        let started = Instant::now();
        self.handle.send(self.id, rid, &msg);
        match rx.recv_timeout(CALL_TIMEOUT) {
            Ok(reply) => {
                self.stats.round_trip_ns.record_duration(started.elapsed());
                self.shared.round_trips.fetch_add(1, Ordering::Relaxed);
                Ok(reply)
            }
            Err(_) => {
                self.shared.pending.lock().remove(&rid);
                Err(format!("wire call to '{}' failed: connection lost", self.server_name))
            }
        }
    }

    /// Severs the connection abruptly — no goodbye, no flush. This is the
    /// a14 scenario's fault injection: whatever 2PC state the connection
    /// held must resolve by presumed abort on the server.
    pub fn sever(&self) {
        self.handle.close(self.id);
    }

    /// Has the connection been torn down (severed or lost)?
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Relaxed)
    }

    /// The server's repository durable LSN — the wire form of the
    /// freshness token read-your-writes routing uses.
    pub fn freshness_token(&self) -> Result<u64, String> {
        match self.call(Message::FreshnessToken)? {
            Message::Freshness(lsn) => Ok(lsn),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn call_result(&self, msg: Message) -> Result<(), String> {
        match self.call(msg)? {
            Message::Ok => Ok(()),
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// A wire connection wearing the agent hat: the engine's 2PC participant
/// and link/unlink channel, indistinguishable from a local
/// [`crate::AgentHandle`].
pub struct WireAgent(pub Arc<WireConn>);

impl AgentConnection for WireAgent {
    fn link(
        &self,
        host_txid: u64,
        path: &str,
        mode: ControlMode,
        recovery: bool,
        on_unlink: OnUnlink,
    ) -> Result<(), String> {
        self.0.call_result(Message::Link {
            txid: host_txid,
            coord_epoch: self.0.coord_epoch,
            path: path.to_string(),
            mode: mode_to_u8(mode),
            recovery,
            on_unlink: on_unlink_to_u8(on_unlink),
        })
    }

    fn unlink(&self, host_txid: u64, path: &str) -> Result<(), String> {
        self.0.call_result(Message::Unlink {
            txid: host_txid,
            coord_epoch: self.0.coord_epoch,
            path: path.to_string(),
        })
    }

    fn prepare(&self, host_txid: u64) -> Result<(), String> {
        self.0.call_result(Message::Prepare { txid: host_txid, coord_epoch: self.0.coord_epoch })
    }

    fn commit(&self, host_txid: u64) {
        // A lost connection mid-decide is fine: the server's disconnect
        // sweep asks the host for the recorded outcome and applies it.
        let _ = self.0.call(Message::Commit { txid: host_txid, coord_epoch: self.0.coord_epoch });
    }

    fn abort(&self, host_txid: u64) {
        let _ = self.0.call(Message::Abort { txid: host_txid, coord_epoch: self.0.coord_epoch });
    }

    fn server_name(&self) -> &str {
        &self.0.server_name
    }

    fn coord_epoch(&self) -> u64 {
        self.0.coord_epoch
    }
}

/// A wire connection wearing the upcall hat: DLFS's endpoint when the
/// node runs `Transport::Socket`.
pub struct WireUpcall(pub Arc<WireConn>);

impl UpcallTransport for WireUpcall {
    fn validate_token(&self, path: &str, token: &str, uid: u32) -> Result<TokenKind, String> {
        match self.0.call(Message::ValidateToken {
            path: path.to_string(),
            token: token.to_string(),
            uid,
        })? {
            Message::TokenKindIs(k) => {
                token_kind_from_u8(k).ok_or_else(|| "bad token-kind discriminant".to_string())
            }
            Message::Err(e) => Err(e),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn open_check(&self, path: &str, uid: u32, wanted: TokenKind, opener: u64) -> OpenDecision {
        let reply = self.0.call(Message::OpenCheck {
            path: path.to_string(),
            uid,
            wanted: token_kind_to_u8(wanted),
            opener,
        });
        match reply {
            Ok(Message::OpenApproved { uid, gid }) => {
                OpenDecision::Approved { open_as: dl_fskit::Cred { uid, gid } }
            }
            Ok(Message::OpenNotManaged) => OpenDecision::NotManaged,
            Ok(Message::OpenBusy) => OpenDecision::Busy,
            Ok(Message::OpenRejected(e)) => OpenDecision::Rejected(e),
            Ok(other) => OpenDecision::Rejected(format!("unexpected reply {other:?}")),
            Err(e) => OpenDecision::Rejected(e),
        }
    }

    fn close_notify(
        &self,
        path: &str,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    ) -> Result<(), String> {
        self.0.call_result(Message::CloseNotify {
            path: path.to_string(),
            opener,
            wrote,
            size,
            mtime,
        })
    }

    fn mutation_check(&self, path: &str) -> Result<(), String> {
        self.0.call_result(Message::MutationCheck { path: path.to_string() })
    }

    fn register_open(&self, path: &str, uid: u32, opener: u64) {
        let _ = self.0.call(Message::RegisterOpen { path: path.to_string(), uid, opener });
    }

    fn unregister_open(&self, path: &str, opener: u64) {
        let _ = self.0.call(Message::UnregisterOpen { path: path.to_string(), opener });
    }

    fn strict_link(&self) -> bool {
        self.0.strict_link
    }

    fn dlfm_uid(&self) -> u32 {
        self.0.dlfm_uid
    }

    fn epoch(&self) -> u64 {
        match self.0.call(Message::EpochGet) {
            Ok(Message::EpochIs(e)) => e,
            _ => 0,
        }
    }

    fn wait_epoch_change(&self, seen: u64) {
        // No server-side blocking over the wire: poll the epoch with a
        // short sleep. A dead connection returns immediately — the caller
        // re-checks its condition and fails from there.
        loop {
            match self.0.call(Message::EpochGet) {
                Ok(Message::EpochIs(e)) if e == seen => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => return,
            }
        }
    }

    fn round_trip_count(&self) -> u64 {
        self.0.shared.round_trips.load(Ordering::Relaxed)
    }
}
