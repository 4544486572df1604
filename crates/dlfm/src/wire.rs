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
//!   connection, and the reply frame, which the thread that produced it
//!   writes straight to the socket.
//! * [`WireConnector`] / [`WireConn`] — the client, which runs no thread
//!   of its own. Each connection owns its socket; each call writes a
//!   request-id-stamped frame, and whichever waiting caller holds the
//!   read turn reads the replies and hands each to its owner. A round
//!   trip is two thread hops: caller → server, server → caller.
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
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_net::{encode_frame, FrameDecoder, Message, NetEvent, Reactor, ReactorHandle};
use dl_obs::{Counter, NetStats};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::agent::{
    serve_decide, serve_link, serve_prepare, serve_unlink, AgentConnection, MainDaemon,
};
use crate::modes::{ControlMode, OnUnlink};
use crate::pool::{ElasticPool, Job, PoolOptions, PoolStats};
use crate::server::{DlfmServer, OpenDecision};
use crate::token::TokenKind;
use crate::upcall::{UpcallClient, UpcallReply, UpcallRequest, UpcallTransport};

/// How long a wire call waits for its reply before it fails. Generous:
/// every server-side stage is pool-queued, and a stall this long means
/// the connection or the daemon is gone. Expired calls are counted in
/// `net.<node>.call_timeouts`.
pub const WIRE_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest one blocking read of the caller holding a connection's
/// read turn; between reads it re-checks its own deadline.
const READ_SLICE: Duration = Duration::from_millis(50);

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
            Reactor::spawn(&format!("wire-{name}"), listener, Arc::clone(&stats), |h| {
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

/// The client side: mints wire connections and owns the instruments they
/// share. It runs no thread — each connection's callers do their own I/O.
pub struct WireConnector {
    stats: Arc<NetStats>,
}

impl WireConnector {
    /// `stats` sees every connection's frames, the caller-observed
    /// round-trip latency and expired calls.
    pub fn new(stats: Arc<NetStats>) -> WireConnector {
        WireConnector { stats }
    }

    /// Opens a connection to a [`WireDaemon`]'s socket and performs the
    /// Hello handshake. The returned connection is stamped with the
    /// coordinator epoch the server held at connect time — exactly like
    /// an in-process agent handle, so failover fencing works unchanged.
    pub fn connect(&self, socket: &Path, client: &str) -> Result<Arc<WireConn>, String> {
        let stream = UnixStream::connect(socket)
            .and_then(|s| {
                s.set_read_timeout(Some(READ_SLICE))?;
                s.set_write_timeout(Some(WIRE_CALL_TIMEOUT))?;
                Ok(s)
            })
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        self.stats.connection_opened();
        let mut conn = WireConn {
            stream,
            write_turn: Mutex::new(()),
            state: Mutex::new(CallState {
                pending: HashMap::new(),
                read_turn: Some(FrameDecoder::new()),
                dead: false,
            }),
            stats: Arc::clone(&self.stats),
            next_req: AtomicU64::new(1),
            round_trips: AtomicU64::new(0),
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

/// One call waiting for its reply.
struct Waiter {
    /// Filled by whichever caller holds the read turn.
    reply: Option<Message>,
    /// Wakes this caller: its reply arrived, the read turn passed to it,
    /// or the connection died.
    wake: Arc<Condvar>,
}

struct CallState {
    /// Calls in flight by request id. A reply whose id is not here — its
    /// caller gave up — is dropped.
    pending: HashMap<u64, Waiter>,
    /// The socket's decoder; `None` while a caller holds the read turn.
    read_turn: Option<FrameDecoder>,
    dead: bool,
}

/// One client connection: request-id-correlated call/reply over a frame
/// stream, plus the session parameters cached from the Hello handshake.
///
/// Callers do the I/O themselves. Each call writes its frame under the
/// write turn; the first caller still waiting takes the read turn and
/// reads the socket, handing every reply it decodes to its owner by
/// request id, while the others park until their reply (or the read
/// turn) comes to them. Any number of callers pipeline on one connection
/// and replies may arrive in any order — a call parked on a server-side
/// row lock holds up no other.
pub struct WireConn {
    stream: UnixStream,
    /// Serializes frame writes, so concurrent callers' frames never
    /// interleave on the socket.
    write_turn: Mutex<()>,
    state: Mutex<CallState>,
    stats: Arc<NetStats>,
    next_req: AtomicU64,
    round_trips: AtomicU64,
    server_name: String,
    coord_epoch: u64,
    strict_link: bool,
    dlfm_uid: u32,
    dlfm_gid: u32,
}

impl WireConn {
    /// One frame round-trip: send `msg`, block until the correlated reply
    /// arrives, the connection dies, or [`WIRE_CALL_TIMEOUT`] passes.
    pub fn call(&self, msg: Message) -> Result<Message, String> {
        self.call_until(msg, Instant::now() + WIRE_CALL_TIMEOUT)
    }

    fn call_until(&self, msg: Message, deadline: Instant) -> Result<Message, String> {
        let rid = self.next_req.fetch_add(1, Ordering::Relaxed);
        let wake = Arc::new(Condvar::new());
        {
            let mut st = self.state.lock();
            if st.dead {
                return Err(format!("wire connection to '{}' is closed", self.server_name));
            }
            // Registered before the frame leaves, so the reply always
            // finds its slot.
            st.pending.insert(rid, Waiter { reply: None, wake: Arc::clone(&wake) });
        }
        let started = Instant::now();
        let frame = encode_frame(rid, &msg);
        let written = {
            let _turn = self.write_turn.lock();
            (&self.stream).write_all(&frame)
        };
        let mut st = self.state.lock();
        match written {
            Ok(()) => {
                self.stats.frames_out.inc();
                self.stats.bytes_out.add(frame.len() as u64);
            }
            // A torn frame desynchronizes the stream for every caller.
            Err(_) => self.mark_dead(&mut st),
        }
        let outcome = loop {
            if let Some(reply) = st.pending.get_mut(&rid).and_then(|w| w.reply.take()) {
                break Ok(reply);
            }
            if st.dead {
                break Err(format!("wire call to '{}' failed: connection lost", self.server_name));
            }
            let now = Instant::now();
            if now >= deadline {
                self.stats.call_timeouts.inc();
                break Err(format!(
                    "wire call to '{}' timed out after {:?}",
                    self.server_name,
                    now - started
                ));
            }
            match st.read_turn.take() {
                Some(mut decoder) => {
                    let read = MutexGuard::unlocked(&mut st, || self.read_slice(&mut decoder));
                    st.read_turn = Some(decoder);
                    match read {
                        Ok(frames) => {
                            for (id, reply) in frames {
                                if let Some(w) = st.pending.get_mut(&id) {
                                    w.reply = Some(reply);
                                    if id != rid {
                                        w.wake.notify_one();
                                    }
                                }
                            }
                        }
                        Err(()) => self.mark_dead(&mut st),
                    }
                }
                None => {
                    wake.wait_for(&mut st, deadline - now);
                }
            }
        };
        st.pending.remove(&rid);
        // Pass the read turn on: someone still waiting must read next.
        if st.read_turn.is_some() {
            if let Some(w) = st.pending.values().find(|w| w.reply.is_none()) {
                w.wake.notify_one();
            }
        }
        drop(st);
        if outcome.is_ok() {
            self.stats.round_trip_ns.record_duration(started.elapsed());
            self.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// One read of at most [`READ_SLICE`], decoded into whole frames
    /// (none when the slice passed quietly). `Err` means the connection is
    /// over: EOF, a socket error, or bytes that do not decode.
    fn read_slice(&self, decoder: &mut FrameDecoder) -> Result<Vec<(u64, Message)>, ()> {
        let mut buf = [0u8; 8192];
        let n = loop {
            match (&self.stream).read(&mut buf) {
                Ok(0) => return Err(()),
                Ok(n) => break n,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(Vec::new())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        };
        self.stats.bytes_in.add(n as u64);
        decoder.feed(&buf[..n]);
        let mut frames = Vec::new();
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.stats.frames_in.inc();
                    frames.push(frame);
                }
                Ok(None) => return Ok(frames),
                Err(_) => {
                    self.stats.decode_errors.inc();
                    return Err(());
                }
            }
        }
    }

    /// Marks the connection dead (once): shuts the socket down, which
    /// also ends a read in progress, and fails every waiting call.
    fn mark_dead(&self, st: &mut CallState) {
        if st.dead {
            return;
        }
        st.dead = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.stats.connection_closed();
        for w in st.pending.values() {
            w.wake.notify_one();
        }
    }

    /// Severs the connection abruptly — no goodbye, no flush. This is the
    /// a14 scenario's fault injection: whatever 2PC state the connection
    /// held must resolve by presumed abort on the server.
    pub fn sever(&self) {
        self.mark_dead(&mut self.state.lock());
    }

    /// Has the connection been torn down? A sever flips it at once; a
    /// server that went away is noticed by the next call on the
    /// connection.
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
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

impl Drop for WireConn {
    fn drop(&mut self) {
        self.sever();
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
        self.0.round_trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;
    use std::sync::mpsc;

    /// A hand-driven server end: answers the Hello handshake, then lets
    /// the test read requests and write replies in any order it likes.
    struct RawPeer {
        stream: UnixStream,
        decoder: FrameDecoder,
    }

    impl RawPeer {
        fn accept(listener: &UnixListener) -> RawPeer {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = RawPeer { stream, decoder: FrameDecoder::new() };
            let (rid, hello) = peer.next_request();
            assert!(matches!(hello, Message::Hello { .. }));
            peer.reply(
                rid,
                &Message::HelloAck {
                    server: "raw".into(),
                    coord_epoch: 1,
                    strict_link: false,
                    dlfm_uid: 0,
                    dlfm_gid: 0,
                },
            );
            peer
        }

        fn next_request(&mut self) -> (u64, Message) {
            let mut buf = [0u8; 4096];
            loop {
                if let Some(frame) = self.decoder.next_frame().unwrap() {
                    return frame;
                }
                let n = self.stream.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up");
                self.decoder.feed(&buf[..n]);
            }
        }

        fn reply(&mut self, rid: u64, msg: &Message) {
            self.stream.write_all(&encode_frame(rid, msg)).unwrap();
        }
    }

    /// A raw server on a fresh socket running `serve`, and a client
    /// connection to it.
    fn raw_pair(
        tag: &str,
        serve: impl FnOnce(RawPeer) + Send + 'static,
    ) -> (Arc<WireConn>, std::thread::JoinHandle<()>) {
        let path =
            std::env::temp_dir().join(format!("dl-wire-unit-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || serve(RawPeer::accept(&listener)));
        let conn = WireConnector::new(Arc::new(NetStats::new())).connect(&path, "t").unwrap();
        let _ = std::fs::remove_file(&path);
        (conn, server)
    }

    #[test]
    fn callers_sharing_a_connection_each_get_their_own_out_of_order_reply() {
        // The server holds every reply until all eight calls are in
        // flight, then answers newest first, echoing each request.
        let (conn, server) = raw_pair("reverse", |mut peer| {
            let requests: Vec<_> = (0..8).map(|_| peer.next_request()).collect();
            for (rid, msg) in requests.into_iter().rev() {
                peer.reply(rid, &msg);
            }
        });
        std::thread::scope(|scope| {
            for t in 0..8 {
                let conn = &conn;
                scope.spawn(move || {
                    let mine = Message::MutationCheck { path: format!("/t{t}") };
                    assert_eq!(conn.call(mine.clone()).unwrap(), mine);
                });
            }
        });
        server.join().unwrap();
        assert!(conn.state.lock().pending.is_empty());
        assert_eq!(conn.round_trips.load(Ordering::Relaxed), 9, "Hello plus eight calls");
    }

    #[test]
    fn an_expired_call_is_counted_and_its_late_reply_dropped() {
        let (expired_tx, expired_rx) = mpsc::channel();
        let (conn, server) = raw_pair("timeout", move |mut peer| {
            let (late, _) = peer.next_request();
            expired_rx.recv().unwrap();
            peer.reply(late, &Message::EpochIs(1));
            let (rid, _) = peer.next_request();
            peer.reply(rid, &Message::EpochIs(2));
        });
        let err = conn
            .call_until(Message::EpochGet, Instant::now() + Duration::from_millis(20))
            .unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert_eq!(conn.stats.call_timeouts.get(), 1);
        expired_tx.send(()).unwrap();
        assert_eq!(conn.call(Message::EpochGet).unwrap(), Message::EpochIs(2));
        server.join().unwrap();
        assert!(conn.state.lock().pending.is_empty(), "the late reply is not kept");
        assert!(!conn.is_dead(), "a timeout costs the call, not the connection");
    }
}
