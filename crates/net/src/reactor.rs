//! A small poll(2)-driven reactor over nonblocking Unix-domain sockets.
//!
//! One thread owns every socket's read side: it polls for readiness,
//! drains readable connections through a [`FrameDecoder`], flushes write
//! queues that a full socket buffer left behind, and accepts new
//! connections from the listener. Everything the caller sees
//! arrives as a [`NetEvent`] through the handler closure — the handler
//! runs *on the poller thread*, so it must never block on work that
//! itself needs the poller (hand such work to an executor and reply later
//! through the [`ReactorHandle`]).
//!
//! Sends write through: [`ReactorHandle::send`] writes the frame on the
//! calling thread — a pool worker, the poller itself, anyone — under the
//! connection's writer lock, which the poller shares. Only what a full
//! socket buffer refused is queued, and only then is the poller woken to
//! wait for writability, so an uncongested reply costs no poller wakeup.
//!
//! Built only on `std::os::unix::net` plus a hand-declared poll(2) FFI —
//! no tokio, no mio. A `UnixStream::pair` serves as the waker: any
//! thread with a handle writes one byte to nudge the poller out of its
//! wait.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use dl_obs::NetStats;
use parking_lot::Mutex;

use crate::frame::{encode_frame, FrameDecoder, Message};

// poll(2), declared by hand: the only libc surface this crate needs.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// What the reactor tells its owner. `Frame` carries the request-id so a
/// server can stamp its reply and a client can correlate it.
pub enum NetEvent {
    /// A connection is up: accepted from the listener.
    Accepted(u64),
    /// A complete frame arrived on `conn`.
    Frame { conn: u64, request_id: u64, msg: Message },
    /// The connection is gone — peer hangup, I/O error, decode failure,
    /// or an explicit [`ReactorHandle::close`]. Emitted exactly once per
    /// connection that saw `Accepted`.
    Disconnected(u64),
}

enum Cmd {
    Close { id: u64 },
    Shutdown,
}

/// One connection's socket, shared by the poller (reads, queued writes)
/// and every thread that sends on it.
struct Endpoint {
    stream: UnixStream,
    out: Mutex<OutQueue>,
}

impl Endpoint {
    /// Drops whatever is still queued and refuses later sends.
    fn close_queue(&self) {
        let mut out = self.out.lock();
        out.closed = true;
        out.frames.clear();
    }
}

/// Frames a full socket buffer refused, oldest first. While any are
/// queued, new frames join the tail, so frames never reorder or
/// interleave; the poller flushes the queue on writability.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames.front()` already written.
    pos: usize,
    /// Set at teardown: later sends are dropped.
    closed: bool,
}

enum Flush {
    Drained,
    Blocked,
    Failed,
}

impl OutQueue {
    /// Writes queued bytes until the queue drains, the socket buffer
    /// fills, or the socket fails.
    fn flush(&mut self, stream: &UnixStream, stats: &NetStats) -> Flush {
        let mut stream = stream;
        while let Some(front) = self.frames.front() {
            match stream.write(&front[self.pos..]) {
                Ok(n) => {
                    stats.bytes_out.add(n as u64);
                    self.pos += n;
                    if self.pos >= front.len() {
                        self.frames.pop_front();
                        self.pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    stats.backpressure_stalls.inc();
                    return Flush::Blocked;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Failed,
            }
        }
        Flush::Drained
    }
}

struct Shared {
    cmds: Mutex<Vec<Cmd>>,
    /// Every live connection's endpoint by id; `send` finds its target
    /// here without involving the poller.
    endpoints: Mutex<HashMap<u64, Arc<Endpoint>>>,
    waker: UnixStream,
    next_conn: AtomicU64,
    stats: Arc<NetStats>,
}

/// A clonable handle for talking to the poller thread from outside.
#[derive(Clone)]
pub struct ReactorHandle(Arc<Shared>);

impl ReactorHandle {
    fn push(&self, cmd: Cmd) {
        self.0.cmds.lock().push(cmd);
        self.wake();
    }

    fn wake(&self) {
        // A full pipe already guarantees a wakeup is pending.
        let _ = (&self.0.waker).write(&[1u8]);
    }

    /// Sends one frame on `conn`, writing it on the calling thread. What
    /// the socket buffer cannot take now is queued for the poller, which
    /// is woken to wait for writability; a frame behind queued ones joins
    /// the queue. A write error hands the connection's teardown to the
    /// poller. Unknown or already-closed connections drop the frame
    /// silently — the owner learns of the death through `Disconnected`.
    pub fn send(&self, conn: u64, request_id: u64, msg: &Message) {
        let Some(endpoint) = self.0.endpoints.lock().get(&conn).map(Arc::clone) else {
            return;
        };
        let bytes = encode_frame(request_id, msg);
        let mut out = endpoint.out.lock();
        if out.closed {
            return;
        }
        self.0.stats.frames_out.inc();
        out.frames.push_back(bytes);
        if out.frames.len() > 1 {
            return;
        }
        match out.flush(&endpoint.stream, &self.0.stats) {
            Flush::Drained => {}
            Flush::Blocked => {
                drop(out);
                self.wake();
            }
            Flush::Failed => {
                drop(out);
                self.close(conn);
            }
        }
    }

    /// Tears down `conn` (flushing nothing): sends from this point on
    /// are dropped, and the poller emits its `Disconnected`.
    pub fn close(&self, conn: u64) {
        if let Some(endpoint) = self.0.endpoints.lock().remove(&conn) {
            endpoint.close_queue();
        }
        self.push(Cmd::Close { id: conn });
    }

    /// Stops the poller thread; every live connection gets a final
    /// `Disconnected`.
    pub fn shutdown(&self) {
        self.push(Cmd::Shutdown);
    }
}

struct Conn {
    endpoint: Arc<Endpoint>,
    decoder: FrameDecoder,
}

/// The poller. Owned by its thread after [`Reactor::spawn`]; callers
/// keep only [`ReactorHandle`]s.
pub struct Reactor {
    handle: ReactorHandle,
    join: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the poller thread serving every connection `listener`
    /// accepts. `make_handler` receives the handle first so the handler
    /// it builds can reply to frames.
    pub fn spawn<F>(
        name: &str,
        listener: UnixListener,
        stats: Arc<NetStats>,
        make_handler: impl FnOnce(&ReactorHandle) -> F,
    ) -> io::Result<Reactor>
    where
        F: FnMut(NetEvent) + Send + 'static,
    {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let handle = ReactorHandle(Arc::new(Shared {
            cmds: Mutex::new(Vec::new()),
            endpoints: Mutex::new(HashMap::new()),
            waker: wake_tx,
            next_conn: AtomicU64::new(1),
            stats,
        }));
        let mut handler = make_handler(&handle);
        let loop_handle = handle.clone();
        let join = thread::Builder::new().name(format!("dl-net-{name}")).spawn(move || {
            poll_loop(loop_handle, listener, wake_rx, &mut handler);
        })?;
        Ok(Reactor { handle, join: Some(join) })
    }

    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Removes `id` for good: no more sends, one `Disconnected`, then the
/// socket shuts down. Accounting and the event come first — shutting the
/// socket first would let the peer observe the hangup before this side's
/// accounting exists. The explicit shutdown (not just a drop) matters
/// because a sender may still hold the endpoint for a moment.
fn teardown(
    id: u64,
    conns: &mut HashMap<u64, Conn>,
    handle: &ReactorHandle,
    handler: &mut dyn FnMut(NetEvent),
) {
    let Some(c) = conns.remove(&id) else { return };
    handle.0.endpoints.lock().remove(&id);
    c.endpoint.close_queue();
    handle.0.stats.connection_closed();
    handler(NetEvent::Disconnected(id));
    let _ = c.endpoint.stream.shutdown(Shutdown::Both);
}

fn poll_loop(
    handle: ReactorHandle,
    listener: UnixListener,
    wake_rx: UnixStream,
    handler: &mut dyn FnMut(NetEvent),
) {
    let stats = Arc::clone(&handle.0.stats);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    // pollfds[i] -> connection id, for the entries past waker/listener.
    let mut slot_ids: Vec<u64> = Vec::new();
    let mut wake_buf = [0u8; 64];
    let mut read_buf = vec![0u8; 64 * 1024];

    loop {
        // Drain pending commands first so a burst lands in one poll cycle.
        let cmds: Vec<Cmd> = std::mem::take(&mut *handle.0.cmds.lock());
        for cmd in cmds {
            match cmd {
                Cmd::Close { id } => teardown(id, &mut conns, &handle, handler),
                Cmd::Shutdown => {
                    let ids: Vec<u64> = conns.keys().copied().collect();
                    for id in ids {
                        teardown(id, &mut conns, &handle, handler);
                    }
                    return;
                }
            }
        }

        // Rebuild the poll set: waker, listener, then every connection —
        // writability only where a full socket buffer left frames queued.
        pollfds.clear();
        slot_ids.clear();
        pollfds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        pollfds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
        let fixed = pollfds.len();
        for (&id, c) in conns.iter() {
            let mut events = POLLIN;
            if !c.endpoint.out.lock().frames.is_empty() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd { fd: c.endpoint.stream.as_raw_fd(), events, revents: 0 });
            slot_ids.push(id);
        }

        // SAFETY: `pollfds` is a live, exclusively borrowed Vec of
        // `#[repr(C)]` pollfd records and the count passed is its length.
        let rc = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, 250) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            // poll(2) failing for any other reason is unrecoverable.
            return;
        }

        // Waker: drain whatever bytes accumulated.
        if pollfds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            while let Ok(n) = (&wake_rx).read(&mut wake_buf) {
                if n < wake_buf.len() {
                    break;
                }
            }
        }

        let mut dead: Vec<u64> = Vec::new();
        for (i, &id) in slot_ids.iter().enumerate() {
            let revents = pollfds[fixed + i].revents;
            if revents == 0 {
                continue;
            }
            let c = match conns.get_mut(&id) {
                Some(c) => c,
                None => continue,
            };
            // Read side: drain until WouldBlock, decoding as we go.
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                'read: loop {
                    match (&c.endpoint.stream).read(&mut read_buf) {
                        Ok(0) => {
                            dead.push(id);
                            break 'read;
                        }
                        Ok(n) => {
                            stats.bytes_in.add(n as u64);
                            c.decoder.feed(&read_buf[..n]);
                            loop {
                                match c.decoder.next_frame() {
                                    Ok(Some((request_id, msg))) => {
                                        stats.frames_in.inc();
                                        handler(NetEvent::Frame { conn: id, request_id, msg });
                                    }
                                    Ok(None) => break,
                                    Err(_) => {
                                        stats.decode_errors.inc();
                                        dead.push(id);
                                        break 'read;
                                    }
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'read,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(id);
                            break 'read;
                        }
                    }
                }
            }
            if dead.last() == Some(&id) {
                continue;
            }
            // Write side: flush what a full socket buffer queued.
            if revents & POLLOUT != 0 {
                if let Flush::Failed = c.endpoint.out.lock().flush(&c.endpoint.stream, &stats) {
                    dead.push(id);
                }
            }
        }
        for id in dead {
            teardown(id, &mut conns, &handle, handler);
        }

        // Accept loop: adopt every pending connection.
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = handle.0.next_conn.fetch_add(1, Ordering::Relaxed);
                    let endpoint =
                        Arc::new(Endpoint { stream, out: Mutex::new(OutQueue::default()) });
                    handle.0.endpoints.lock().insert(id, Arc::clone(&endpoint));
                    conns.insert(id, Conn { endpoint, decoder: FrameDecoder::new() });
                    stats.connection_opened();
                    handler(NetEvent::Accepted(id));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A reactor serving a fresh socket, and one plain blocking client
    /// connected to it. `handler` sees every event but `Accepted`, which
    /// this helper consumes to learn the connection id.
    fn served(
        name: &str,
        mut handler: impl FnMut(&ReactorHandle, NetEvent) + Send + 'static,
    ) -> (Reactor, Arc<NetStats>, u64, UnixStream) {
        let path =
            std::env::temp_dir().join(format!("dl-net-test-{}-{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let stats = Arc::new(NetStats::new());
        let (accepted_tx, accepted_rx) = mpsc::channel();
        let reactor = Reactor::spawn(name, listener, Arc::clone(&stats), |h| {
            let h = h.clone();
            move |ev| match ev {
                NetEvent::Accepted(id) => accepted_tx.send(id).unwrap(),
                ev => handler(&h, ev),
            }
        })
        .unwrap();
        let peer = UnixStream::connect(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let conn = accepted_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        (reactor, stats, conn, peer)
    }

    /// Blocking-reads `peer` until `n` frames have decoded.
    fn read_frames(peer: &mut UnixStream, n: usize) -> Vec<(u64, Message)> {
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        while frames.len() < n {
            let got = peer.read(&mut buf).expect("frames must arrive");
            assert!(got > 0, "peer hung up after {} of {n} frames", frames.len());
            decoder.feed(&buf[..got]);
            while let Some(frame) = decoder.next_frame().expect("frames must decode whole") {
                frames.push(frame);
            }
        }
        frames
    }

    #[test]
    fn echo_round_trip_over_socket() {
        let (_reactor, stats, _conn, mut peer) = served("echo", |h, ev| {
            if let NetEvent::Frame { conn, request_id, msg } = ev {
                h.send(conn, request_id, &msg);
            }
        });
        let msg = Message::Prepare { txid: 99, coord_epoch: 1 };
        peer.write_all(&encode_frame(7, &msg)).unwrap();
        assert_eq!(read_frames(&mut peer, 1), vec![(7, msg)]);
        assert_eq!(stats.frames_in.get(), 1);
        assert_eq!(stats.frames_out.get(), 1);
    }

    /// A handler forwarding every `Disconnected` id into a channel.
    fn disconnects() -> (impl FnMut(&ReactorHandle, NetEvent) + Send, mpsc::Receiver<u64>) {
        let (tx, rx) = mpsc::channel();
        let handler = move |_h: &ReactorHandle, ev| {
            if let NetEvent::Disconnected(id) = ev {
                tx.send(id).unwrap();
            }
        };
        (handler, rx)
    }

    #[test]
    fn close_emits_disconnect_on_both_ends() {
        // A server-side close reaches the peer as EOF...
        let (handler, rx) = disconnects();
        let (reactor, _stats, conn, mut peer) = served("close", handler);
        reactor.handle().close(conn);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), conn);
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(peer.read(&mut [0u8; 16]).unwrap(), 0);

        // ...and a peer hanging up is noticed by the poller.
        let (handler, rx) = disconnects();
        let (_reactor, stats, conn, peer) = served("hangup", handler);
        drop(peer);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), conn);
        assert_eq!(stats.disconnects.get(), 1);
    }

    #[test]
    fn one_mib_frame_from_another_thread_arrives_intact_past_a_full_buffer() {
        let (reactor, stats, conn, mut peer) = served("big", |_h, _ev| {});
        let big = Message::Err("x".repeat(1 << 20));
        // Nobody reads `peer` until the sender returns, so the socket
        // buffer fills mid-frame and the poller must finish the write.
        let h = reactor.handle();
        let sent = big.clone();
        std::thread::spawn(move || h.send(conn, 5, &sent)).join().unwrap();
        assert!(stats.backpressure_stalls.get() > 0, "a 1 MiB frame must outgrow the buffer");
        assert_eq!(read_frames(&mut peer, 1), vec![(5, big)]);
        assert_eq!(stats.frames_out.get(), 1);
        assert!(stats.bytes_out.get() > 1 << 20);
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        let (reactor, stats, conn, mut peer) = served("many", |_h, _ev| {});
        let (threads, per) = (8u64, 200u64);
        // Payloads up to 24 KiB, so some writes go partial and queue.
        let payload = |rid: u64| "p".repeat((rid as usize * 37) % (24 << 10));
        let reader = std::thread::spawn(move || read_frames(&mut peer, (threads * per) as usize));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = reactor.handle();
                scope.spawn(move || {
                    for k in 0..per {
                        let rid = t * 1_000 + k;
                        h.send(conn, rid, &Message::Err(payload(rid)));
                    }
                });
            }
        });
        let frames = reader.join().unwrap();
        assert_eq!(frames.len(), 1600);
        let mut next = vec![0u64; threads as usize];
        for (rid, msg) in frames {
            assert_eq!(msg, Message::Err(payload(rid)), "frame {rid} arrived whole");
            let (t, k) = ((rid / 1_000) as usize, rid % 1_000);
            assert_eq!(k, next[t], "one sender's frames keep their order");
            next[t] += 1;
        }
        assert_eq!(stats.frames_out.get(), 1600);
    }

    #[test]
    fn send_after_close_is_dropped_and_disconnect_fires_once() {
        let (handler, rx) = disconnects();
        let (reactor, stats, conn, mut peer) = served("closed", handler);
        reactor.handle().close(conn);
        reactor.handle().send(conn, 1, &Message::Ok);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), conn);
        assert_eq!(stats.frames_out.get(), 0, "the late frame is dropped");
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(peer.read(&mut [0u8; 16]).unwrap(), 0, "the peer sees EOF, no bytes");
        // Shutting the reactor down joins the poller: every event it will
        // ever emit is in the channel now.
        drop(reactor);
        assert_eq!(rx.try_iter().count(), 0, "no second Disconnected");
        assert_eq!(stats.disconnects.get(), 1);
    }
}
