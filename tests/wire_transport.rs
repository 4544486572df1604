//! Wire-transport smoke: the full stack speaking over real Unix sockets.
//! `Transport::Socket` routes the engine's agent protocol and DLFS's
//! upcalls through the framed codec and the poll(2) reactor, and these
//! scenarios pin that the behaviour is indistinguishable from the
//! in-process path: engine DML 2PC, managed token writes, presumed abort
//! when a connection dies mid-2PC (between calls or during one), calls
//! failing fast when the daemon goes away, and coordinator fencing across
//! host failover.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datalinks::core::{DataLinksSystem, DlColumnOptions, FileServerSpec};
use datalinks::dlfm::{
    AgentConnection, ArchiveStore, ControlMode, DlfmConfig, DlfmServer, MainDaemon, OnUnlink,
    TokenKind, Transport, UpcallDaemon, WireAgent, WireConnector, WireDaemon,
};
use datalinks::fskit::{Cred, FileSystem, Lfs, MemFs, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, StorageEnv, Value};
use datalinks::obs::NetStats;

const APP: Cred = Cred { uid: 100, gid: 100 };
const SRV: &str = "srv";

fn spec() -> FileServerSpec {
    FileServerSpec::new(SRV).transport(Transport::Socket)
}

fn seed(sys: DataLinksSystem, n_files: usize) -> DataLinksSystem {
    let raw = sys.raw_fs(SRV).unwrap();
    raw.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    sys.create_table(
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("body", ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    sys.define_datalink_column(
        "t",
        "body",
        DlColumnOptions::new(ControlMode::Rdd).token_ttl_ms(600_000),
    )
    .unwrap();
    for i in 0..n_files {
        raw.write_file(&APP, &format!("/d/f{i}.bin"), format!("seed-{i}").as_bytes()).unwrap();
        let mut tx = sys.begin();
        tx.insert(
            "t",
            vec![Value::Int(i as i64), Value::DataLink(format!("dlfs://{SRV}/d/f{i}.bin"))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    sys
}

fn build(n_files: usize) -> DataLinksSystem {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .file_server_with(spec())
        .build()
        .unwrap();
    seed(sys, n_files)
}

fn write_once(sys: &DataLinksSystem, id: i64, content: &[u8]) {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Write).unwrap();
    let fs = sys.fs(SRV).unwrap();
    let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).unwrap();
    fs.write(fd, content).unwrap();
    fs.close(fd).unwrap();
}

fn read_token_path(sys: &DataLinksSystem, id: i64) -> String {
    let (_, path) = sys.select_datalink("t", &Value::Int(id), "body", TokenKind::Read).unwrap();
    path
}

// ---------------------------------------------------------------------------
// engine DML and managed updates over the socket
// ---------------------------------------------------------------------------

#[test]
fn engine_dml_two_phase_commit_runs_over_the_socket() {
    let sys = build(2);
    let node = sys.node(SRV).unwrap();
    assert!(node.wire().is_some(), "Transport::Socket must bring the wire front end up");

    // The seed inserts linked two files: each was a full link + 2PC
    // round over the socket.
    for i in 0..2 {
        let entry = node.server.repository().get_file(&format!("/d/f{i}.bin"));
        assert!(entry.is_some(), "seed row {i} must be linked through the wire");
    }

    // And the frames were real: server-side instruments counted them.
    let snap = sys.registry().snapshot();
    let counter = |k: &str| *snap.counters.get(&format!("net.{SRV}.{k}")).unwrap_or(&0);
    assert!(counter("frames_in") > 0, "link/prepare/commit frames must be counted in");
    assert!(counter("frames_out") > 0, "replies must be counted out");
    assert!(counter("bytes_in") > counter("frames_in"), "every frame is > 1 byte");
    assert_eq!(counter("decode_errors"), 0);
    assert!(counter("accepts") >= 2, "engine and DLFS each hold a connection");
    assert!(
        snap.gauges.get(&format!("net.{SRV}.connections")).copied().unwrap_or(0.0) >= 2.0,
        "both standing connections must be live"
    );
    let rt = snap.histograms.get(&format!("net.{SRV}.round_trip_ns")).unwrap();
    assert!(rt.count > 0, "client round trips must be timed");
}

#[test]
fn managed_token_update_flows_through_the_wire_upcall() {
    let sys = build(1);

    // Write under a write token: DLFS validates the token, registers the
    // open and reports the close over the socket.
    write_once(&sys, 0, b"over the wire");
    let node = sys.node(SRV).unwrap();
    node.server.archive_store().wait_archived("/d/f0.bin");
    let entry = node.server.repository().get_file("/d/f0.bin").unwrap();
    assert_eq!(entry.cur_version, 2, "one update on top of v1");

    // Read it back under a read token, again through the wire upcall.
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"over the wire");
}

// ---------------------------------------------------------------------------
// a severed connection mid-2PC resolves by presumed abort
// ---------------------------------------------------------------------------

#[test]
fn severing_a_connection_mid_two_phase_commit_presumed_aborts() {
    let sys = build(0);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/orphan.bin", b"doomed").unwrap();
    let node = sys.node(SRV).unwrap();
    let wire = node.wire().expect("socket transport");

    // A client links and prepares, then its connection dies before the
    // decision arrives. The host database never heard of the transaction,
    // so resolution must presume abort and roll the link back.
    let conn = wire.connect("torture").unwrap();
    let agent = WireAgent(Arc::clone(&conn));
    let txid = 9_000_001;
    agent.link(txid, "/d/orphan.bin", ControlMode::Rff, true, OnUnlink::Restore).unwrap();
    agent.prepare(txid).unwrap();
    assert_eq!(node.server.pending_host_txns(), vec![(txid, true)]);

    let aborts_before = wire.daemon.presumed_aborts().get();
    conn.sever();

    let deadline = Instant::now() + Duration::from_secs(10);
    while (!node.server.pending_host_txns().is_empty()
        || wire.daemon.presumed_aborts().get() == aborts_before)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(node.server.pending_host_txns().is_empty(), "the in-doubt claim must settle");
    assert_eq!(
        wire.daemon.presumed_aborts().get(),
        aborts_before + 1,
        "the orphan must be resolved by presumed abort"
    );
    assert!(
        node.server.repository().get_file("/d/orphan.bin").is_none(),
        "the aborted link must leave no residue"
    );
    assert!(conn.is_dead(), "the severed client endpoint must know it is dead");

    // The registry mirrors the resolution alongside the disconnect.
    let snap = sys.registry().snapshot();
    assert_eq!(snap.counters.get(&format!("net.{SRV}.presumed_aborts")), Some(&1));
    assert!(*snap.counters.get(&format!("net.{SRV}.disconnects")).unwrap() >= 1);
}

/// Polls `cond` for up to 10 s: the point a test waits for is server
/// state another thread reaches, not a fixed delay.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn severing_a_connection_during_a_call_fails_it_fast_and_presumed_aborts() {
    let sys = build(0);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/hot.bin", b"contended").unwrap();
    let node = sys.node(SRV).unwrap();
    let wire = node.wire().expect("socket transport");

    // A holder's prepared link keeps the row locked, so the victim's link
    // parks server-side on the row lock: its call is truly in flight.
    let holder = WireAgent(wire.connect("holder").unwrap());
    holder.link(9_200_001, "/d/hot.bin", ControlMode::Rff, true, OnUnlink::Restore).unwrap();
    holder.prepare(9_200_001).unwrap();
    let links_before = node.server.stats.links.get();
    let victim = wire.connect("victim").unwrap();
    let aborts_before = wire.daemon.presumed_aborts().get();

    std::thread::scope(|scope| {
        let call = scope.spawn(|| {
            let agent = WireAgent(Arc::clone(&victim));
            let r = agent.link(9_200_003, "/d/hot.bin", ControlMode::Rff, true, OnUnlink::Restore);
            (r, Instant::now())
        });
        wait_until("the victim's link to reach the server", || {
            node.server.stats.links.get() > links_before
        });
        let severed_at = Instant::now();
        victim.sever();
        let (result, returned_at) = call.join().unwrap();
        assert!(result.is_err(), "a severed call must fail, not wait for its reply");
        assert!(returned_at - severed_at < Duration::from_secs(1), "and fail at once");
    });

    // Releasing the row lets the parked link finish into a dead
    // connection; the disconnect sweep has already presumed it aborted.
    holder.abort(9_200_001);
    wait_until("the victim's claim to settle", || {
        node.server.pending_host_txns().is_empty()
            && wire.daemon.presumed_aborts().get() > aborts_before
    });
    assert_eq!(wire.daemon.presumed_aborts().get(), aborts_before + 1);
    assert!(
        node.server.repository().get_file("/d/hot.bin").is_none(),
        "neither the aborted holder nor the severed victim may leave a link"
    );
}

// ---------------------------------------------------------------------------
// a daemon going away fails every waiting call at once
// ---------------------------------------------------------------------------

#[test]
fn dropping_the_daemon_fails_every_waiting_call_at_once() {
    let fs = Arc::new(MemFs::with_clock(Arc::new(SimClock::new(1_000_000))));
    let admin = Lfs::new(fs.clone() as Arc<dyn FileSystem>);
    admin.mkdir_p(&Cred::root(), "/d", 0o777).unwrap();
    admin.write_file(&APP, "/d/hot.bin", b"x").unwrap();
    let server = Arc::new(
        DlfmServer::new(
            DlfmConfig::new(SRV),
            fs as Arc<dyn FileSystem>,
            StorageEnv::mem(),
            Arc::new(ArchiveStore::new()),
            Arc::new(SimClock::new(1_000_000)),
        )
        .unwrap(),
    );
    let (_upcalls, local) = UpcallDaemon::spawn(Arc::clone(&server));
    let main = MainDaemon::new(Arc::clone(&server));
    let daemon =
        WireDaemon::spawn(Arc::clone(&server), &main, local, Arc::new(NetStats::new())).unwrap();
    let connector = WireConnector::new(Arc::new(NetStats::new()));

    // An in-process holder keeps the row locked through the daemon's
    // teardown (a wire holder's claim would be swept by the disconnect).
    let holder = main.connect();
    holder.link(1, "/d/hot.bin", ControlMode::Rff, true, OnUnlink::Restore).unwrap();
    holder.prepare(1).unwrap();
    // Four links on one shared connection, all parked on the held row.
    let shared = connector.connect(daemon.socket_path(), "waiters").unwrap();
    let idle = connector.connect(daemon.socket_path(), "idle").unwrap();
    std::thread::scope(|scope| {
        let calls: Vec<_> = (0..4u64)
            .map(|i| {
                let agent = WireAgent(Arc::clone(&shared));
                scope.spawn(move || {
                    let r =
                        agent.link(10 + i, "/d/hot.bin", ControlMode::Rff, true, OnUnlink::Restore);
                    (r, Instant::now())
                })
            })
            .collect();
        // Two Hellos, then the four links.
        wait_until("all four links to reach the server", || daemon.stats().frames_in.get() == 6);
        let dropped_at = Instant::now();
        drop(daemon);
        for call in calls {
            let (result, returned_at) = call.join().unwrap();
            assert!(result.is_err(), "a call whose daemon is gone must fail");
            assert!(returned_at - dropped_at < Duration::from_secs(1), "well inside the timeout");
        }
    });
    assert!(shared.is_dead());
    // An idle connection learns of the loss at its next call.
    assert!(!idle.is_dead());
    assert!(idle.freshness_token().is_err());
    assert!(idle.is_dead());
    assert_eq!(connector.stats().call_timeouts.get(), 0, "they failed, not timed out");
    holder.abort(1);
}

// ---------------------------------------------------------------------------
// coordinator fencing holds over the wire across host failover
// ---------------------------------------------------------------------------

#[test]
fn host_failover_fences_stale_wire_agents() {
    let mut sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_000_000)))
        .host_replicas(1)
        .file_server_with(spec())
        .build()
        .unwrap();
    sys = seed(sys, 1);
    let raw = sys.raw_fs(SRV).unwrap();
    raw.write_file(&APP, "/d/cand.bin", b"candidate").unwrap();
    let server = Arc::clone(&sys.node(SRV).unwrap().server);

    // A zombie coordinator: prepared over the wire, then the host crashes
    // while it holds the decision.
    let zombie = {
        let node = sys.node(SRV).unwrap();
        WireAgent(node.wire().unwrap().connect("zombie").unwrap())
    };
    let tx = sys.begin();
    let txid = tx.id();
    zombie.link(txid, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    zombie.prepare(txid).unwrap();
    std::mem::forget(tx); // the coordinator "dies" holding the decision

    assert!(sys.wait_host_replicas_caught_up(Duration::from_secs(10)));
    sys.crash_host().unwrap();

    // The zombie wakes up and decides commit over its old connection: the
    // epoch it carries is stale, so the fence drops the decision.
    let before = server.stats.stale_coord_rejections.get();
    zombie.commit(txid);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats.stale_coord_rejections.get() == before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.stats.stale_coord_rejections.get() > before, "stale decision must be fenced");
    assert_eq!(server.pending_host_txns(), vec![(txid, true)], "the claim must not settle");

    // Fresh work under the old generation is refused outright.
    raw.write_file(&APP, "/d/cand2.bin", b"late").unwrap();
    let err = zombie.link(txid + 2, "/d/cand2.bin", ControlMode::Rdd, true, OnUnlink::Restore);
    assert!(err.unwrap_err().contains("stale coordinator"), "zombie link must be fenced");

    // Promotion settles the claim by presumed abort, and a fresh
    // connection handshakes into the new coordinator generation.
    let report = sys.promote_host().unwrap();
    assert_eq!(report.in_doubt_resolved, vec![(SRV.to_string(), txid, false)]);
    assert!(server.repository().get_file("/d/cand.bin").is_none());

    let fresh = {
        let node = sys.node(SRV).unwrap();
        WireAgent(node.wire().unwrap().connect("fresh").unwrap())
    };
    let txid2 = 9_100_001;
    fresh.link(txid2, "/d/cand.bin", ControlMode::Rdd, true, OnUnlink::Restore).unwrap();
    fresh.prepare(txid2).unwrap();
    fresh.commit(txid2);
    assert!(server.repository().get_file("/d/cand.bin").is_some());

    // And the promoted engine's own re-minted wire connections carry the
    // full managed-update path.
    write_once(&sys, 0, b"post failover");
    let tp = read_token_path(&sys, 0);
    assert_eq!(sys.serve_read(SRV, &tp, APP.uid).unwrap(), b"post failover");
}
