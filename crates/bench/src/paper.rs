//! The paper's evaluation as lab runners: Table 1 (T1), the §3.2/§5
//! measurements (E1–E4) and the ablations (A1–A8).
//!
//! A `paper` scenario names its table by id (`scenarios/t1.jsonl` …
//! `scenarios/a8.jsonl`). The lab dispatches it to that table's runner, which
//! takes its iteration counts from the scenario's knobs (`ops`, `threads`,
//! `updates`, `cycles`) and returns the printable table plus the metrics
//! the scenario's `assert` lines gate the paper's claims on. Shapes
//! reproduce; absolute numbers are the machine's, not 1998 AIX hardware's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_baselines::{CauManager, CicoManager, MergePolicy};
use dl_core::{ControlMode, DataLinksSystem, TokenKind};
use dl_fskit::memfs::IoModel;
use dl_fskit::{Cred, FileSystem, Lfs, MemFs, OpenOptions, SetAttr};
use dl_lab::{Plan, Scenario, TrialSpec};
use dl_minidb::{Database, StorageEnv, Value};

use crate::lab::{need, s, ScenarioRun};
use crate::trajectory::Table;
use crate::{
    fixture, fmt_ns, make_content, percentile, run_threads, sample_ns, Fixture, FixtureOptions,
    APP, SRV, TABLE,
};

type Runner = fn(&Scenario, &TrialSpec) -> Result<ScenarioRun, String>;

/// The runner for a paper table id (one of [`dl_lab::PAPER_TABLES`]).
fn runner(id: &str) -> Option<Runner> {
    Some(match id {
        "t1" => t1_control_modes,
        "e1" => e1_select_datalink,
        "e2" => e2_open_close_overhead,
        "e3" => e3_read_overhead_sweep,
        "e4" => e4_open_write_modes,
        "a1" => a1_disciplines,
        "a2" => a2_txn_boundary,
        "a3" => a3_read_path,
        "a4" => a4_sync_table_cost,
        "a5" => a5_archive_async,
        "a6" => a6_crash_atomicity,
        "a7" => a7_point_in_time,
        "a8" => a8_strict_link,
        _ => return None,
    })
}

/// Runs a `paper` scenario: its single trial through its table's runner.
pub(crate) fn run(sc: &Scenario, plan: &Plan) -> Result<ScenarioRun, String> {
    let runner =
        runner(&sc.name).ok_or_else(|| format!("{}: no paper table {:?}", sc.file, sc.name))?;
    let mut run = runner(sc, &plan.trials[0])?;
    run.table.id = sc.name.clone();
    Ok(run)
}

fn result(
    title: impl Into<String>,
    header: &[&str],
    rows: Vec<Vec<String>>,
    notes: &[&str],
    metrics: impl IntoIterator<Item = (String, f64)>,
) -> Result<ScenarioRun, String> {
    Ok(ScenarioRun {
        table: Table {
            id: String::new(),
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
            notes: notes.iter().map(|n| n.to_string()).collect(),
        },
        metrics: metrics.into_iter().collect(),
    })
}

fn m(name: &str, v: impl Into<f64>) -> (String, f64) {
    (name.to_string(), v.into())
}

/// The median of per-call samples. Timed claims gate on medians: one
/// scheduler stall on a shared machine moves a mean by milliseconds.
fn p50(mut samples: Vec<u64>) -> f64 {
    percentile(&mut samples, 0.50) as f64
}

/// The fastest of per-call samples, for calls that spin on the disk-like
/// I/O model: there noise only ever adds time, and a stall as long as the
/// claimed difference is likely in a handful of samples.
fn fastest(samples: Vec<u64>) -> f64 {
    samples.into_iter().min().unwrap_or(0) as f64
}

/// Open+close of `path` on the managed stack, timed per call.
fn open_close_ns(f: &Fixture, path: &str, opts: OpenOptions, iters: u64) -> Vec<u64> {
    let fs = f.sys.fs(SRV).expect("fs");
    sample_ns(iters, || {
        let fd = fs.open(&APP, path, opts).expect("open");
        fs.close(fd).expect("close");
    })
}

fn upcalls(f: &Fixture) -> u64 {
    f.sys.node(SRV).expect("node").dlfs.upcall_client().round_trip_count()
}

// ===========================================================================
// T1 — Table 1 control-mode semantics matrix
// ===========================================================================

const T1_HEADER: [&str; 9] = [
    "mode",
    "ref.int",
    "read-ctl",
    "write-ctl",
    "read",
    "read+tok",
    "write",
    "write+tok",
    "remove",
];

/// The paper's Table 1 plus the two update modes it adds (§2.4), as the
/// behaviour T1 must observe: referential integrity, read and write
/// control, then whether a plain read, a token read, a plain write, a
/// token write and a remove of the linked file succeed.
const TABLE_1: [[&str; 9]; 6] = [
    ["nff", "false", "FileSystem", "FileSystem", "allow", "allow", "allow", "allow", "allow"],
    ["rff", "true", "FileSystem", "FileSystem", "allow", "allow", "allow", "allow", "deny"],
    ["rfb", "true", "FileSystem", "Blocked", "allow", "allow", "deny", "deny", "deny"],
    ["rdb", "true", "Dbms", "Blocked", "deny", "allow", "deny", "deny", "deny"],
    ["rfd", "true", "FileSystem", "Dbms", "allow", "allow", "deny", "allow", "deny"],
    ["rdd", "true", "Dbms", "Dbms", "deny", "allow", "deny", "allow", "deny"],
];

/// One T1 row: what actually happens when an application reads, writes or
/// removes a file linked in `mode`, with and without a token.
fn observe_mode(mode: ControlMode) -> Vec<String> {
    let f = fixture(FixtureOptions { mode, n_files: 1, ..Default::default() });
    let fs = f.sys.fs(SRV).expect("fs");
    let path = &f.paths[0];
    let opens = |p: &str, opts| fs.open(&APP, p, opts).map(|fd| fs.close(fd).ok()).is_ok();
    let token_opens = |kind, opts| {
        f.sys
            .select_datalink(TABLE, &Value::Int(0), "body", kind)
            .is_ok_and(|(_, tp)| opens(&tp, opts))
    };
    let access = [
        opens(path, OpenOptions::read_only()),
        token_opens(TokenKind::Read, OpenOptions::read_only()),
        opens(path, OpenOptions::write_only()),
        token_opens(TokenKind::Write, OpenOptions::write_only()),
        fs.remove(&APP, path).is_ok(),
    ];
    let mut row = vec![
        mode.to_string(),
        s(mode.referential_integrity()),
        format!("{:?}", mode.read_control()),
        format!("{:?}", mode.write_control()),
    ];
    row.extend(access.iter().map(|&ok| s(if ok { "allow" } else { "deny" })));
    row
}

/// Reproduces Table 1 (plus the new rfd/rdd rows) as *observed behaviour*
/// and counts the cells that differ from the paper's matrix.
fn t1_control_modes(_: &Scenario, _: &TrialSpec) -> Result<ScenarioRun, String> {
    let rows: Vec<Vec<String>> = ControlMode::ALL.into_iter().map(observe_mode).collect();
    let mismatches = (0..rows.len().max(TABLE_1.len()))
        .flat_map(|r| (0..T1_HEADER.len()).map(move |c| (r, c)))
        .filter(|&(r, c)| {
            rows.get(r).and_then(|row| row.get(c)).map(String::as_str)
                != TABLE_1.get(r).map(|row| row[c])
        })
        .count();
    result(
        "control-mode semantics (observed behaviour; paper Table 1 + new rfd/rdd)",
        &T1_HEADER,
        rows,
        &[
            "rdb/rdd deny plain reads and grant token reads (read control = DBMS)",
            "rfd/rdd grant writes only with a write token (the paper's new modes)",
            "remove of a linked file is denied for all r?? modes (referential integrity)",
        ],
        [m("t1_mismatches", mismatches as f64)],
    )
}

// ===========================================================================
// E1 — DATALINK retrieval incl. token generation (§3.2: < 3 ms in 1998)
// ===========================================================================

fn e1_select_datalink(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let f = fixture(FixtureOptions::default());
    let plain = p50(sample_ns(iters, || {
        f.sys.select_datalink_url(TABLE, &Value::Int(0), "body").expect("select");
    }));
    let with_token = p50(sample_ns(iters, || {
        f.sys.select_datalink(TABLE, &Value::Int(0), "body", TokenKind::Read).expect("select");
    }));
    let row = |label: &str, ns: f64| vec![s(label), s(format!("{ns:.0}")), fmt_ns(ns)];
    result(
        "DATALINK column retrieval at the host DB (paper §3.2: <3 ms incl. token)",
        &["operation", "p50 ns/op", "time"],
        vec![
            row("SELECT datalink (no token)", plain),
            row("SELECT datalink + token generation", with_token),
            row("token generation overhead", with_token - plain),
        ],
        &["paper: <3ms on a 200MHz PowerPC 604; the claim is 'small constant overhead'"],
        [
            m("select_ns", plain),
            m("token_select_ns", with_token),
            m("token_select_ms", with_token / 1e6),
        ],
    )
}

// ===========================================================================
// E2 — DLFS + token validation overhead on open/read/close (§3.2: ~1 ms)
// ===========================================================================

fn e2_open_close_overhead(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let f = fixture(FixtureOptions { file_size: 1024, ..Default::default() });
    // Control file: same stack (LFS over DLFS), not linked.
    let raw = f.sys.raw_fs(SRV).expect("raw");
    raw.write_file(&APP, "/data/control.bin", &make_content(1024)).expect("control");
    let plain = p50(sample_ns(iters, || {
        f.plain_read("/data/control.bin");
    }));
    // Token validated once per open (embedded in every open's lookup).
    let managed = p50(sample_ns(iters, || {
        f.managed_read(0);
    }));
    result(
        "open+read+close of a 1 KiB file: DLFS+token vs plain (paper §3.2: ~1 ms added)",
        &["path", "p50 ns/cycle", "time", "overhead"],
        vec![
            vec![s("plain file through DLFS"), s(format!("{plain:.0}")), fmt_ns(plain), s("--")],
            vec![
                s("rdd-linked file (token + upcalls)"),
                s(format!("{managed:.0}")),
                fmt_ns(managed),
                s(format!("+{}", fmt_ns(managed - plain))),
            ],
        ],
        &["managed cycle = token validation upcall + open-check upcall + close upcall + sync entries"],
        [m("plain_ns", plain), m("managed_ns", managed), m("added_ms_per_open", (managed - plain) / 1e6)],
    )
}

// ===========================================================================
// E3 — read overhead sweep by file size (§3.2: <1% CPU+I/O, ~3% CPU at 1MB)
// ===========================================================================

/// Fastest ns of a full plain read and of a full managed (token) read of
/// one `size`-byte file under the `io` cost model. The two alternate, so
/// machine load drifting during the run shifts both alike; the claim at
/// 16 MiB over the disk model (1%, about 4 ms) is one scheduler hiccup.
fn read_pair(size: usize, io: IoModel, iters: u64) -> (f64, f64) {
    let f = fixture(FixtureOptions { file_size: size, n_files: 1, io, ..Default::default() });
    let raw = f.sys.raw_fs(SRV).expect("raw");
    raw.write_file(&APP, "/data/control.bin", &make_content(size)).expect("control");
    let (mut plain, mut managed) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        plain.extend(sample_ns(1, || {
            f.plain_read("/data/control.bin");
        }));
        managed.extend(sample_ns(1, || {
            f.managed_read(0);
        }));
    }
    (fastest(plain), fastest(managed))
}

fn e3_read_overhead_sweep(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for kib in [64, 256, 1024, 4096, 16384] {
        let size = if kib < 1024 { format!("{kib}k") } else { format!("{}m", kib / 1024) };
        let mut row = vec![s(format!("{kib} KiB"))];
        for (model, io) in [("cpu", IoModel::default()), ("disk", IoModel::disk_like())] {
            let (plain, managed) = read_pair(kib * 1024, io, iters);
            let pct = (managed - plain) / plain * 100.0;
            row.extend([fmt_ns(plain), fmt_ns(managed), s(format!("{pct:.2}%"))]);
            metrics.push(m(&format!("{model}_overhead_pct_{size}"), pct));
        }
        rows.push(row);
    }
    result(
        "full-file read overhead vs size, CPU only and with a disk-like I/O model \
         (paper §3.2: <1% CPU+I/O, ~3% CPU-only at 1MB)",
        &[
            "file size",
            "plain (CPU)",
            "DataLinks (CPU)",
            "overhead (CPU)",
            "plain (disk)",
            "DataLinks (disk)",
            "overhead (disk)",
        ],
        rows,
        &[
            "shape to verify: fixed per-open cost amortizes — overhead % falls as size grows",
            "each time is the fastest of the run's alternating plain and managed reads",
        ],
        metrics,
    )
}

// ===========================================================================
// E4 — open-for-write response time by mode (§5: 'only minor difference')
// ===========================================================================

fn e4_open_write_modes(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    // Plain (unlinked) baseline.
    let f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
    f.sys.raw_fs(SRV).expect("raw").write_file(&APP, "/data/unmanaged.bin", b"x").expect("seed");
    let median_write =
        |f: &Fixture, path: &str| p50(open_close_ns(f, path, OpenOptions::write_only(), iters));
    let plain = median_write(&f, "/data/unmanaged.bin");
    let mut rows = vec![vec![s("plain file"), s(format!("{plain:.0}")), fmt_ns(plain), s("--")]];
    // Open-for-write + close (unmodified, so no archive/commit path) —
    // measures exactly the grant/release and update-status maintenance.
    // A fixture's upcall round trips settle into one latency band for its
    // lifetime, and bands differ between fixtures by up to 2x on a loaded
    // 2-vCPU machine. So each mode gets three fixtures, all six are timed
    // in turn (a load spike hits both modes alike), and a mode's cost is
    // its best fixture's median.
    let modes = [ControlMode::Rfd, ControlMode::Rdd];
    let arms: Vec<(Fixture, String)> = (0..3 * modes.len())
        .map(|i| {
            let mode = modes[i % modes.len()];
            let f = fixture(FixtureOptions { mode, n_files: 1, ..Default::default() });
            let path = f.token_path(0, TokenKind::Write);
            (f, path)
        })
        .collect();
    let mut lat = vec![Vec::new(); arms.len()];
    for _ in 0..iters {
        for ((f, path), lat) in arms.iter().zip(&mut lat) {
            lat.extend(open_close_ns(f, path, OpenOptions::write_only(), 1));
        }
    }
    let mut linked = vec![f64::INFINITY; modes.len()];
    for (i, lat) in lat.into_iter().enumerate() {
        let best = &mut linked[i % modes.len()];
        *best = best.min(p50(lat));
    }
    for (mode, &ns) in modes.iter().zip(&linked) {
        rows.push(vec![
            s(format!("{mode}-linked")),
            s(format!("{ns:.0}")),
            fmt_ns(ns),
            s(format!("+{}", fmt_ns(ns - plain))),
        ]);
    }
    let (rfd, rdd) = (linked[0], linked[1]);
    result(
        "open-for-write + close latency by control mode (paper §5: minor difference; \
         update-status maintenance 'insignificant')",
        &["file", "p50 ns/cycle", "time", "vs plain"],
        rows,
        &[
            "rfd pays: failed physical open + takeover upcall + UIP/sync entries + release",
            "rdd pays: open-check upcall + UIP/sync entries + release",
        ],
        [
            m("plain_ns", plain),
            m("rfd_ns", rfd),
            m("rdd_ns", rdd),
            m("mode_ratio", rfd.max(rdd) / rfd.min(rdd)),
        ],
    )
}

// ===========================================================================
// A1 — UIP vs CICO vs CAU under concurrent writers (§3)
// ===========================================================================

/// A logical file system holding one world-writable `/shared.bin`.
fn shared_lfs(content: &[u8]) -> Arc<Lfs> {
    let lfs = Arc::new(Lfs::new(Arc::new(MemFs::new()) as Arc<dyn FileSystem>));
    lfs.setattr(&Cred::root(), "/", &SetAttr::chmod(0o777)).expect("chmod root");
    lfs.write_file(&APP, "/shared.bin", content).expect("seed");
    lfs.setattr(&APP, "/shared.bin", &SetAttr::chmod(0o666)).expect("chmod");
    lfs
}

fn a1_disciplines(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let writers = need(sc, t, "threads", t.params.threads)? as usize;
    let updates = need(sc, t, "updates", t.params.updates)?;
    let content = make_content(2048);

    // --- UIP: the real system, one shared file, blocking writers.
    let f = fixture(FixtureOptions { n_files: 1, sync_archive: true, ..Default::default() });
    let uip_elapsed = run_threads(writers, |_| {
        for _ in 0..updates {
            f.managed_update_no_wait(0, &content);
        }
    });
    let repo = f.sys.node(SRV).expect("node").server.repository();
    let uip_version = repo.get_file(&f.paths[0]).expect("entry").cur_version;

    // --- CICO: explicit checkout lock with retry loop.
    let db = Database::open(StorageEnv::mem()).expect("db");
    let cico = CicoManager::new(db, shared_lfs(&content)).expect("cico");
    let retries = AtomicU64::new(0);
    let cico_elapsed = run_threads(writers, |t| {
        let cred = Cred::user(100 + t as u32);
        for _ in 0..updates {
            let ticket = loop {
                match cico.checkout(&cred, "/shared.bin") {
                    Ok(t) => break t,
                    Err(_) => {
                        retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                }
            };
            cico.fs.write_file(&cred, "/shared.bin", &content).expect("write");
            cico.checkin(&ticket).expect("checkin");
        }
    });

    // --- CAU last-writer-wins: never blocks, loses updates.
    let db = Database::open(StorageEnv::mem()).expect("db");
    let cau = CauManager::new(db, shared_lfs(&content)).expect("cau");
    let cau_elapsed = run_threads(writers, |t| {
        let cred = Cred::user(100 + t as u32);
        for _ in 0..updates {
            let copy = cau.copy_out(&cred, "/shared.bin").expect("copy");
            cau.fs.write_file(&cred, &copy.copy, &content).expect("edit");
            cau.check_in(&cred, &copy, MergePolicy::LastWriterWins).expect("checkin");
        }
    });
    let cau_lost = cau.lost_updates.load(Ordering::Relaxed);

    let total = writers as u64 * updates;
    let uip_lost = total.saturating_sub(uip_version - 1);
    let row = |name: &str, elapsed: Duration, lost: u64, note: String| {
        vec![
            s(name),
            s(format!("{elapsed:.1?}")),
            s(format!("{:.0}", total as f64 / elapsed.as_secs_f64())),
            s(lost),
            note,
        ]
    };
    result(
        format!("update disciplines, {writers} writers x {updates} updates of one file (§3)"),
        &["discipline", "elapsed", "updates/s", "lost updates", "notes"],
        vec![
            row(
                "UIP (this paper)",
                uip_elapsed,
                uip_lost,
                format!("final version {uip_version}: every update serialized at open"),
            ),
            row(
                "CICO",
                cico_elapsed,
                0,
                format!(
                    "{} busy retries; 2 DB updates per session",
                    retries.load(Ordering::Relaxed)
                ),
            ),
            row(
                "CAU (last-writer-wins)",
                cau_elapsed,
                cau_lost,
                s("no blocking, but committed updates silently lost"),
            ),
        ],
        &["expected shape: CAU fastest but unsafe; UIP and CICO serialize, with CICO paying \
           explicit lock-table writes and retry spinning"],
        [
            m("uip_lost_updates", uip_lost as f64),
            m("uip_final_version", uip_version as f64),
            m("uip_expected_version", (1 + total) as f64),
            m("cau_updates", total as f64),
            m("cau_lost_updates", cau_lost as f64),
        ],
    )
}

// ===========================================================================
// A2 — transaction boundary: per-write upcalls vs open/close (§3.1)
// ===========================================================================

fn a2_txn_boundary(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let probes = need(sc, t, "ops", t.params.ops)?;
    let f = fixture(FixtureOptions { n_files: 1, sync_archive: true, ..Default::default() });
    let fs = f.sys.fs(SRV).expect("fs");
    let chunk = make_content(512);
    let client = f.sys.node(SRV).expect("node").dlfs.upcall_client().clone();
    // Rejected design (§3.1): every fs_readwrite would also upcall — cost
    // modelled as n extra round-trips of the measured upcall latency.
    let upcall_ns = p50(sample_ns(probes, || {
        let _ = client.mutation_check("/data/doesnotexist");
    }));

    let mut rows = Vec::new();
    let mut per_session = Vec::new();
    for n in [1usize, 8, 64, 256] {
        // Actual design: upcalls only at open/close.
        let before = upcalls(&f);
        let path = f.token_path(0, TokenKind::Write);
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
        for k in 0..n {
            fs.write_at(fd, (k * chunk.len()) as u64, &chunk).expect("write");
        }
        fs.close(fd).expect("close");
        let actual = upcalls(&f) - before;
        per_session.push(actual as f64);
        rows.push(vec![s(n), s(actual), s(actual as usize + n), fmt_ns(upcall_ns * n as f64)]);
    }
    let min = per_session.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_session.iter().copied().fold(0.0, f64::max);
    result(
        "transaction boundary ablation (§3.1): upcalls per update session",
        &[
            "writes per open",
            "upcalls (open/close boundary)",
            "upcalls (per-write boundary)",
            "extra upcall time at per-write",
        ],
        rows,
        &["open/close boundary keeps the upcall count constant regardless of write count — \
           the paper's argument for treating open..close as the transaction"],
        [m("upcalls_per_session_min", min), m("upcalls_per_session_max", max)],
    )
}

// ===========================================================================
// A3 — read path: rfd vs rdd (§4.2/§5)
// ===========================================================================

fn a3_read_path(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for mode in [ControlMode::Rfd, ControlMode::Rdd] {
        let f = fixture(FixtureOptions { mode, n_files: 1, file_size: 4096, ..Default::default() });
        // rfd reads need no token; rdd reads do (select it once so only
        // the per-open cost is measured).
        let before = upcalls(&f);
        let (mut lat, direct) = if mode == ControlMode::Rdd {
            let (lat, direct) = rdd_and_direct_ns(&f, &f.token_path(0, TokenKind::Read), iters)?;
            (lat, Some(direct))
        } else {
            (open_close_ns(&f, &f.paths[0], OpenOptions::read_only(), iters), None)
        };
        let per_open = (upcalls(&f) - before) as f64 / iters as f64;
        let (median, p99) = (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99));
        rows.push(vec![
            mode.to_string(),
            fmt_ns(median as f64),
            fmt_ns(p99 as f64),
            s(format!("{per_open:.2}")),
        ]);
        metrics.extend([
            m(&format!("{mode}_upcalls_per_open"), per_open),
            m(&format!("{mode}_open_p50_ns"), median as f64),
            m(&format!("{mode}_open_p99_ns"), p99 as f64),
        ]);
        if let Some(mut direct) = direct {
            let (direct_p50, direct_p99) =
                (percentile(&mut direct, 0.50), percentile(&mut direct, 0.99));
            rows.push(vec![
                s("rdd, the same 3 DLFM calls made directly"),
                fmt_ns(direct_p50 as f64),
                fmt_ns(direct_p99 as f64),
                s("--"),
            ]);
            metrics.extend([
                m("rdd_direct_p50_ns", direct_p50 as f64),
                m("rdd_vs_direct", median as f64 / direct_p50.max(1) as f64),
            ]);
        }
    }
    result(
        "read-open cost: rfd (FS-controlled reads) vs rdd (DBMS-controlled) — §4.2",
        &["mode", "open+close p50", "p99", "upcalls/open"],
        rows,
        &[
            "rfd: zero upcalls on the read path — the paper's key optimization; the price is \
             the §5 read/write anomaly (demonstrated by test \
             rfd_write_takes_slow_path_and_reads_stay_fast)",
            "direct row: validate_token + open_check + close_notify called on the DLFM server, \
             alternating call by call with the rdd open+close; rdd_vs_direct is the rdd \
             open+close p50 over it, the cost DLFS and the upcall path add to the admission \
             work itself",
        ],
        metrics,
    )
}

/// Per-call ns of an rdd read open+close of `token_path` through the
/// managed stack, and of the admission work it upcalls for (token
/// validation, open check, close notification) called directly on the
/// DLFM server. The two alternate call by call, so machine load drifting
/// during the run shifts both alike.
fn rdd_and_direct_ns(
    f: &Fixture,
    token_path: &str,
    iters: u64,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let (dir, last) = token_path.rsplit_once('/').ok_or("token path has no '/'")?;
    let (name, token) = dl_dlfm::split_token_suffix(last);
    let token = token.ok_or("select_datalink returned no token")?;
    let path = format!("{dir}/{name}");
    let attr =
        f.sys.raw_fs(SRV).expect("raw").stat(&Cred::root(), &path).map_err(|e| e.to_string())?;
    let server = &f.sys.node(SRV).expect("node").server;
    let fs = f.sys.fs(SRV).expect("fs");
    let (mut managed, mut direct) = (Vec::new(), Vec::new());
    for k in 0..iters {
        let started = Instant::now();
        let fd = fs.open(&APP, token_path, OpenOptions::read_only()).expect("open");
        fs.close(fd).expect("close");
        managed.push(started.elapsed().as_nanos() as u64);

        // Opener ids far above any DLFS-issued one.
        let opener = u64::MAX / 2 + k;
        let started = Instant::now();
        server.validate_token(&path, token, APP.uid)?;
        match server.open_check(&path, APP.uid, TokenKind::Read, opener) {
            dl_dlfm::OpenDecision::Approved { .. } => {}
            other => return Err(format!("direct rdd admission: open_check gave {other:?}")),
        }
        server.close_notify(&path, opener, false, attr.size, attr.mtime)?;
        direct.push(started.elapsed().as_nanos() as u64);
    }
    Ok((managed, direct))
}

// ===========================================================================
// A4 — Sync-table read tracking cost (§4.5: 2 extra DB updates + 1 upcall)
// ===========================================================================

fn a4_sync_table_cost(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let mut rows = Vec::new();
    let mut per_open = Vec::new();
    for track in [true, false] {
        let f = fixture(FixtureOptions {
            mode: ControlMode::Rdd,
            n_files: 1,
            track_read_sync: track,
            ..Default::default()
        });
        let path = f.token_path(0, TokenKind::Read);
        let repo = f.sys.node(SRV).expect("node").server.repository();
        let before = repo.update_op_count();
        let lat = open_close_ns(&f, &path, OpenOptions::read_only(), iters);
        let updates = (repo.update_op_count() - before) as f64 / iters as f64;
        rows.push(vec![
            s(if track { "sync entries on (default)" } else { "sync entries off (ablation)" }),
            fmt_ns(p50(lat)),
            s(format!("{updates:.2}")),
        ]);
        per_open.push(updates);
    }
    let (on, off) = (per_open[0], per_open[1]);
    result(
        "Sync-table read tracking (§4.5: 'two extra database update operations and one \
         extra upcall for every request that opens file for read')",
        &["configuration", "open+close p50", "repo updates/open"],
        rows,
        &["every read open stores its validated token entry (1 repo update); tracking adds \
           the Sync row's insert at open and purge at close (2 more), the ablation drops them \
           at the price of the read/unlink race"],
        [
            m("tracked_updates_per_open", on),
            m("untracked_updates_per_open", off),
            m("tracking_updates_per_open", on - off),
        ],
    )
}

// ===========================================================================
// A5 — async vs sync archiving (§4.4)
// ===========================================================================

/// Fastest close() of a full-file update of a `kib` KiB file over the
/// disk-like I/O model, with the archive copy async (paper) or sync. On a
/// 2-vCPU machine the async arm's archiver spins its modelled copy on one
/// core while the close finishes on the other, so a busy host can stall
/// any single close by a scheduler quantum.
fn close_ns(kib: usize, sync_archive: bool, iters: u64) -> f64 {
    let f = fixture(FixtureOptions {
        n_files: 1,
        file_size: kib * 1024,
        sync_archive,
        io: IoModel::disk_like(),
        ..Default::default()
    });
    let fs = f.sys.fs(SRV).expect("fs");
    let archive = f.sys.node(SRV).expect("node").server.archive_store();
    let content = make_content(kib * 1024);
    let lat: Vec<u64> = (0..iters)
        .map(|_| {
            let path = f.token_path(0, TokenKind::Write);
            let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
            fs.write(fd, &content).expect("write");
            let t = Instant::now();
            fs.close(fd).expect("close");
            let ns = t.elapsed().as_nanos() as u64;
            archive.wait_archived(&f.paths[0]);
            ns
        })
        .collect();
    fastest(lat)
}

fn a5_archive_async(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "cycles", t.params.cycles)?;
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for kib in [64, 512, 2048] {
        let (async_ns, sync_ns) = (close_ns(kib, false, iters), close_ns(kib, true, iters));
        let ratio = sync_ns / async_ns;
        rows.push(vec![
            s(format!("{kib} KiB")),
            fmt_ns(async_ns),
            fmt_ns(sync_ns),
            s(format!("{ratio:.2}x")),
        ]);
        metrics.push(m(&format!("sync_over_async_{kib}k"), ratio));
    }
    result(
        "archiving policy (§4.4): close() latency, async (paper) vs sync (ablation)",
        &["file size", "fastest close, async archive", "fastest close, sync archive", "sync/async"],
        rows,
        &["async archiving moves the content copy off the close path; a new update to the \
           same file still blocks until the archive completes (the §4.4 blocking rule)"],
        metrics,
    )
}

// ===========================================================================
// A6 — atomicity under crash injection (§4.2)
// ===========================================================================

fn a6_crash_atomicity(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let rounds = need(sc, t, "cycles", t.params.cycles)?;
    let mut restored = 0u64;
    for round in 0..rounds {
        let f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
        let committed = make_content(1024 + round as usize);
        f.managed_update(0, &committed);

        // Start another update, write garbage, crash before close.
        let path = f.token_path(0, TokenKind::Write);
        let fs = f.sys.fs(SRV).expect("fs");
        let fd = fs.open(&APP, &path, OpenOptions::write_truncate()).expect("open");
        fs.write(fd, b"doomed").expect("write");
        let Fixture { sys, paths, .. } = f;
        let (sys, _) = DataLinksSystem::recover(sys.crash()).expect("recover");

        let data = sys.raw_fs(SRV).expect("raw").read_file(&Cred::root(), &paths[0]).expect("read");
        if data == committed {
            restored += 1;
        }
    }
    result(
        "atomicity: crash mid-update always restores the last committed version (§4.2)",
        &["crash rounds", "content == last committed"],
        vec![vec![s(rounds), s(restored)]],
        &["property-based variants live in tests/crash_recovery.rs"],
        [m("crash_rounds", rounds as f64), m("restored_rounds", restored as f64)],
    )
}

// ===========================================================================
// A7 — coordinated point-in-time restore (§4.4)
// ===========================================================================

fn a7_point_in_time(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let updates = need(sc, t, "updates", t.params.updates)?;
    let f = fixture(FixtureOptions { n_files: 1, ..Default::default() });
    let raw = f.sys.raw_fs(SRV).expect("raw");
    let mut states = vec![f.sys.state_id()];
    let mut contents = vec![raw.read_file(&Cred::root(), &f.paths[0]).expect("read")];
    for v in 0..updates {
        let content = make_content(512 + v as usize);
        f.managed_update(0, &content);
        states.push(f.sys.state_id());
        contents.push(content);
    }
    let backup = f.sys.backup().expect("backup");

    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    let (mut sys, paths) = (f.sys, f.paths);
    for (i, state) in states.iter().enumerate().rev() {
        let (restored, report) = sys.restore(&backup, *state).expect("restore");
        let data =
            restored.raw_fs(SRV).expect("raw").read_file(&Cred::root(), &paths[0]).expect("read");
        let matches = data == contents[i];
        mismatches += usize::from(!matches);
        rows.push(vec![
            s(format!("v{}", i + 1)),
            s(*state),
            s(report.files_rolled_back),
            s(matches),
        ]);
        sys = restored;
    }
    result(
        "coordinated point-in-time restore: file content matches restored metadata (§4.4)",
        &["target version", "state id (LSN)", "files rolled back", "content matches"],
        rows,
        &["restore walks backwards from the newest version to v1; every step must land on \
           that version's bytes"],
        [m("restored_versions", states.len() as f64), m("content_mismatches", mismatches as f64)],
    )
}

// ===========================================================================
// A8 — strict-link extension cost (§4.5 future work, implemented)
// ===========================================================================

fn a8_strict_link(sc: &Scenario, t: &TrialSpec) -> Result<ScenarioRun, String> {
    let iters = need(sc, t, "ops", t.params.ops)?;
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for strict in [false, true] {
        let f = fixture(FixtureOptions { strict, n_files: 1, ..Default::default() });
        let raw = f.sys.raw_fs(SRV).expect("raw");
        raw.write_file(&APP, "/data/unlinked.bin", b"plain").expect("seed");
        let before = upcalls(&f);
        let lat = open_close_ns(&f, "/data/unlinked.bin", OpenOptions::read_only(), iters);
        let per_open = (upcalls(&f) - before) as f64 / iters as f64;
        let config = if strict { "strict" } else { "default" };
        rows.push(vec![
            s(if strict { "strict (window closed)" } else { "default (paper prototype)" }),
            fmt_ns(p50(lat)),
            s(format!("{per_open:.2}")),
        ]);
        metrics.push(m(&format!("{config}_upcalls_per_open"), per_open));
    }
    result(
        "closing the §4.5 link window: per-open cost of registering *unlinked* opens",
        &["configuration", "open+close p50", "upcalls/open"],
        rows,
        &["the paper rejects this ('undesirable for performance reasons') and leaves it as \
           future work; the measured cost quantifies why"],
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_table_id_has_a_runner() {
        for id in dl_lab::PAPER_TABLES {
            assert!(runner(id).is_some(), "paper table {id} has no runner");
        }
    }

    #[test]
    fn t1_scenario_observes_the_papers_table_1() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/t1.jsonl");
        let sc = dl_lab::load_scenario(std::path::Path::new(path)).expect("t1 scenario parses");
        let run = crate::lab::run_scenario(&sc, true).expect("t1 runs");
        assert_eq!(run.metrics.get("t1_mismatches"), Some(&0.0), "{}", run.table.render());
        assert_eq!(run.table.rows.len(), TABLE_1.len());
    }
}
