//! The three workloads: set-up, one operation, the end-of-round check and
//! the layer probes of each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_bench::{fixture, Fixture, FixtureOptions, APP, SRV, TABLE};
use dl_core::TokenKind;
use dl_dlfm::{split_token_suffix, OpenDecision, Transport};
use dl_fskit::{Cred, Lfs, OpenOptions};
use dl_minidb::Value;
use dl_net::Message;
use dl_obs::Snapshot;

use crate::checks::{self, LinkEndState};
use crate::stream::{Mix, Op};
use crate::trace::Tracer;

/// Client threads per workload (a closed loop, no think time).
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TokenRead,
    UpdateMix,
    LinkWire,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TokenRead, Kind::UpdateMix, Kind::LinkWire];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TokenRead => "token_read",
            Kind::UpdateMix => "update_mix",
            Kind::LinkWire => "link_wire",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn files(self) -> usize {
        match self {
            Kind::TokenRead => 4096,
            Kind::UpdateMix => 256,
            Kind::LinkWire => 1024,
        }
    }

    pub fn file_size(self) -> usize {
        match self {
            Kind::UpdateMix => 64 * 1024,
            Kind::TokenRead | Kind::LinkWire => 8 * 1024,
        }
    }

    pub fn mix(self) -> Mix {
        let files = self.files();
        match self {
            Kind::TokenRead => Mix::Reads { files },
            Kind::UpdateMix => Mix::Updates { files, clients: CLIENTS },
            Kind::LinkWire => Mix::LinkCycles { files, clients: CLIENTS },
        }
    }

    /// Operations one round may run, warm-up included. Memory grows with
    /// completed operations in every workload: `update_mix` keeps every
    /// archived version, and each read or link cycle leaves some state
    /// behind. Capping a round by count keeps peak memory a function of
    /// the workload, not of how fast the system got through it.
    pub fn round_cap(self) -> usize {
        match self {
            Kind::TokenRead => 30_000,
            Kind::UpdateMix => 2_000,
            Kind::LinkWire => 6_000,
        }
    }

    /// The operation class whose latency the end-to-end percentiles gate.
    pub fn gated_class(self) -> Class {
        match self {
            Kind::TokenRead => Class::Read,
            Kind::UpdateMix => Class::Update,
            Kind::LinkWire => Class::LinkCycle,
        }
    }

    fn options(self) -> FixtureOptions {
        let base = FixtureOptions { n_files: 0, ..FixtureOptions::default() };
        match self {
            Kind::TokenRead => base,
            Kind::UpdateMix => FixtureOptions { replicas: 1, db_sync_latency_ns: 100_000, ..base },
            Kind::LinkWire => FixtureOptions { transport: Transport::Socket, ..base },
        }
    }
}

/// Operation classes, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Update = 1,
    LinkCycle = 2,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Read, Class::Update, Class::LinkCycle];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Update => "update",
            Class::LinkCycle => "link_cycle",
        }
    }
}

/// What one operation came to.
pub enum Outcome {
    /// Completed and checked; latency in nanoseconds.
    Done(Class, u64),
    /// The system returned an error or refused the operation.
    Failed(String),
    /// The operation completed but its output check failed.
    Violation(String),
}

/// Layer probes: direct calls timed outside any workload operation.
#[derive(Default)]
pub struct Probes {
    /// `validate_token` + `open_check` + `close_notify` on the DLFM server.
    pub admission_ns: Vec<u64>,
    /// Open/read/close of an unlinked file on the raw file system.
    pub plain_read_ns: Vec<u64>,
    /// `WireConn::call(EpochGet)` round trips.
    pub call_ns: Vec<u64>,
}

const PROBE_ITERS: usize = 300;
const CONTROL_FILE: &str = "/data/control.bin";

/// One built system, ready to run a workload's operations.
pub struct Round {
    kind: Kind,
    seed: u64,
    fx: Fixture,
    fs: Arc<Lfs>,
    /// `update_mix`: the last acknowledged version of each file.
    acked: Vec<AtomicU64>,
    /// `update_mix`: payload bytes written by acknowledged updates.
    written: AtomicU64,
    /// `update_mix`: archived bytes (primary + standby) after set-up.
    archived_at_setup: u64,
}

fn path_of(i: usize) -> String {
    format!("/data/doc{i:04}.bin")
}

fn url_of(i: usize) -> String {
    format!("dlfs://{SRV}{}", path_of(i))
}

fn link(fx: &Fixture, i: usize) -> Result<(), String> {
    let mut tx = fx.sys.begin();
    tx.insert(TABLE, vec![Value::Int(i as i64), Value::DataLink(url_of(i))])
        .map_err(|e| e.to_string())?;
    tx.commit().map(|_| ()).map_err(|e| e.to_string())
}

impl Round {
    /// Builds the system, seeds the workload's files from `seed` and links
    /// those the workload reads or updates.
    pub fn setup(kind: Kind, seed: u64) -> Result<Round, String> {
        let mut fx = fixture(kind.options());
        let raw = fx.sys.raw_fs(SRV)?;
        let size = kind.file_size();
        for i in 0..kind.files() {
            let content = match kind {
                Kind::UpdateMix => checks::versioned_payload(seed, i, 0, size),
                Kind::TokenRead | Kind::LinkWire => checks::seeded_content(seed, i, size),
            };
            raw.write_file(&APP, &path_of(i), &content).map_err(|e| e.to_string())?;
            if kind != Kind::LinkWire {
                link(&fx, i)?;
                fx.paths.push(path_of(i));
            }
        }
        raw.write_file(&APP, CONTROL_FILE, &checks::seeded_content(seed, usize::MAX, 8192))
            .map_err(|e| e.to_string())?;
        let fs = fx.sys.fs(SRV)?;
        let acked = (0..kind.files()).map(|_| AtomicU64::new(0)).collect();
        let mut round =
            Round { kind, seed, fx, fs, acked, written: AtomicU64::new(0), archived_at_setup: 0 };
        if kind == Kind::UpdateMix {
            round.archived_at_setup = round.archived_bytes()?;
        }
        Ok(round)
    }

    pub fn metrics(&self) -> Snapshot {
        self.fx.sys.metrics()
    }

    /// Runs one operation, timing it from its first call into the system
    /// to the return of its last; checks run after the clock stops.
    pub fn run_op(&self, op: Op, tr: &mut Tracer) -> Outcome {
        match op {
            Op::Read(i) => self.read(i, tr),
            Op::Update(i) => self.update(i, tr),
            Op::LinkCycle(i) => self.link_cycle(i, tr),
        }
    }

    fn token_read(&self, i: usize, tr: &mut Tracer) -> Result<(Vec<u8>, u64), String> {
        let t0 = Instant::now();
        let root = tr.enter("op");
        let key = Value::Int(i as i64);
        let out = (|| {
            let (_, path) = tr.span("core.select_datalink", || {
                self.fx.sys.select_datalink(TABLE, &key, "body", TokenKind::Read)
            })?;
            let fd = tr
                .span("dlfs.open", || self.fs.open(&APP, &path, OpenOptions::read_only()))
                .map_err(|e| format!("open: {e}"))?;
            let data = tr.span("dlfs.read", || self.fs.read_to_end(fd));
            let closed = tr.span("dlfs.close", || self.fs.close(fd));
            let data = data.map_err(|e| format!("read: {e}"))?;
            closed.map_err(|e| format!("close: {e}"))?;
            Ok(data)
        })();
        tr.exit(root);
        let ns = t0.elapsed().as_nanos() as u64;
        out.map(|data| (data, ns))
    }

    fn read(&self, i: usize, tr: &mut Tracer) -> Outcome {
        // The newest version acknowledged before the read began.
        let acked_before = self.acked[i].load(Ordering::Acquire);
        let (data, ns) = match self.token_read(i, tr) {
            Ok(r) => r,
            Err(e) => return Outcome::Failed(format!("read of file {i}: {e}")),
        };
        let size = self.kind.file_size();
        let checked = match self.kind {
            Kind::UpdateMix => {
                checks::check_versioned_read(self.seed, i, size, acked_before, &data).map(|_| ())
            }
            _ => checks::check_read(i, &checks::seeded_content(self.seed, i, size), &data),
        };
        match checked {
            Ok(()) => Outcome::Done(Class::Read, ns),
            Err(e) => Outcome::Violation(e),
        }
    }

    fn update(&self, i: usize, tr: &mut Tracer) -> Outcome {
        // Only this client updates file `i`, so the next version is known.
        let version = self.acked[i].load(Ordering::Acquire) + 1;
        let payload = checks::versioned_payload(self.seed, i, version, self.kind.file_size());
        let server = &self.fx.sys.node(SRV).expect("the fixture's file server").server;
        let t0 = Instant::now();
        let root = tr.enter("op");
        let key = Value::Int(i as i64);
        let out = (|| {
            let (_, path) = tr.span("core.select_datalink", || {
                self.fx.sys.select_datalink(TABLE, &key, "body", TokenKind::Write)
            })?;
            let fd = tr
                .span("dlfs.open", || self.fs.open(&APP, &path, OpenOptions::write_truncate()))
                .map_err(|e| format!("open: {e}"))?;
            let wrote = tr.span("dlfs.write", || self.fs.write(fd, &payload));
            let closed = tr.span("dlfs.close", || self.fs.close(fd));
            match wrote {
                Ok(n) if n == payload.len() => {}
                Ok(n) => return Err(format!("short write: {n} of {} bytes", payload.len())),
                Err(e) => return Err(format!("write: {e}")),
            }
            closed.map_err(|e| format!("close: {e}"))?;
            tr.span("dlfm.wait_archived", || server.archive_store().wait_archived(&path_of(i)));
            Ok(())
        })();
        tr.exit(root);
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(()) => {
                self.acked[i].store(version, Ordering::Release);
                self.written.fetch_add(payload.len() as u64, Ordering::Relaxed);
                Outcome::Done(Class::Update, ns)
            }
            Err(e) => Outcome::Failed(format!("update of file {i} to version {version}: {e}")),
        }
    }

    fn link_cycle(&self, i: usize, tr: &mut Tracer) -> Outcome {
        let key = Value::Int(i as i64);
        let row = vec![key.clone(), Value::DataLink(url_of(i))];
        let t0 = Instant::now();
        let root = tr.enter("op");
        let out = (|| {
            let tx = tr.span("core.txn_dml", || {
                let mut tx = self.fx.sys.begin();
                tx.insert(TABLE, row).map(|_| tx)
            });
            let tx = tx.map_err(|e| format!("insert: {e}"))?;
            tr.span("core.txn_commit", || tx.commit()).map_err(|e| format!("link commit: {e}"))?;
            let tx = tr.span("core.txn_dml", || {
                let mut tx = self.fx.sys.begin();
                tx.delete(TABLE, &key).map(|_| tx)
            });
            let tx = tx.map_err(|e| format!("delete: {e}"))?;
            tr.span("core.txn_commit", || tx.commit())
                .map_err(|e| format!("unlink commit: {e}"))?;
            Ok::<(), String>(())
        })();
        tr.exit(root);
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(()) => Outcome::Done(Class::LinkCycle, ns),
            // Every commit must succeed: a failed cycle is also a violation.
            Err(e) => Outcome::Violation(format!("link cycle of file {i}: {e}")),
        }
    }

    /// Archived bytes on the primary plus the standby, over every version.
    fn archived_bytes(&self) -> Result<u64, String> {
        let node = self.fx.sys.node(SRV)?;
        let mut stores = vec![Arc::clone(node.server.archive_store())];
        if let Some(set) = &node.replication {
            stores.extend(set.standbys().iter().map(|s| Arc::clone(s.archive_store())));
        }
        let mut total = 0;
        for store in &stores {
            for path in &self.fx.paths {
                for (version, _) in store.versions(path) {
                    total += store.get(path, version).map_or(0, |a| a.data.len() as u64);
                }
            }
        }
        Ok(total)
    }

    /// `update_mix`: archived bytes per payload byte written this round.
    pub fn archive_bytes_per_user_byte(&self) -> Result<Option<f64>, String> {
        let written = self.written.load(Ordering::Relaxed);
        if self.kind != Kind::UpdateMix || written == 0 {
            return Ok(None);
        }
        let archived = self.archived_bytes()?.saturating_sub(self.archived_at_setup);
        Ok(Some(archived as f64 / written as f64))
    }

    /// The end-of-round output checks.
    pub fn end_check(&self) -> Result<(), String> {
        checks::check_health(&self.metrics())?;
        let node = self.fx.sys.node(SRV)?;
        match self.kind {
            Kind::TokenRead => Ok(()),
            Kind::UpdateMix => {
                if !self.fx.sys.wait_replicas_caught_up(SRV, Duration::from_secs(30))? {
                    return Err("the standby did not catch up within 30 s".into());
                }
                let set = node.replication.as_ref().ok_or("update_mix runs without a standby")?;
                let standby = set.standbys().first().ok_or("the replica set has no standby")?;
                let raw = self.fx.sys.raw_fs(SRV)?;
                for (i, path) in self.fx.paths.iter().enumerate() {
                    let v = self.acked[i].load(Ordering::Acquire);
                    let want = checks::versioned_payload(self.seed, i, v, self.kind.file_size());
                    node.server.archive_store().wait_archived(path);
                    let content = raw.read_file(&Cred::root(), path).map_err(|e| e.to_string())?;
                    let primary = node.server.archive_store().latest(path).map(|a| a.data);
                    let mirror = standby.archive_store().latest(path).map(|a| a.data);
                    checks::check_final_version(
                        i,
                        v,
                        &want,
                        &content,
                        primary.as_deref(),
                        mirror.as_deref(),
                    )?;
                }
                Ok(())
            }
            Kind::LinkWire => {
                let end = self.link_end_state()?;
                checks::check_link_end(&self.fx.paths, &end)
            }
        }
    }

    fn link_end_state(&self) -> Result<LinkEndState, String> {
        let node = self.fx.sys.node(SRV)?;
        let host_rows = self.fx.sys.begin().scan(TABLE).map_err(|e| e.to_string())?.len();
        let decode_errors = self
            .metrics()
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with("decode_errors"))
            .map(|(_, &v)| v)
            .sum();
        Ok(LinkEndState {
            repo_links: node.server.repository().list_files().into_iter().map(|e| e.path).collect(),
            host_rows,
            pending_host_txns: node.server.pending_host_txns().len(),
            decode_errors,
        })
    }

    /// Direct layer probes, each where the system has the layer: the DLFM
    /// admission sequence on a linked file, a plain read of an unlinked
    /// file on the raw file system, and a wire round trip.
    pub fn probe(&self, into: &mut Probes) -> Result<(), String> {
        let node = self.fx.sys.node(SRV)?;
        let raw = self.fx.sys.raw_fs(SRV)?;
        let mut buf = Vec::new();
        for _ in 0..PROBE_ITERS {
            let t0 = Instant::now();
            let fd = raw
                .open(&APP, CONTROL_FILE, OpenOptions::read_only())
                .map_err(|e| e.to_string())?;
            let data = raw.read_to_end(fd);
            raw.close(fd).map_err(|e| e.to_string())?;
            into.plain_read_ns.push(t0.elapsed().as_nanos() as u64);
            buf = data.map_err(|e| e.to_string())?;
        }
        if buf.len() != 8192 {
            return Err(format!("plain read probe returned {} bytes", buf.len()));
        }
        if self.kind == Kind::TokenRead {
            let server = &node.server;
            let (_, token_path) =
                self.fx.sys.select_datalink(TABLE, &Value::Int(0), "body", TokenKind::Read)?;
            let (name_dir, last) = token_path.rsplit_once('/').ok_or("token path has no '/'")?;
            let (name, token) = split_token_suffix(last);
            let token = token.ok_or("select_datalink returned no token")?;
            let path = format!("{name_dir}/{name}");
            let attr = raw.stat(&Cred::root(), &path).map_err(|e| e.to_string())?;
            for k in 0..PROBE_ITERS as u64 {
                // Opener ids far above any DLFS-issued one.
                let opener = u64::MAX / 2 + k;
                let t0 = Instant::now();
                server.validate_token(&path, token, APP.uid)?;
                match server.open_check(&path, APP.uid, TokenKind::Read, opener) {
                    OpenDecision::Approved { .. } => {}
                    other => return Err(format!("admission probe: open_check gave {other:?}")),
                }
                server.close_notify(&path, opener, false, attr.size, attr.mtime)?;
                into.admission_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
        if let Some(wire) = node.wire() {
            let conn = wire.connect("perfbench-probe")?;
            for _ in 0..PROBE_ITERS {
                let t0 = Instant::now();
                let reply = conn.call(Message::EpochGet)?;
                into.call_ns.push(t0.elapsed().as_nanos() as u64);
                if !matches!(reply, Message::EpochIs(_)) {
                    return Err(format!("EpochGet probe: {reply:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_wire_end_check_fires_on_a_leftover_link() {
        let round = Round::setup(Kind::LinkWire, 5).expect("set up link_wire");
        let mut tr = Tracer::new(true, Instant::now());
        for i in [0, 1, 2] {
            tr.begin_op(i as u64);
            assert!(matches!(
                round.run_op(Op::LinkCycle(i), &mut tr),
                Outcome::Done(Class::LinkCycle, _)
            ));
        }
        // Each cycle records its op span and four layer spans.
        assert_eq!(tr.spans.len(), 3 * 5);
        round.end_check().expect("clean end state");
        link(&round.fx, 7).expect("link without unlink");
        let err = round.end_check().unwrap_err();
        assert!(err.contains("/data/doc0007.bin"), "{err}");
    }

    #[test]
    fn update_mix_end_check_fires_on_a_dropped_acked_version() {
        let round = Round::setup(Kind::UpdateMix, 5).expect("set up update_mix");
        let mut tr = Tracer::new(false, Instant::now());
        assert!(matches!(round.run_op(Op::Update(2), &mut tr), Outcome::Done(Class::Update, _)));
        assert!(matches!(round.run_op(Op::Read(2), &mut tr), Outcome::Done(Class::Read, _)));
        round.end_check().expect("content and both archives hold version 1");
        // The standby loses the acked version.
        let node = round.fx.sys.node(SRV).expect("node");
        let set = node.replication.as_ref().expect("standby");
        set.standbys()[0].archive_store().forget(&path_of(2));
        let err = round.end_check().unwrap_err();
        assert!(err.contains("standby archive"), "{err}");
    }

    #[test]
    fn token_read_check_fires_on_another_files_bytes() {
        let round = Round::setup(Kind::TokenRead, 5).expect("set up token_read");
        let mut tr = Tracer::new(false, Instant::now());
        assert!(matches!(round.run_op(Op::Read(3), &mut tr), Outcome::Done(Class::Read, _)));
        // Swap file 3's bytes for another file's: the next read must fail.
        let raw = round.fx.sys.raw_fs(SRV).expect("raw fs");
        let other = checks::seeded_content(5, 4, Kind::TokenRead.file_size());
        raw.write_file(&Cred::root(), &path_of(3), &other).expect("overwrite");
        assert!(matches!(round.run_op(Op::Read(3), &mut tr), Outcome::Violation(_)));
        round.end_check().expect("no health failure");
    }
}
