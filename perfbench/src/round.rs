//! One round: build the system, warm it up, measure the closed loop, run
//! the layer probes (traced run) and the output checks, and report it all
//! as text records on standard output.
//!
//! Every round runs in a process of its own. The system keeps the memory
//! of every archived version and does not give memory back when dropped,
//! so a second system built in the same process would start on top of the
//! first one's heap; a fresh process makes each round's peak memory its
//! own, and leaves no background thread of an earlier round running.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dl_bench::SRV;

use crate::layers::{self, Traced};
use crate::stats::peak_rss_mb;
use crate::stream::OpStream;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Class, Kind, Outcome, Round, CLIENTS};

/// Unmeasured operations at the start of each round.
const WARMUP_OPS: usize = 100;

/// What one client thread saw in one phase.
#[derive(Default)]
struct ClientResult {
    latencies: [Vec<u64>; 3],
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    violations: Vec<String>,
    spans: Vec<Span>,
}

/// What one phase of a round came to.
#[derive(Default)]
struct Phase {
    clients: Vec<ClientResult>,
    wall: Duration,
}

impl Phase {
    fn completed(&self, class: Option<Class>) -> u64 {
        let count = |c: &ClientResult| match class {
            Some(class) => c.latencies[class as usize].len() as u64,
            None => c.latencies.iter().map(|l| l.len() as u64).sum(),
        };
        self.clients.iter().map(count).sum()
    }
}

/// Where a phase's operations come from and when it stops.
struct PhasePlan {
    /// Distinguishes the operation streams of a run's phases.
    stream: usize,
    budget: Duration,
    /// Most operations the phase may start.
    cap: usize,
    traced: bool,
}

/// Runs the workload's closed loop on `round` until the plan's budget
/// passes or its cap of operations has started.
fn run_phase(round: &Round, kind: Kind, seed: u64, plan: PhasePlan, epoch: Instant) -> Phase {
    let started = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + plan.budget;
    let plan = &plan;
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let started = &started;
                scope.spawn(move || {
                    let mut ops = OpStream::new(seed, plan.stream, client, kind.mix());
                    let mut tr = Tracer::new(plan.traced, epoch);
                    let mut res = ClientResult::default();
                    let op_base = ((plan.stream as u64) << 40) | ((client as u64) << 32);
                    for seq in 0.. {
                        if Instant::now() >= deadline
                            || started.fetch_add(1, Ordering::Relaxed) >= plan.cap
                        {
                            break;
                        }
                        let op = ops.next().expect("operation streams are endless");
                        tr.begin_op(op_base | seq);
                        res.attempted += 1;
                        match round.run_op(op, &mut tr) {
                            Outcome::Done(class, ns) => res.latencies[class as usize].push(ns),
                            Outcome::Failed(e) => {
                                res.failed += 1;
                                res.errors.push(e);
                            }
                            Outcome::Violation(e) => {
                                res.failed += 1;
                                res.violations.push(e);
                            }
                        }
                    }
                    res.spans = tr.spans;
                    res
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    Phase { clients, wall: t0.elapsed() }
}

/// Most error and violation messages a client prints per phase; the
/// `count` record carries the full number of failures.
const MESSAGES: usize = 20;

/// Prints a phase's attempts, failures and (when `measured`) latencies.
fn emit(phase: &Phase, measured: bool) {
    for c in &phase.clients {
        println!("count {} {}", c.attempted, c.failed);
        for e in c.errors.iter().take(MESSAGES) {
            println!("error {}", e.replace('\n', " "));
        }
        for e in c.violations.iter().take(MESSAGES) {
            println!("violation {}", e.replace('\n', " "));
        }
        if measured {
            for class in Class::ALL {
                let lat = &c.latencies[class as usize];
                if !lat.is_empty() {
                    let ns: Vec<String> = lat.iter().map(u64::to_string).collect();
                    println!("lat {} {}", class as usize, ns.join(" "));
                }
            }
        }
    }
}

/// Runs round `r` of a run and prints its records. `spans_file`, in a
/// traced run, is where this round's spans are appended.
pub fn run_round(
    kind: Kind,
    seed: u64,
    r: usize,
    budget: Duration,
    spans_file: Option<&std::path::Path>,
) -> Result<(), String> {
    let epoch = Instant::now();
    let t = Instant::now();
    let round = Round::setup(kind, seed)?;
    println!("setup {}", t.elapsed().as_secs_f64());

    let warm = PhasePlan {
        stream: r * 4,
        budget: Duration::from_secs(30),
        cap: WARMUP_OPS,
        traced: false,
    };
    emit(&run_phase(&round, kind, seed, warm, epoch), false);
    let cap = kind.round_cap().saturating_sub(WARMUP_OPS);

    match spans_file {
        None => {
            let plan = PhasePlan { stream: r * 4 + 1, budget, cap, traced: false };
            let phase = run_phase(&round, kind, seed, plan, epoch);
            println!("measured {} {}", phase.completed(None), phase.wall.as_secs_f64());
            emit(&phase, true);
        }
        Some(path) => {
            // Half the round untraced, half traced, alternating which goes
            // first; registry deltas cover the traced half only.
            let mut traced = Traced::default();
            for half in 0..2 {
                let tracing = (half + r) % 2 == 1;
                let plan = PhasePlan {
                    stream: r * 4 + 1 + half,
                    budget: budget / 2,
                    cap: cap / 2,
                    traced: tracing,
                };
                let before = round.metrics();
                let mut phase = run_phase(&round, kind, seed, plan, epoch);
                let wall = phase.wall.as_secs_f64();
                let ops = phase.completed(None);
                if tracing {
                    traced.delta.add(&before, &round.metrics());
                    traced.ops = ops;
                    traced.updates = phase.completed(Some(Class::Update));
                    traced.traced_ops_per_s = ops as f64 / wall;
                    for c in &mut phase.clients {
                        traced.spans.append(&mut c.spans);
                    }
                } else {
                    traced.untraced_ops_per_s = ops as f64 / wall;
                }
                println!("half {ops} {wall}");
                emit(&phase, false);
            }
            // Probes run after the deltas so they do not pollute per-op counts.
            round.probe(&mut traced.probes)?;
            for (lm, v) in layers::per_layer(&traced, SRV) {
                println!("layer {} {v}", lm.name);
            }
            trace::append_spans(path, &traced.spans)
                .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
        }
    }

    if let Err(e) = round.end_check() {
        println!("violation {}", e.replace('\n', " "));
    }
    if let Some(ratio) = round.archive_bytes_per_user_byte()? {
        println!("archive {ratio}");
    }
    println!("rss {}", peak_rss_mb().unwrap_or(0.0));
    Ok(())
}
