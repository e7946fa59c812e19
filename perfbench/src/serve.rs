//! `serve-ckpt`: a closed loop against an in-process `pxl_serve::Server` on
//! loopback. One simulation worker serves two client connections (two
//! tenants); each client submits its next job only after the previous one
//! is `done`. The journal and checkpoint directory sit on disk with fsync
//! on (the server default), jobs carry checkpoint epochs that make them
//! cross several boundaries, and — with two tenants on one worker — a
//! boundary reached while the other tenant waits preempts the job.
//!
//! All service timings are client-side event timestamps; the server itself
//! is not instrumented, so a `--trace 1` run reports the `serve.*` metrics
//! of the same passes rather than making a layer-timed pass of its own.
//! `sim_cycles_per_s` comes from the calibration runs each pass's set-up
//! makes of its specs, outside the server: the client-observed legs also
//! hold resume, checkpoint persistence and event delivery.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pxl_apps::Scale;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{RunSpec, SimSession};
use pxl_serve::{
    measurement_to_json_value, Client, JobEvent, JobKind, ServeSummary, Server, ServerConfig,
};
use pxl_sim::{fnv64, XorShift64};

use crate::measure::{drive, PassTimes};
use crate::util::{self, cycles, fold_digests};
use crate::Outcome;

// The job mix below is chosen, not measured: there is no record of what
// service users submit. Each constant is set so that one server mechanism
// is exercised on every pass; METHODS.md gives the reason for each value.

/// Small-scale benchmarks whose runs (and snapshots) are light enough for
/// a service loop of many short jobs.
const BENCHES: [&str; 5] = ["nw", "quicksort", "cilksort", "knapsack", "uts"];
/// Job kinds, assigned to a tenant's distinct specs in turn.
const KINDS: [JobKind; 3] = [JobKind::Sim, JobKind::Dse, JobKind::Profile];
/// Repeated submissions per tenant and pass (dedup-cache hits).
const REPEATS: usize = 4;
/// Checkpoint boundaries every job crosses: an epoch of a quarter of the
/// run, as `--bin serve`'s live-introspection phase uses.
const BOUNDARIES: u64 = 3;

/// Each tenant's design points: disjoint, so a repeated spec is always the
/// same tenant's earlier (already finished) job and hits deterministically.
fn points(tenant: usize) -> [DesignPoint; 2] {
    if tenant == 0 {
        [
            DesignPoint::accel(PointArch::Flex, 1, 4),
            DesignPoint::cpu(2),
        ]
    } else {
        [
            DesignPoint::accel(PointArch::Central, 1, 4),
            DesignPoint::accel(PointArch::Flex, 2, 2),
        ]
    }
}

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// One submission of a tenant's stream.
#[derive(Clone)]
struct Planned {
    kind: JobKind,
    spec: RunSpec,
    /// Index of the earlier submission whose answer this one must repeat.
    repeat_of: Option<usize>,
    period_ps: u64,
}

/// One tenant's job stream for one pass, drawn afresh for every pass from
/// the run's seeded generator: every (benchmark, point) once, plus
/// [`REPEATS`] resubmissions of earlier sim/dse specs. The generator picks
/// the order and which specs are resubmitted where; the kinds and
/// boundary counts are fixed, so a pass's work stays comparable across
/// seeds. Checkpoint epochs come from each spec's calibrated cycle count;
/// the calibration runs' cycles and host seconds are added to `calibrated`.
fn stream(
    o: &mut Outcome,
    tenant: usize,
    rng: &mut XorShift64,
    calibrated: &mut (u64, f64),
) -> Vec<Planned> {
    let mut distinct = Vec::new();
    for (i, (name, point)) in BENCHES
        .iter()
        .flat_map(|b| points(tenant).map(|p| (*b, p)))
        .enumerate()
    {
        let spec = RunSpec::new(name, Scale::Small, point);
        o.attempted += 1;
        // Calibration: an uninterrupted run gives the cycle count the
        // checkpoint epoch divides.
        let run = SimSession::start(&spec).and_then(|s| {
            let mut s = s.ok_or_else(|| pxl_flow::RunError::Sim("no mapping".into()))?;
            let period = s.clock().period().as_ps();
            let start = Instant::now();
            let r = s.finish()?;
            Ok((cycles(r.kernel.as_ps(), period), period, start.elapsed()))
        });
        let (cycles, period_ps) = match run {
            Ok((cycles, period, took)) => {
                calibrated.0 += cycles;
                calibrated.1 += took.as_secs_f64();
                (cycles, period)
            }
            Err(e) => {
                o.fail(format!("calibrate {}: {e}", spec.canonical()));
                continue;
            }
        };
        distinct.push(Planned {
            kind: KINDS[i % KINDS.len()],
            spec: spec.with_checkpoint((cycles / (BOUNDARIES + 1)).max(1)),
            repeat_of: None,
            period_ps,
        });
    }
    util::shuffle(&mut distinct, rng);
    let mut jobs = distinct;
    for _ in 0..REPEATS {
        let cacheable: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].kind != JobKind::Profile && jobs[i].repeat_of.is_none())
            .collect();
        if cacheable.is_empty() {
            break;
        }
        let original = cacheable[rng.next_in_range(cacheable.len() as u64) as usize];
        let at = original + 1 + rng.next_in_range((jobs.len() - original) as u64) as usize;
        let mut again = jobs[original].clone();
        again.repeat_of = Some(original);
        jobs.insert(at, again);
        // Insertion shifts later originals; re-point their repeats.
        for j in jobs.iter_mut().skip(at + 1) {
            if let Some(r) = j.repeat_of.as_mut() {
                if *r >= at {
                    *r += 1;
                }
            }
        }
    }
    jobs
}

/// What the client saw of one job.
#[derive(Default)]
struct Seen {
    job_ms: f64,
    ack_ms: f64,
    queue_ms: f64,
    /// Gaps between consecutive progress beats.
    beat_gaps_ms: Vec<f64>,
    cycles: u64,
    /// Tenant, kind and canonical spec: what the answer must depend on.
    key: String,
    answer: String,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one tenant's stream to completion, closed loop.
fn tenant_loop(client: &mut Client, tenant: &str, jobs: &[Planned]) -> (Vec<Seen>, Vec<String>) {
    let mut seen: Vec<Seen> = Vec::new();
    let mut errors = Vec::new();
    for (i, p) in jobs.iter().enumerate() {
        let mut s = Seen {
            key: format!("{tenant} {}", pxl_serve::cache_key(p.kind, &p.spec)),
            ..Seen::default()
        };
        let start = Instant::now();
        let submitted = client.submit(tenant, p.kind, &p.spec);
        s.ack_ms = ms(start);
        let id = match submitted {
            Ok(id) => id,
            Err(e) => {
                errors.push(format!("{tenant} job {i}: submit refused: {e}"));
                seen.push(s);
                continue;
            }
        };
        let acked = Instant::now();
        let mut last_beat: Option<Instant> = None;
        loop {
            let event = match client.next_event() {
                Ok(e) => e,
                Err(e) => {
                    errors.push(format!("{tenant} job {i}: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            match event {
                JobEvent::Running { job } if job == id && s.queue_ms == 0.0 => {
                    s.queue_ms = (now - acked).as_secs_f64() * 1e3;
                }
                JobEvent::Progress { job, .. } if job == id => {
                    if let Some(prev) = last_beat {
                        s.beat_gaps_ms.push((now - prev).as_secs_f64() * 1e3);
                    }
                    last_beat = Some(now);
                }
                JobEvent::Done { job, result, .. } if job == id => {
                    s.cycles = result.kernel_ps / p.period_ps.max(1);
                    s.answer = measurement_to_json_value(&result).to_json();
                    if result.kernel_ps == 0 {
                        errors.push(format!("{tenant} job {i}: empty result"));
                    }
                    if let Some(first) = p.repeat_of.and_then(|r| seen.get(r)) {
                        if first.answer != s.answer {
                            errors.push(format!(
                                "{tenant} job {i}: repeated spec answered differently"
                            ));
                        }
                    }
                    break;
                }
                JobEvent::Failed { job, error } if job == id => {
                    errors.push(format!("{tenant} job {i} failed: {error}"));
                    break;
                }
                _ => {}
            }
        }
        s.job_ms = ms(start);
        seen.push(s);
    }
    (seen, errors)
}

/// A started server and its two connected tenants. Dropping it stops the
/// server, so no server outlives its pass.
struct Prepared {
    dir: PathBuf,
    server: Option<Server>,
    clients: Vec<Client>,
}

impl Prepared {
    /// Drains and joins the server through its own connection, then
    /// removes its directory. A server that refuses the drain is left to
    /// end with the process rather than joined, which would block.
    fn stop(&mut self) -> Result<ServeSummary, String> {
        self.clients.clear();
        let server = self.server.take().ok_or("server already stopped")?;
        let drained = connect(server.addr()).and_then(|mut admin| admin.drain());
        let summary = match drained {
            Ok(_) => Ok(server.join()),
            Err(e) => Err(format!("drain: {e}")),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        summary
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if self.server.is_some() {
            let _ = self.stop();
        }
    }
}

/// A connection whose reads time out, so a stalled server fails the run
/// instead of hanging it.
fn connect(addr: std::net::SocketAddr) -> Result<Client, pxl_serve::ClientError> {
    Client::connect_with(addr, &pxl_serve::ClientConfig::default())
}

fn work_dir() -> PathBuf {
    Path::new("perfbench")
        .join(".work")
        .join(format!("serve-{}", std::process::id()))
}

/// One set-up iteration: a fresh journal and checkpoint directory, a
/// server with one simulation worker, and one connection per tenant.
fn setup(o: &mut Outcome) -> Option<Prepared> {
    let dir = work_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        workers: 1,
        job_log: Some(dir.join("journal.jsonl")),
        checkpoint_dir: Some(dir.join("ckpt")),
        ..ServerConfig::default()
    };
    let started = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| Server::start(config));
    let server = match started {
        Ok(s) => s,
        Err(e) => {
            o.fail(format!("server start: {e}"));
            return None;
        }
    };
    let addr = server.addr();
    let mut prepared = Prepared {
        dir,
        server: Some(server),
        clients: Vec::new(),
    };
    for _ in TENANTS {
        match connect(addr) {
            Ok(c) => prepared.clients.push(c),
            Err(e) => {
                o.fail(format!("connect: {e}"));
                return None;
            }
        }
    }
    Some(prepared)
}

#[derive(Default)]
struct Pass {
    wall_s: f64,
    seen: Vec<Seen>,
    digest: u64,
    hits: u64,
    misses: u64,
    preempted: u64,
    resumed: u64,
    /// The calibration runs made in set-up since the previous pass:
    /// cycles and host seconds.
    calibrated: (u64, f64),
}

fn run_pass(o: &mut Outcome, mut p: Prepared, streams: &[Vec<Planned>]) -> Pass {
    let start = Instant::now();
    let results: Vec<(Vec<Seen>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = p
            .clients
            .iter_mut()
            .zip(TENANTS)
            .zip(streams)
            .map(|((client, tenant), jobs)| s.spawn(move || tenant_loop(client, tenant, jobs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for (seen, errors) in results {
        o.attempted += seen.len() as u64;
        for e in errors {
            o.fail(e);
        }
        pass.seen.extend(seen);
    }
    // Streams are reordered and resubmit different specs every pass, so
    // the digest covers each distinct spec's answer, in spec order
    // (resubmissions are checked against their originals as they arrive).
    let answers: std::collections::BTreeMap<&str, u64> = pass
        .seen
        .iter()
        .map(|s| (s.key.as_str(), fnv64(s.answer.as_bytes())))
        .collect();
    pass.digest = fold_digests(answers.into_values());
    match p.stop() {
        Err(e) => o.fail(e),
        Ok(summary) => {
            if summary.failed != 0 {
                o.fail(format!("server reports {} failed jobs", summary.failed));
            }
            pass.hits = summary.cache_hits;
            pass.misses = summary.cache_misses;
            pass.preempted = summary.preempted;
            pass.resumed = summary.resumed;
        }
    }
    pass
}

struct State {
    o: Outcome,
    rng: XorShift64,
    streams: Vec<Vec<Planned>>,
    calibrated: (u64, f64),
    passes: Vec<Pass>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut st = State {
        o: Outcome::default(),
        rng: XorShift64::new(fnv64(&seed.to_le_bytes())),
        streams: Vec::new(),
        calibrated: (0, 0.0),
        passes: Vec::new(),
    };
    let driven = drive(
        seconds,
        &mut st,
        |st| {
            st.streams = (0..TENANTS.len())
                .map(|t| stream(&mut st.o, t, &mut st.rng, &mut st.calibrated))
                .collect();
            setup(&mut st.o)
        },
        |st, prepared| {
            let Some(prepared) = prepared else { return };
            let mut pass = run_pass(&mut st.o, prepared, &st.streams);
            pass.calibrated = std::mem::take(&mut st.calibrated);
            st.passes.push(pass);
        },
    );
    let State { mut o, passes, .. } = st;
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    o.check_digests(&digests);
    let times: Vec<PassTimes> = passes
        .iter()
        .map(|p| PassTimes {
            wall_s: p.wall_s,
            job_ms: p.seen.iter().map(|s| s.job_ms).collect(),
            cycles: p.calibrated.0,
            run_s: p.calibrated.1,
        })
        .collect();
    driven.report(&mut o.report, &times);
    let total_cycles: u64 = passes
        .iter()
        .take(1)
        .flat_map(|p| &p.seen)
        .map(|s| s.cycles)
        .sum();
    o.report.put("sim.cycles", total_cycles as f64, "cycles");
    if trace {
        layer_report(&mut o, &passes);
    }
    o
}

/// The `serve.*` metrics, from the client-side timestamps and server
/// summaries of the measured passes. No layer-timed pass exists to compare
/// with, so `bench.timer_overhead_frac` and `bench.unattributed_frac` are
/// reported as 0 (not applicable).
fn layer_report(o: &mut Outcome, passes: &[Pass]) {
    let n = passes.len() as f64;
    let seen = || passes.iter().flat_map(|p| p.seen.iter());
    let r = &mut o.report;
    r.put(
        "serve.ack_ms",
        util::median(&seen().map(|s| s.ack_ms).collect::<Vec<_>>()),
        "ms",
    );
    r.put(
        "serve.queue_ms",
        util::median(&seen().map(|s| s.queue_ms).collect::<Vec<_>>()),
        "ms",
    );
    r.put(
        "serve.beat_gap_ms",
        util::median(
            &seen()
                .flat_map(|s| s.beat_gaps_ms.clone())
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let (hits, misses) = passes
        .iter()
        .fold((0, 0), |a, p| (a.0 + p.hits, a.1 + p.misses));
    r.put(
        "serve.cache_hit_ratio",
        util::ratio(hits as f64, (hits + misses) as f64),
        "frac",
    );
    r.put(
        "serve.preemptions",
        passes.iter().map(|p| p.preempted).sum::<u64>() as f64 / n,
        "count",
    );
    r.put(
        "serve.resumed_legs",
        passes.iter().map(|p| p.resumed).sum::<u64>() as f64 / n,
        "count",
    );
}
