//! `traced-resume`: the "where did the time go" and crash-recovery flow at
//! `Scale::Small`, with event tracing and telemetry on.
//!
//! Each point (one benchmark on one engine) pauses at several boundaries
//! and makes a full `snapshot → to_json → from_json → SimSession::resume`
//! round trip at each; the finished run must equal an uninterrupted one
//! byte for byte. Its trace and timeline are then rendered, parsed,
//! analysed with `Profile::analyze`, exported to Perfetto and rendered as
//! a markdown report.

use std::time::Instant;

use pxl_apps::Scale;
use pxl_bench::ALL_BENCHES;
use pxl_dse::{DesignPoint, PointArch};
use pxl_flow::{RunSpec, SessionStatus, SimSession};
use pxl_profile::{parse_jsonl, to_perfetto_json_with_timeline, Layout, Profile};
use pxl_sim::{fnv64, Snapshot, Time, XorShift64};

use crate::layers::Spans;
use crate::measure::{drive, PassTimes};
use crate::util::{self, cycles, fold_digests, SimStats};
use crate::Outcome;

/// Trace buffer that no Small run fills (a dropped event would make the
/// profile incomplete).
const TRACE_CAPACITY: usize = 1 << 20;
/// Telemetry window in engine cycles.
const TELEMETRY_EVERY: u64 = 2_000;
/// Checkpoint round trips per point.
const PAUSES: usize = 3;
/// Largest seeded shift of each pause but the last, as a fraction of the
/// run. The last pause takes the negated sum of the others' shifts, so the
/// pauses' mean position — and with it the amount of trace the snapshots
/// carry — is the same in every pass and for every seed, and the three
/// stay at least 0.07 of the run apart.
const JITTER: f64 = 0.06;
/// The engine each benchmark runs on, in `ALL_BENCHES` order: every engine
/// family's snapshot codec is exercised, and cilksort (no LiteArch
/// mapping) runs on the CPU.
const ENGINES: [PointArch; 10] = [
    PointArch::Flex,
    PointArch::Central,
    PointArch::Cpu,
    PointArch::Lite,
    PointArch::Flex,
    PointArch::Central,
    PointArch::Cpu,
    PointArch::Lite,
    PointArch::Flex,
    PointArch::Central,
];

fn point(arch: PointArch) -> DesignPoint {
    match arch {
        PointArch::Cpu => DesignPoint::cpu(4),
        arch => DesignPoint::accel(arch, 2, 4),
    }
}

fn layout(arch: PointArch) -> Layout {
    match arch {
        PointArch::Cpu => Layout::new(4, 4),
        _ => Layout::new(8, 4),
    }
}

/// One point of a pass with its uninterrupted reference.
struct Point {
    spec: RunSpec,
    arch: PointArch,
    /// Pause boundaries (simulated time), ascending, inside the run.
    pauses: Vec<Time>,
    reference_jsonl: String,
    reference_trace: u64,
    reference_timeline: u64,
    cycles: u64,
    stats: SimStats,
}

/// One pass's plan, drawn afresh for every pass from the run's seeded
/// generator: the order of the points and where each run pauses — boundary `i`
/// of [`PAUSES`] falls at `(i + 1) / (PAUSES + 1)` of the run, shifted by
/// up to ±[`JITTER`] with the shifts summing to 0. The point set itself is
/// fixed, so a pass's work stays comparable across seeds and passes.
fn plan(rng: &mut XorShift64) -> Vec<(String, PointArch, Vec<f64>)> {
    let mut points: Vec<_> = ALL_BENCHES
        .iter()
        .zip(ENGINES)
        .map(|(name, arch)| {
            let mut shifts: Vec<f64> = (1..PAUSES)
                .map(|_| JITTER * (2.0 * rng.next_f64() - 1.0))
                .collect();
            shifts.push(-shifts.iter().sum::<f64>());
            let fractions = (1..=PAUSES)
                .zip(shifts)
                .map(|(i, shift)| i as f64 / (PAUSES + 1) as f64 + shift)
                .collect();
            ((*name).to_owned(), arch, fractions)
        })
        .collect();
    util::shuffle(&mut points, rng);
    points
}

/// One set-up iteration: the uninterrupted, traced reference run of every
/// point (the byte-identity target of the resumed runs).
fn setup(o: &mut Outcome, plan: &[(String, PointArch, Vec<f64>)]) -> Vec<Point> {
    let mut out = Vec::new();
    for (name, arch, fractions) in plan {
        let spec = RunSpec::new(name.clone(), Scale::Small, point(*arch))
            .with_trace(TRACE_CAPACITY)
            .with_telemetry(TELEMETRY_EVERY);
        o.attempted += 1;
        let reference = SimSession::start(&spec).and_then(|s| {
            let mut s = s.ok_or_else(|| {
                pxl_flow::RunError::Sim(format!("{name} has no {} mapping", arch.label()))
            })?;
            let period = s.clock().period().as_ps();
            s.finish().map(|r| (r, period))
        });
        match reference {
            Err(e) => o.fail(format!("setup {name}/{}: {e}", arch.label())),
            Ok((r, period)) => {
                let kernel = r.kernel.as_ps();
                let cycles = cycles(kernel, period);
                out.push(Point {
                    pauses: fractions
                        .iter()
                        .map(|f| Time::from_ps((kernel as f64 * f) as u64))
                        .collect(),
                    reference_jsonl: r.to_jsonl(),
                    reference_trace: fnv64(r.trace.to_jsonl().as_bytes()),
                    reference_timeline: fnv64(r.timeline.to_jsonl().as_bytes()),
                    stats: SimStats::of(cycles, &r.metrics),
                    cycles,
                    spec,
                    arch: *arch,
                });
            }
        }
    }
    out
}

/// Per-pass measurements.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    point_ms: Vec<f64>,
    roundtrip_ms: Vec<f64>,
    snapshot_kb: Vec<f64>,
    advance_ns: u64,
    cycles: u64,
    trace_events: u64,
    digest: u64,
    spans: Spans,
}

/// `SimSession::advance`, timed always: its total is the host run time
/// `sim_cycles_per_s` divides by.
fn advance(
    s: &mut SimSession,
    at: Option<Time>,
    spans: &mut Spans,
    total_ns: &mut u64,
    run: u32,
) -> Result<SessionStatus, String> {
    let t = Instant::now();
    let status = s.advance(at);
    let ns = t.elapsed().as_nanos() as u64;
    *total_ns += ns;
    spans.push("flow.advance_s", run, ns);
    status.map_err(|e| e.to_string())
}

fn run_point(o: &mut Outcome, p: &Point, run: u32, pass: &mut Pass) -> Result<u64, String> {
    let spans = &mut pass.spans;
    let adv = &mut pass.advance_ns;
    let spec = &p.spec;
    let mut session = spans
        .time("flow.build_s", run, || SimSession::start(spec))
        .map_err(|e| e.to_string())?
        .ok_or("no LiteArch mapping")?;
    for &at in &p.pauses {
        if let SessionStatus::Finished(_) = advance(&mut session, Some(at), spans, adv, run)? {
            return Err(format!("finished before the pause at {} ps", at.as_ps()));
        }
        let t = Instant::now();
        let snap = spans.time("sim.snapshot_capture_ms", run, || session.snapshot());
        let json = spans.time("sim.snapshot_encode_ms", run, || snap.to_json());
        let decoded = spans
            .time("sim.snapshot_decode_ms", run, || Snapshot::from_json(&json))
            .map_err(|e| e.to_string())?;
        let resumed = spans
            .time("flow.resume_ms", run, || SimSession::resume(spec, &decoded))
            .map_err(|e| e.to_string())?
            .ok_or("no LiteArch mapping")?;
        let old = std::mem::replace(&mut session, resumed);
        spans.time("flow.resume_ms", run, || drop((old, snap, decoded)));
        pass.roundtrip_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.snapshot_kb.push(json.len() as f64 / 1024.0);
    }
    let out = match advance(&mut session, None, spans, adv, run)? {
        SessionStatus::Finished(out) => *out,
        SessionStatus::Paused { .. } => return Err("paused without a boundary".into()),
    };
    let trace = spans.time("sim.trace_render_ms", run, || out.trace.to_jsonl());
    let timeline = spans.time("sim.timeline_render_ms", run, || out.timeline.to_jsonl());
    let (jsonl, identical) = spans.time("bench.verify", run, || {
        let jsonl = out.to_jsonl();
        let identical = jsonl == p.reference_jsonl
            && fnv64(trace.as_bytes()) == p.reference_trace
            && fnv64(timeline.as_bytes()) == p.reference_timeline;
        (jsonl, identical)
    });
    if !identical {
        o.fail(format!(
            "{}: resumed run differs from the uninterrupted run",
            spec.canonical()
        ));
    }
    let records = spans
        .time("profile.parse_ms", run, || parse_jsonl(&trace))
        .map_err(|e| format!("trace does not parse: {e}"))?;
    let layout = layout(p.arch);
    let profile = spans.time("profile.analyze_ms", run, || {
        Profile::analyze(&records, &out.metrics, &layout, out.kernel)
    });
    for v in profile.check_invariants() {
        o.fail(format!("{}: profile invariant: {v}", spec.canonical()));
    }
    let label = format!("{}/{}", spec.benchmark, p.arch.label());
    let perfetto = spans.time("profile.perfetto_ms", run, || {
        to_perfetto_json_with_timeline(&records, &layout, &label, &out.timeline)
    });
    let report = spans.time("profile.report_ms", run, || {
        profile.render_markdown(&spec.benchmark, p.arch.label())
    });
    if records.len() != out.trace.len() || perfetto.is_empty() || report.is_empty() {
        o.fail(format!("{label}: profile artifacts are incomplete"));
    }
    pass.cycles += p.cycles;
    pass.trace_events += records.len() as u64;
    spans.time("bench.verify", run, || {
        drop((out, records, profile, perfetto, report))
    });
    Ok(fold_digests([
        fnv64(jsonl.as_bytes()),
        fnv64(trace.as_bytes()),
        fnv64(timeline.as_bytes()),
    ]))
}

/// Runs every point once; run ids start at `first_run`.
fn run_pass(o: &mut Outcome, points: &[Point], timed: bool, first_run: u32) -> Pass {
    let mut pass = Pass {
        spans: Spans::new(timed),
        ..Pass::default()
    };
    let start = Instant::now();
    let mut digests = Vec::new();
    for (i, p) in points.iter().enumerate() {
        o.attempted += 1;
        let t = Instant::now();
        match run_point(o, p, first_run + i as u32, &mut pass) {
            Ok(d) => digests.push((p.spec.canonical(), d)),
            Err(e) => o.fail(format!("{}: {e}", p.spec.canonical())),
        }
        pass.point_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    // Points are reordered every pass, so the digest is taken in spec
    // order.
    digests.sort_unstable();
    pass.digest = fold_digests(digests.into_iter().map(|(_, d)| d));
    pass
}

struct State {
    o: Outcome,
    rng: XorShift64,
    untimed: Vec<Pass>,
    timed: Vec<Pass>,
    stats: SimStats,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut st = State {
        o: Outcome::default(),
        rng: XorShift64::new(fnv64(&seed.to_le_bytes())),
        untimed: Vec::new(),
        timed: Vec::new(),
        stats: SimStats::default(),
    };
    let driven = drive(
        seconds,
        &mut st,
        |st| {
            let plan = plan(&mut st.rng);
            setup(&mut st.o, &plan)
        },
        |st, points| {
            let p = run_pass(&mut st.o, &points, false, 0);
            st.untimed.push(p);
            if trace {
                let first_run = (st.timed.len() * points.len()) as u32;
                let mut p = run_pass(&mut st.o, &points, true, first_run);
                st.o.spans.extend(std::mem::take(&mut p.spans));
                st.timed.push(p);
            }
            st.stats = SimStats::default();
            for p in &points {
                st.stats.add(&p.stats);
            }
        },
    );
    let State {
        mut o,
        untimed,
        timed,
        stats,
        ..
    } = st;
    let digests: Vec<u64> = untimed.iter().chain(&timed).map(|p| p.digest).collect();
    o.check_digests(&digests);
    let passes: Vec<PassTimes> = untimed
        .iter()
        .map(|p| PassTimes {
            wall_s: p.wall_s,
            job_ms: p.point_ms.clone(),
            cycles: p.cycles,
            run_s: p.advance_ns as f64 / 1e9,
        })
        .collect();
    driven.report(&mut o.report, &passes);
    let roundtrips: Vec<f64> = untimed
        .iter()
        .flat_map(|p| p.roundtrip_ms.clone())
        .collect();
    o.put_latencies("ckpt_roundtrip", &roundtrips);
    stats.report(&mut o.report);
    if trace {
        layer_report(&mut o, &untimed, &timed);
    }
    o
}

fn layer_report(o: &mut Outcome, untimed: &[Pass], timed: &[Pass]) {
    let n = timed.len() as f64;
    let point_ns: f64 = timed.iter().flat_map(|p| &p.point_ms).sum::<f64>() * 1e6;
    let covered = o.spans.covered_ns();
    let totals = o.spans.totals();
    let r = &mut o.report;
    let total = |layer: &str| totals.get(layer).copied().unwrap_or(0) as f64 / n;
    r.put("flow.build_s", total("flow.build_s") / 1e9, "s");
    r.put("flow.advance_s", total("flow.advance_s") / 1e9, "s");
    // Per-round-trip means, in ms.
    let trips = timed.iter().map(|p| p.roundtrip_ms.len()).sum::<usize>() as f64 / n;
    for layer in [
        "sim.snapshot_capture_ms",
        "sim.snapshot_encode_ms",
        "sim.snapshot_decode_ms",
        "flow.resume_ms",
    ] {
        r.put(layer, util::ratio(total(layer) / 1e6, trips), "ms");
    }
    let kb: Vec<f64> = timed.iter().flat_map(|p| p.snapshot_kb.clone()).collect();
    r.put("sim.snapshot_kb", util::median(&kb), "KiB");
    let roundtrips: Vec<f64> = timed.iter().flat_map(|p| p.roundtrip_ms.clone()).collect();
    o.put_latencies("ckpt_roundtrip", &roundtrips);
    let r = &mut o.report;
    r.put(
        "sim.trace_events",
        timed.iter().map(|p| p.trace_events).sum::<u64>() as f64 / n,
        "count",
    );
    // Per-pass totals of the rendering and analysis calls, in ms.
    for layer in [
        "sim.trace_render_ms",
        "sim.timeline_render_ms",
        "profile.parse_ms",
        "profile.analyze_ms",
        "profile.perfetto_ms",
        "profile.report_ms",
    ] {
        r.put(layer, total(layer) / 1e6, "ms");
    }
    let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).collect::<Vec<_>>();
    o.check_layer_timing(&walls(untimed), &walls(timed), covered as f64, point_ns);
}
