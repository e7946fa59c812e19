//! `paper-eval`: every simulation `--bin all` runs at `Scale::Paper` — the
//! Fig. 6 Zedboard runs, the Table IV / Fig. 7 / Fig. 8 scaling sweep and
//! the Fig. 9 cache sweep — as the same three batches on the shared pool,
//! one after the other.
//!
//! Each job is decomposed into its layer calls (benchmark lookup and input
//! setup, engine construction, `Engine::run`, golden check, teardown), the
//! same calls `pxl_bench::run_*` makes, so the layer-timed pass can wrap
//! the worker, task context and LiteArch driver it hands to the engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pxl_apps::{Benchmark, Scale};
use pxl_arch::{AccelConfig, AccelResult, Engine, EngineKind, MemBackendKind, Workload};
use pxl_bench::experiments::{CPU_SWEEP, PE_SWEEP};
use pxl_bench::{geometry, ALL_BENCHES, ZEDBOARD_BENCHES};
use pxl_flow::SimulationBuilder;
use pxl_mem::zedboard::{zedboard_cpu_core, zedboard_cpu_memory};
use pxl_sim::Clock;

use crate::layers::{RunCounters, Spans, TimedDriver, TimedWorker};
use crate::measure::{drive, PassTimes};
use crate::util::{self, cycles, fold_digests, outcome_digest, SimStats};
use crate::Outcome;

/// Fig. 9's tile-cache sizes in KB.
const FIG9_KB: [usize; 4] = [4, 8, 16, 32];

/// One simulation of the evaluation, as `pxl_bench` configures it.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// The Zedboard's two-core Cortex-A9 (`run_cpu_zedboard`).
    ZedCpu,
    /// The Zedboard prototype accelerator (`run_flex_zedboard`).
    ZedFlex(usize),
    Cpu(usize),
    /// FlexArch with PEs and an optional tile-cache size in bytes.
    Flex(usize, Option<usize>),
    Lite(usize),
}

impl Job {
    fn label(self) -> &'static str {
        match self {
            Job::ZedCpu => "zedcpu",
            Job::ZedFlex(_) => "zedflex",
            Job::Cpu(_) => "cpu",
            Job::Flex(..) => "flex",
            Job::Lite(_) => "lite",
        }
    }

    fn is_cpu(self) -> bool {
        matches!(self, Job::ZedCpu | Job::Cpu(_))
    }

    /// The engine `pxl_bench` builds for this job.
    fn engine(self, bench: &dyn Benchmark) -> Result<Box<dyn Engine>, String> {
        let accel = |mut cfg: AccelConfig, cache: Option<usize>| {
            if let Some(bytes) = cache {
                cfg.memory.accel_l1 = cfg.memory.accel_l1.clone().with_size(bytes);
            }
            SimulationBuilder::from_config(cfg, bench.profile()).build()
        };
        let built = match self {
            Job::ZedCpu => {
                let big = bench.profile();
                let a9 = pxl_model::ExecProfile::new(
                    big.accel_ops_per_cycle,
                    big.cpu_ops_per_cycle * 0.6,
                );
                let costs = pxl_cpu::SoftwareCosts {
                    runtime_ipc: 1.2,
                    steal_attempt_instrs: 400,
                    ..pxl_cpu::SoftwareCosts::default()
                };
                SimulationBuilder::cpu_with(
                    2,
                    a9,
                    zedboard_cpu_core(),
                    zedboard_cpu_memory(),
                    costs,
                )
                .build()
            }
            Job::ZedFlex(pes) => {
                let (tiles, per_tile) = geometry(pes);
                let mut cfg = AccelConfig::flex(tiles, per_tile);
                cfg.mem_backend = MemBackendKind::Zedboard;
                cfg.clock = Clock::new("zed_accel", 8_000);
                accel(cfg, None)
            }
            Job::Cpu(cores) => SimulationBuilder::cpu(cores, bench.profile()).build(),
            Job::Flex(pes, cache) => {
                let (tiles, per_tile) = geometry(pes);
                accel(AccelConfig::flex(tiles, per_tile), cache)
            }
            Job::Lite(pes) => {
                let (tiles, per_tile) = geometry(pes);
                accel(AccelConfig::lite(tiles, per_tile), None)
            }
        };
        built.map_err(|e| e.to_string())
    }

    /// The same run through the `pxl_bench` helper `--bin all` calls.
    fn via_pxl_bench(self, bench: &dyn Benchmark) -> Option<pxl_bench::RunOutcome> {
        match self {
            Job::ZedCpu => Some(pxl_bench::run_cpu_zedboard(bench)),
            Job::ZedFlex(pes) => Some(pxl_bench::run_flex_zedboard(bench, pes)),
            Job::Cpu(cores) => Some(pxl_bench::run_cpu(bench, cores)),
            Job::Flex(pes, cache) => Some(pxl_bench::run_flex(bench, pes, cache)),
            Job::Lite(pes) => pxl_bench::run_lite(bench, pes, None),
        }
    }
}

/// Every simulation of `--bin all`, in the batches it runs them in, in
/// order: Fig. 6 (`experiments::fig6`), the scaling sweep
/// (`experiments::run_scaling`), Fig. 9 (`experiments::fig9`).
fn batches() -> [Vec<(&'static str, Job)>; 3] {
    let mut fig6 = Vec::new();
    for name in ZEDBOARD_BENCHES {
        fig6.extend([
            (name, Job::ZedCpu),
            (name, Job::ZedFlex(4)),
            (name, Job::ZedFlex(8)),
        ]);
    }
    let mut scaling = Vec::new();
    for name in ALL_BENCHES {
        scaling.extend(CPU_SWEEP.iter().map(|&c| (name, Job::Cpu(c))));
        for p in PE_SWEEP {
            scaling.extend([(name, Job::Flex(p, None)), (name, Job::Lite(p))]);
        }
    }
    let mut fig9 = Vec::new();
    for name in ALL_BENCHES {
        fig9.extend(
            FIG9_KB
                .iter()
                .map(|&kb| (name, Job::Flex(16, Some(kb * 1024)))),
        );
    }
    [fig6, scaling, fig9]
}

/// Every simulation of `--bin all`, in its order.
fn jobs() -> Vec<(&'static str, Job)> {
    batches().into_iter().flatten().collect()
}

/// What one job produced.
#[derive(Debug, Default)]
struct JobOut {
    /// LiteArch job of a benchmark without a LiteArch mapping (as
    /// `run_lite` returns `None`): not attempted.
    skipped: bool,
    error: Option<String>,
    digest: u64,
    stats: SimStats,
    /// `Engine::run` host time.
    run_ns: u64,
    /// The whole job, lookup to teardown.
    job_ns: u64,
    counters: RunCounters,
    spans: Spans,
}

fn run_job(run: u32, name: &str, job: Job, scale: Scale, timed: bool) -> JobOut {
    let start = Instant::now();
    let mut out = JobOut {
        spans: Spans::new(timed),
        ..JobOut::default()
    };
    let spans = &mut out.spans;
    let Some(bench) = spans.time("apps.setup_s", run, || pxl_apps::by_name(name, scale)) else {
        out.error = Some(format!("unknown benchmark {name}"));
        return out;
    };
    let mut engine = match spans.time("flow.build_s", run, || job.engine(bench.as_ref())) {
        Ok(e) => e,
        Err(e) => {
            out.error = Some(format!("{name}/{}: {e}", job.label()));
            return out;
        }
    };
    let mut counters = RunCounters::default();
    let ran: Result<AccelResult, String>;
    if engine.kind() == EngineKind::Lite {
        let inst = spans.time("apps.setup_s", run, || bench.lite(engine.mem_mut()));
        let Some(mut inst) = inst else {
            out.skipped = true;
            return out;
        };
        let run_start = Instant::now();
        ran = if timed {
            let mut worker = TimedWorker {
                inner: inst.worker.as_mut(),
                counters: RunCounters::default(),
            };
            let mut driver = TimedDriver {
                inner: inst.driver.as_mut(),
                ns: 0,
            };
            let r = engine.run(Workload::rounds(&mut worker, &mut driver));
            counters = worker.counters;
            counters.driver_ns = driver.ns;
            r
        } else {
            engine.run(Workload::rounds(inst.worker.as_mut(), inst.driver.as_mut()))
        }
        .map_err(|e| e.to_string());
        out.run_ns = run_start.elapsed().as_nanos() as u64;
        spans.time("flow.build_s", run, || drop(inst));
    } else {
        let mut inst = spans.time("apps.setup_s", run, || bench.flex(engine.mem_mut()));
        let run_start = Instant::now();
        ran = if timed {
            let mut worker = TimedWorker {
                inner: inst.worker.as_mut(),
                counters: RunCounters::default(),
            };
            let r = engine.run(Workload::dynamic(&mut worker, inst.root));
            counters = worker.counters;
            r
        } else {
            engine.run(Workload::dynamic(inst.worker.as_mut(), inst.root))
        }
        .map_err(|e| e.to_string());
        out.run_ns = run_start.elapsed().as_nanos() as u64;
        spans.time("flow.build_s", run, || drop(inst));
    }
    out.counters = counters;
    // `Engine::run` splits exactly into the engine loop's self time and
    // the worker's, memory, task-management and driver calls.
    let loop_layer = if job.is_cpu() {
        "cpu.loop_self_s"
    } else {
        "arch.loop_self_s"
    };
    let c = &out.counters;
    spans.push(
        loop_layer,
        run,
        out.run_ns.saturating_sub(c.exec_ns + c.driver_ns),
    );
    spans.push("model.worker_self_s", run, c.worker_self_ns());
    spans.push("mem.timed_s", run, c.mem_ns);
    spans.push("arch.taskmgmt_s", run, c.task_ns);
    spans.push("arch.lite_driver_s", run, c.driver_ns);
    match ran {
        Err(e) => out.error = Some(format!("{name}/{}: {e}", job.label())),
        Ok(res) => {
            let check = spans.time("apps.check_s", run, || {
                bench.check(engine.memory(), res.result)
            });
            if let Err(e) = check {
                out.error = Some(format!("{name}/{} wrong: {e}", job.label()));
            }
            let period = engine.clock().period().as_ps();
            out.stats = SimStats::of(cycles(res.elapsed.as_ps(), period), &res.metrics);
            out.digest = outcome_digest(
                job.label(),
                engine.units(),
                res.elapsed.as_ps(),
                &res.metrics,
            );
            spans.time("flow.build_s", run, || drop(res));
        }
    }
    spans.time("flow.build_s", run, || drop((engine, bench)));
    out.job_ns = start.elapsed().as_nanos() as u64;
    out
}

/// Runs `f`, turning a panic into a job error so one broken run cannot
/// take the batch down.
fn guarded(f: impl FnOnce() -> JobOut) -> JobOut {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| JobOut {
        error: Some(
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "job panicked".to_owned()),
        ),
        ..JobOut::default()
    })
}

struct Batch {
    wall_s: f64,
    jobs: Vec<JobOut>,
}

impl Batch {
    fn digest(&self) -> u64 {
        fold_digests(self.jobs.iter().filter(|j| !j.skipped).map(|j| j.digest))
    }

    fn ran(&self) -> impl Iterator<Item = &JobOut> {
        self.jobs.iter().filter(|j| !j.skipped)
    }
}

/// Runs the whole job list as `--bin all` does, each batch finishing
/// before the next starts; run ids start at `first_run`.
fn batch(scale: Scale, timed: bool, first_run: u32) -> Batch {
    let start = Instant::now();
    let mut jobs = Vec::new();
    for list in batches() {
        let first = first_run + jobs.len() as u32;
        let work: Vec<_> = list
            .into_iter()
            .enumerate()
            .map(|(i, (name, job))| {
                move || guarded(|| run_job(first + i as u32, name, job, scale, timed))
            })
            .collect();
        jobs.extend(pxl_sim::parallel_map(work));
    }
    Batch {
        wall_s: start.elapsed().as_secs_f64(),
        jobs,
    }
}

/// One set-up iteration: a `Scale::Tiny` pass over the whole job list
/// (warms the allocator and code paths) run twice — through the
/// decomposition and through the `pxl_bench::run_*` helpers `--bin all`
/// calls — with the two digests compared, so the decomposition is checked
/// to configure every engine exactly as the evaluation does.
fn setup(o: &mut Outcome) {
    let mine = batch(Scale::Tiny, false, 0);
    let reference: Vec<Option<u64>> = pxl_sim::parallel_map(
        jobs()
            .into_iter()
            .map(|(name, job)| {
                move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let b = pxl_bench::bench(name, Scale::Tiny);
                        job.via_pxl_bench(b.as_ref()).map(|r| {
                            outcome_digest(&r.engine, r.units, r.kernel.as_ps(), &r.metrics)
                        })
                    }))
                    .unwrap_or(Some(0))
                }
            })
            .collect(),
    );
    count_failures(o, &mine, "setup");
    for ((name, job), (j, r)) in jobs().iter().zip(mine.jobs.iter().zip(&reference)) {
        let agrees = match r {
            None => j.skipped,
            Some(d) => !j.skipped && j.digest == *d,
        };
        if !agrees {
            o.fail(format!(
                "setup: {name}/{} differs from pxl_bench's run at Tiny scale",
                job.label()
            ));
        }
    }
}

fn count_failures(o: &mut Outcome, b: &Batch, pass: &str) {
    for j in b.ran() {
        o.attempted += 1;
        if let Some(e) = &j.error {
            o.fail(format!("{pass}: {e}"));
        }
    }
}

struct State {
    o: Outcome,
    untimed: Vec<Batch>,
    timed: Vec<Batch>,
}

pub fn run(seconds: f64, trace: bool) -> Outcome {
    let mut st = State {
        o: Outcome::default(),
        untimed: Vec::new(),
        timed: Vec::new(),
    };
    let driven = drive(
        seconds,
        &mut st,
        |st| setup(&mut st.o),
        |st, ()| {
            let b = batch(Scale::Paper, false, 0);
            count_failures(&mut st.o, &b, "untimed");
            st.untimed.push(b);
            if trace {
                let first_run = (st.timed.len() * jobs().len()) as u32;
                let mut b = batch(Scale::Paper, true, first_run);
                count_failures(&mut st.o, &b, "layer-timed");
                for j in &mut b.jobs {
                    st.o.spans.extend(std::mem::take(&mut j.spans));
                }
                st.timed.push(b);
            }
        },
    );
    let State {
        mut o,
        untimed,
        timed,
    } = st;

    let digests: Vec<u64> = untimed.iter().chain(&timed).map(Batch::digest).collect();
    o.check_digests(&digests);

    let passes: Vec<PassTimes> = untimed
        .iter()
        .map(|b| PassTimes {
            wall_s: b.wall_s,
            job_ms: b.ran().map(|j| j.job_ns as f64 / 1e6).collect(),
            cycles: b.ran().map(|j| j.stats.cycles).sum(),
            run_s: b.ran().map(|j| j.run_ns as f64 / 1e9).sum(),
        })
        .collect();
    driven.report(&mut o.report, &passes);

    let mut stats = SimStats::default();
    for j in untimed.iter().take(1).flat_map(Batch::ran) {
        stats.add(&j.stats);
    }
    stats.report(&mut o.report);

    if trace {
        layer_report(&mut o, &untimed, &timed);
    }
    o
}

fn layer_report(o: &mut Outcome, untimed: &[Batch], timed: &[Batch]) {
    let n = timed.len() as f64;
    let mut c = RunCounters::default();
    let mut job_ns = 0;
    for j in timed.iter().flat_map(Batch::ran) {
        c.add(&j.counters);
        job_ns += j.job_ns;
    }
    let totals = o.spans.totals();
    let r = &mut o.report;
    for layer in [
        "model.worker_self_s",
        "mem.timed_s",
        "arch.loop_self_s",
        "cpu.loop_self_s",
        "arch.taskmgmt_s",
        "arch.lite_driver_s",
        "apps.setup_s",
        "apps.check_s",
        "flow.build_s",
    ] {
        let ns = totals.get(layer).copied().unwrap_or(0);
        r.put(layer, ns as f64 / 1e9 / n, "s");
    }
    r.put("mem.timed_calls", c.mem_calls as f64 / n, "count");
    r.put(
        "mem.ns_per_call",
        util::ratio(c.mem_ns as f64, c.mem_calls as f64),
        "ns",
    );
    r.put("arch.taskmgmt_calls", c.task_calls as f64 / n, "count");
    let walls = |bs: &[Batch]| bs.iter().map(|b| b.wall_s).collect::<Vec<_>>();
    let covered = o.spans.covered_ns() as f64;
    o.check_layer_timing(&walls(untimed), &walls(timed), covered, job_ns as f64);
}
