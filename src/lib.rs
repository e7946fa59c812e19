//! # ParallelXL
//!
//! A Rust reproduction of **"An Architectural Framework for Accelerating
//! Dynamic Parallel Algorithms on Reconfigurable Hardware"** (MICRO 2018):
//! an accelerator framework built on a task-based computation model with
//! *explicit continuation passing*, hardware work stealing, and a
//! design-methodology layer that elaborates accelerators from high-level
//! worker descriptions.
//!
//! The original system targets FPGAs through HLS + a PyMTL RTL template;
//! this reproduction implements every layer as a cycle-level simulator so
//! the paper's full evaluation (Tables I-V, Figures 6-9) can be regenerated
//! on a laptop. See `DESIGN.md` for the substitution map and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`sim`] | `pxl-sim` | discrete-event kernel: time, clocks, RNG/LFSR, metrics, tracing |
//! | [`mem`] | `pxl-mem` | functional memory + MOESI-coherent cache/DRAM timing |
//! | [`model`] | `pxl-model` | tasks, continuations, workers, parallel patterns |
//! | [`arch`] | `pxl-arch` | FlexArch/LiteArch accelerator engines + [`Engine`] trait |
//! | [`cpu`] | `pxl-cpu` | Cilk-style software-runtime CPU baseline |
//! | [`apps`] | `pxl-apps` | the ten Table II benchmarks (see [`benchmarks`]) |
//! | [`cost`] | `pxl-cost` | FPGA resource + energy models |
//! | [`flow`] | `pxl-flow` | design methodology: builders + design-space sweeps |
//! | [`dse`] | `pxl-dse` | parallel design-space exploration: result cache, strategies, Pareto fronts |
//! | [`profile`] | `pxl-profile` | trace-driven profiling: task DAG + critical path, latency, bottlenecks, Perfetto export |
//! | [`serve`] | `pxl-serve` | simulation-as-a-service: TCP job server over the [`RunSpec`] API with fair-share tenancy and result dedup |
//!
//! The most commonly used types from each layer are re-exported at the
//! crate root, so a typical program needs only `use parallelxl::...`.
//!
//! ## Quick start
//!
//! Express an algorithm as a [`Worker`] (the analogue of the paper's C++
//! worker description), build an engine with [`SimulationBuilder`], and run
//! it through the unified [`Engine`] trait:
//!
//! ```
//! use parallelxl::{
//!     AccelConfig, Continuation, ExecProfile, SimulationBuilder, Task, TaskContext,
//!     TaskTypeId, Worker, Workload,
//! };
//!
//! const FIB: TaskTypeId = TaskTypeId(0);
//! const SUM: TaskTypeId = TaskTypeId(1);
//!
//! struct FibWorker;
//! impl Worker for FibWorker {
//!     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
//!         let k = task.k;
//!         if task.ty == FIB {
//!             let n = task.args[0];
//!             ctx.compute(2);
//!             if n < 2 {
//!                 ctx.send_arg(k, n);
//!             } else {
//!                 // Fork-join via an explicit successor (the paper's Fig. 1b).
//!                 let kk = ctx.make_successor(SUM, k, 2);
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
//!             }
//!         } else {
//!             ctx.send_arg(k, task.args[0] + task.args[1]);
//!         }
//!     }
//! }
//!
//! let mut engine = SimulationBuilder::from_config(AccelConfig::flex(2, 4), ExecProfile::scalar())
//!     .build()
//!     .unwrap();
//! let root = Task::new(FIB, Continuation::host(0), &[15]);
//! let out = engine.run(Workload::dynamic(&mut FibWorker, root)).unwrap();
//! assert_eq!(out.result, 610);
//! println!(
//!     "fib(15) in {} with {} steals",
//!     out.elapsed,
//!     out.metrics.get("accel.steal_hits")
//! );
//! ```

/// The ten Table II benchmark algorithms.
pub use pxl_apps as apps;
/// The FlexArch / LiteArch accelerator engines (Section III).
pub use pxl_arch as arch;
/// FPGA resource and energy models (Table V, Fig. 8).
pub use pxl_cost as cost;
/// The Cilk-style multicore software baseline.
pub use pxl_cpu as cpu;
/// Parallel design-space exploration: search spaces, result cache, Pareto
/// fronts.
pub use pxl_dse as dse;
/// Design methodology: accelerator builder and design-space sweeps
/// (Section IV).
pub use pxl_flow as flow;
/// The coherent memory hierarchy and Zedboard memory path.
pub use pxl_mem as mem;
/// The computation model: tasks with explicit continuation passing
/// (Section II).
pub use pxl_model as model;
/// Post-run analysis: task-graph reconstruction, critical path, latency
/// percentiles, bottleneck attribution, Perfetto export.
pub use pxl_profile as profile;
/// Simulation-as-a-service: the job server, typed client, wire protocol
/// and fair-share scheduler over the serializable [`RunSpec`] API.
pub use pxl_serve as serve;
/// Simulation kernel: time, clocks, deterministic RNG, metrics, tracing.
pub use pxl_sim as sim;

// ---------------------------------------------------------------------------
// Flat re-exports: the working set for a typical program.
// ---------------------------------------------------------------------------

/// The unified engine API and the accelerator engines: the shared
/// execution fabric instantiated by a scheduling policy (FlexArch,
/// LiteArch, and the centralized-queue ablation).
pub use pxl_arch::{
    AccelConfig, AccelError, AccelResult, ArchKind, CentralEngine, CentralPolicy, ClusterConfig,
    Engine, EngineKind, FabricEngine, FlexEngine, FlexPolicy, HierEngine, HierPolicy, LinkTopology,
    LiteDriver, LiteEngine, MemBackendKind, PStoreError, SchedulingPolicy, StaticRoundPolicy,
    StealMode, Workload,
};
/// The software baseline engine and its runtime cost knobs.
pub use pxl_cpu::{CpuEngine, CpuResult, SoftwareCosts};
/// Design-space exploration: declare a space, explore it in parallel,
/// read the Pareto front.
pub use pxl_dse::{
    Axis, ClusterPoint, DesignPoint, Explorer, ParetoFront, PointArch, ResultCache, SearchSpace,
    Strategy,
};
/// Design-flow entry points and structured errors, and the canonical
/// serializable run API: a [`RunSpec`] names a run exactly (JSON
/// round-trip, canonical string), [`execute`]/[`measure`] perform it.
/// A [`SimSession`] is the pausable form: advance to a checkpoint
/// boundary, [`Snapshot`] the engine, resume in another process.
pub use pxl_flow::{
    execute, measure, AcceleratorBuilder, AcceleratorDesign, CheckpointPolicy, FlowError, RunError,
    RunOutcome, RunSpec, SessionStatus, SimSession, SimulationBuilder, SpecError,
};
/// Functional memory, shared by every engine.
pub use pxl_mem::Memory;
/// The computation model's working set.
pub use pxl_model::{
    Continuation, ExecProfile, SerialExecutor, Task, TaskContext, TaskTypeId, Worker,
};
/// Trace-driven performance analysis of a finished run.
pub use pxl_profile::Profile;
/// Simulation-as-a-service working set: start a [`Server`], connect a
/// [`Client`], submit [`RunSpec`]s as jobs, stream [`JobEvent`]s.
pub use pxl_serve::{Client, JobEvent, JobId, JobKind, JobStatus, Server, ServerConfig};
/// Deterministic JSON for exports and the wire protocols.
pub use pxl_sim::json::JsonValue;
/// Versioned, checksummed snapshot envelopes for checkpoint/restore, and
/// the symmetric [`Persist`] codec that engines (and custom scheduling
/// policies) capture and restore their state through.
pub use pxl_sim::{Codec, Persist, Snapshot, SnapshotError, SNAPSHOT_VERSION};
/// Deterministic fault injection: seeded plans armed via
/// [`SimulationBuilder::with_faults`] or [`AccelConfig::fault_plan`].
pub use pxl_sim::{FaultKind, FaultPlan, FaultSpec, NetClass};
/// Typed metrics, bounded event tracing, and simulated time.
pub use pxl_sim::{Histogram, MetricKind, Metrics, Time, TraceEvent, TraceRecord, Tracer};

/// The ten Table II benchmarks, re-exported by name.
///
/// Each benchmark is constructed with `new(scale)` and implements
/// [`apps::Benchmark`]: it prepares inputs in functional [`Memory`],
/// provides the dynamic (FlexArch/CPU) and, where it exists, the static
/// LiteArch formulation, and checks outputs against a golden reference.
///
/// ```
/// use parallelxl::benchmarks::{Queens, Scale};
/// use parallelxl::apps::Benchmark;
///
/// let queens = Queens::new(Scale::Tiny);
/// assert_eq!(queens.meta().name, "queens");
/// ```
pub mod benchmarks {
    pub use pxl_apps::bbgemm::Bbgemm;
    pub use pxl_apps::bfsqueue::BfsQueue;
    pub use pxl_apps::cilksort::Cilksort;
    pub use pxl_apps::knapsack::Knapsack;
    pub use pxl_apps::nw::Nw;
    pub use pxl_apps::queens::Queens;
    pub use pxl_apps::quicksort::Quicksort;
    pub use pxl_apps::spmvcrs::SpmvCrs;
    pub use pxl_apps::stencil2d::Stencil2d;
    pub use pxl_apps::uts::Uts;
    pub use pxl_apps::{by_name, suite, Benchmark, Scale};
}
