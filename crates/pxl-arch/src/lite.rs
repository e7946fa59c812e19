//! The LiteArch execution engine: static data-parallel distribution.
//!
//! A LiteArch tile (Fig. 3(c)) drops the P-Store, the argument/task router
//! and all work-stealing hardware: "This architecture supports the
//! data-parallel pattern with the host CPU splitting the range into smaller
//! subranges, and enqueuing the tasks for execution on the PEs"
//! (Section III-B). The interface block assigns tasks to PEs statically
//! (round-robin) over the argument/task network.
//!
//! Algorithms with dynamic task graphs are mapped to LiteArch the way the
//! paper describes (Section V-A): "use multiple rounds, with each round
//! processing one level of the task graph using a parallel-for, and at the
//! same time constructing the next level". The host-side logic that builds
//! each round is a [`LiteDriver`].

use pxl_mem::Memory;
use pxl_model::serial::HOST_SLOTS;
use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
use pxl_sim::snapshot::{Snapshot, SnapshotError};
use pxl_sim::{
    Codec, FaultKind, Metrics, Persist, TelemetrySampler, Time, Timeline, TraceEvent, Tracer,
};

use crate::config::{AccelConfig, ArchKind};
use crate::fabric::{
    record_injected, record_recovered, register_fault_metrics, timed_memory_path, AccelError,
    AccelResult, MemBackend, RunStatus, Watchdog,
};
use crate::policy::StaticRoundPolicy;

/// One round of statically distributed tasks.
pub type RoundTasks = Vec<Task>;

/// Host-side round constructor for LiteArch executions.
///
/// The engine calls [`LiteDriver::next_round`] repeatedly; each returned
/// batch is distributed round-robin over the PEs and run to completion
/// before the next round starts (a host-side barrier). Return `None` when
/// the computation is finished.
pub trait LiteDriver {
    /// Builds the tasks of round `round`, inspecting `mem` for results of
    /// previous rounds (e.g. the next BFS frontier). `None` ends the run.
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks>;
}

/// Blanket impl so simple closures can drive single- or multi-round runs.
impl<F> LiteDriver for F
where
    F: FnMut(&mut Memory, usize) -> Option<RoundTasks>,
{
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        self(mem, round)
    }
}

/// The LiteArch accelerator simulator.
///
/// Tasks may not spawn children or create successors — attempting either is
/// an [`AccelError::Unsupported`], enforcing Table I in the simulator the
/// way leaving out the P-Store enforces it in hardware. Arguments sent to a
/// host slot are *accumulated* (summed) into that slot, which is how
/// reductions (queens solution counts, knapsack best values) come back.
///
/// # Examples
///
/// ```
/// use pxl_arch::{AccelConfig, LiteEngine};
/// use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
///
/// const LEAF: TaskTypeId = TaskTypeId(0);
/// struct SumWorker;
/// impl Worker for SumWorker {
///     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
///         let (lo, hi) = (task.args[0], task.args[1]);
///         ctx.compute(hi - lo);
///         ctx.send_arg(task.k, (lo..hi).sum::<u64>());
///     }
/// }
///
/// let mut engine = LiteEngine::new(AccelConfig::lite(1, 4), ExecProfile::scalar());
/// let out = engine
///     .run(&mut SumWorker, &mut |_mem: &mut pxl_mem::Memory, round: usize| {
///         (round == 0).then(|| {
///             (0..4u64)
///                 .map(|i| Task::new(LEAF, Continuation::host(0), &[i * 25, (i + 1) * 25]))
///                 .collect()
///         })
///     })
///     .unwrap();
/// assert_eq!(out.result, (0..100).sum::<u64>());
/// ```
#[derive(Debug, Clone)]
pub struct LiteEngine {
    cfg: AccelConfig,
    profile: ExecProfile,
    mem: Memory,
    backend: MemBackend,
    host: [u64; HOST_SLOTS],
    host_written: [bool; HOST_SLOTS],
    metrics: Metrics,
    trace: Tracer,
    /// Simulated time at the last round barrier. A field (not a `run`
    /// local) so a paused or restored engine resumes exactly where it
    /// stopped.
    now: Time,
    /// The next round to request from the driver.
    round: usize,
    /// Next task instance id (sequential in dispatch order; 0 reserved).
    next_task_id: u64,
    watchdog: Watchdog,
    /// In-run telemetry sampler, ticked at round barriers; `None` when
    /// `telemetry_every_cycles` is zero.
    telemetry: Option<TelemetrySampler>,
}

impl LiteEngine {
    /// Creates an engine for `cfg` with the benchmark's execution profile.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AccelConfig::validate`] or is not
    /// a LiteArch configuration. Use [`LiteEngine::try_new`] to handle those
    /// cases as errors.
    pub fn new(cfg: AccelConfig, profile: ExecProfile) -> Self {
        Self::try_new(cfg, profile).expect("invalid accelerator configuration")
    }

    /// Fallible constructor: returns [`AccelError::InvalidConfig`] if the
    /// configuration fails [`AccelConfig::validate`] or is not a LiteArch
    /// configuration.
    pub fn try_new(cfg: AccelConfig, profile: ExecProfile) -> Result<Self, AccelError> {
        cfg.validate()
            .map_err(|e| AccelError::InvalidConfig(e.to_string()))?;
        if cfg.arch != ArchKind::Lite {
            return Err(AccelError::InvalidConfig(
                "LiteEngine requires ArchKind::Lite".to_string(),
            ));
        }
        let backend = MemBackend::for_config(&cfg);
        let mut metrics = Metrics::new();
        register_fault_metrics(&mut metrics);
        metrics.register_counter("trace.dropped");
        Ok(LiteEngine {
            profile,
            mem: Memory::new(),
            backend,
            host: [0; HOST_SLOTS],
            host_written: [false; HOST_SLOTS],
            metrics,
            trace: Tracer::bounded(cfg.trace_capacity),
            now: Time::ZERO,
            round: 0,
            next_task_id: 1,
            watchdog: Watchdog::new(cfg.clock.cycles_to_time(cfg.watchdog_quiescence_cycles)),
            telemetry: (cfg.telemetry_every_cycles > 0).then(|| {
                TelemetrySampler::new(cfg.clock.cycles_to_time(cfg.telemetry_every_cycles))
            }),
            cfg,
        })
    }

    /// Mutable access to functional memory for input setup.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Shared access to functional memory for output checking.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The engine's metrics registry (fully aggregated only after
    /// [`LiteEngine::run`] returns, which moves it into the result).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Runs rounds from `driver` until it returns `None`.
    ///
    /// The result is the accumulated value of host slot 0.
    ///
    /// # Errors
    ///
    /// [`AccelError::Unsupported`] if a task tries to spawn or create a
    /// successor, [`AccelError::TimedOut`] past the configured limit.
    pub fn run<W, D>(&mut self, worker: &mut W, driver: &mut D) -> Result<AccelResult, AccelError>
    where
        W: Worker + ?Sized,
        D: LiteDriver + ?Sized,
    {
        match self.run_until(worker, driver, None)? {
            RunStatus::Finished(result) => Ok(result),
            RunStatus::Paused { .. } => unreachable!("run_until without a pause never pauses"),
        }
    }

    /// The fault plan's static schedule (validated to hold only PE deaths
    /// and stalls on Lite): per-PE earliest death, sorted busy windows for
    /// transient stalls, and every death spec for end-of-run accounting.
    /// A pure function of the configuration, recomputed on each `run_until`
    /// leg so it never needs to be checkpointed.
    #[allow(clippy::type_complexity)]
    fn fault_windows(
        &self,
    ) -> (
        Vec<Option<(Time, usize)>>,
        Vec<Vec<(Time, Time, usize)>>,
        Vec<(usize, Time, usize)>,
    ) {
        let num_pes = self.cfg.num_pes();
        let mut deaths: Vec<Option<(Time, usize)>> = vec![None; num_pes];
        let mut stalls: Vec<Vec<(Time, Time, usize)>> = vec![Vec::new(); num_pes];
        let mut all_deaths: Vec<(usize, Time, usize)> = Vec::new();
        if let Some(plan) = &self.cfg.fault_plan {
            for (idx, spec) in plan.specs().iter().enumerate() {
                match spec.kind {
                    FaultKind::PeDeath { pe } => {
                        all_deaths.push((pe, spec.from, idx));
                        if deaths[pe].is_none_or(|(t, _)| spec.from < t) {
                            deaths[pe] = Some((spec.from, idx));
                        }
                    }
                    FaultKind::PeStall { pe, cycles } => {
                        let dur = self.cfg.clock.cycles_to_time(cycles);
                        stalls[pe].push((spec.from, spec.from + dur, idx));
                    }
                    _ => {}
                }
            }
            for windows in &mut stalls {
                windows.sort();
            }
        }
        (deaths, stalls, all_deaths)
    }

    /// Runs rounds until the driver returns `None` or, when `pause_at` is
    /// given, until the simulated clock passes that boundary at a round
    /// barrier. Rounds are atomic: the engine pauses *between* rounds, the
    /// natural checkpoint for a machine whose host synchronizes every round.
    /// Legs compose — keep calling with the same worker and an equivalent
    /// driver (LiteArch drivers must derive round `r` from `(mem, r)` alone)
    /// until [`RunStatus::Finished`].
    ///
    /// # Errors
    ///
    /// See [`LiteEngine::run`].
    pub fn run_until<W, D>(
        &mut self,
        worker: &mut W,
        driver: &mut D,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError>
    where
        W: Worker + ?Sized,
        D: LiteDriver + ?Sized,
    {
        let num_pes = self.cfg.num_pes();
        let limit = Time::from_us(self.cfg.max_sim_time_us);
        let (deaths, stalls, all_deaths) = self.fault_windows();
        let policy = StaticRoundPolicy::new(num_pes);
        loop {
            if let Some(pause) = pause_at {
                if self.now > pause {
                    return Ok(RunStatus::Paused { at: pause });
                }
            }
            let round = self.round;
            let Some(tasks) = driver.next_round(&mut self.mem, round) else {
                break;
            };
            self.metrics.incr("lite.rounds");
            self.metrics.add("lite.tasks", tasks.len() as u64);
            let mut now = self.now
                + self
                    .cfg
                    .clock
                    .cycles_to_time(self.cfg.costs.round_sync_cycles);
            // Static round-robin distribution by the interface block. The IF
            // dispatches tasks serially over the argument/task network, so
            // PE p's i-th task is available only after its dispatch slot.
            let dispatch = self
                .cfg
                .clock
                .cycles_to_time(self.cfg.costs.if_dispatch_cycles);
            let mut pe_time = vec![now; num_pes];
            for (i, task) in tasks.into_iter().enumerate() {
                let dispatched = now + Time::from_ps(dispatch.as_ps() * (i as u64 + 1));
                let Some(slot) = policy.place(i, dispatched, &pe_time, &deaths, &stalls) else {
                    // Every PE is dead: the IF can never dispatch this task
                    // (the IF, unit `num_pes`, holds the undispatchable work).
                    let (metrics, trace) = (&mut self.metrics, &mut self.trace);
                    return Err(self
                        .watchdog
                        .stall(metrics, trace, dispatched, Some(num_pes)));
                };
                if slot.reassigned {
                    self.metrics.incr("fault.rescued_tasks");
                }
                let task = task.with_id(self.next_task_id);
                self.next_task_id += 1;
                let end = self.execute_task(slot.start, slot.pe, task, worker)?;
                pe_time[slot.pe] = end;
                self.watchdog.progress(end, slot.pe);
                if end > limit {
                    return Err(AccelError::TimedOut);
                }
            }
            // Host-side barrier: the round ends when the slowest PE drains.
            now = pe_time.into_iter().max().unwrap_or(now);
            self.now = now;
            self.round += 1;
            // Sample at the round barrier: rounds are atomic and pauses only
            // land between them, so a resumed leg replays the same barrier
            // sequence and produces the identical timeline.
            if self.telemetry.as_ref().is_some_and(|t| t.due(now)) {
                let gauges = self.telemetry_gauges();
                let metrics = &self.metrics;
                if let Some(t) = self.telemetry.as_mut() {
                    t.tick(now, metrics, &gauges);
                }
            }
        }
        let now = self.now;
        // Close the final partial telemetry window before end-of-run fault
        // accounting and memory-stat rollups land in the registry, so the
        // last sample's deltas cover only in-run activity like every other.
        let gauges = self.telemetry_gauges();
        let timeline = match self.telemetry.as_mut() {
            Some(t) => {
                t.flush(now, &self.metrics, &gauges);
                t.take_timeline()
            }
            None => Timeline::default(),
        };
        // Account the plan's faults against the finished run: everything
        // that fired inside the simulated interval was absorbed by static
        // reassignment (deaths) or waiting out the window (stalls).
        for &(pe, at, idx) in &all_deaths {
            let effective = deaths[pe] == Some((at, idx)) && at <= now;
            if effective {
                self.metrics.incr("fault.pe_deaths");
                record_injected(&mut self.metrics, &mut self.trace, at, idx, pe);
                record_recovered(&mut self.metrics, &mut self.trace, now.max(at), idx, pe);
            } else {
                self.metrics.incr("fault.skipped");
            }
        }
        for (pe, windows) in stalls.iter().enumerate() {
            for &(s, e, idx) in windows {
                if s <= now {
                    self.metrics.incr("fault.pe_stalls");
                    record_injected(&mut self.metrics, &mut self.trace, s, idx, pe);
                    record_recovered(&mut self.metrics, &mut self.trace, e, idx, pe);
                } else {
                    self.metrics.incr("fault.skipped");
                }
            }
        }
        let mem_stats = self.backend.take_stats();
        self.metrics.merge(&mem_stats);
        let mut trace = std::mem::take(&mut self.trace);
        trace.absorb(self.backend.take_trace());
        trace.finish();
        self.metrics.add("trace.dropped", trace.dropped());
        Ok(RunStatus::Finished(AccelResult {
            result: self.host[0],
            elapsed: now,
            metrics: std::mem::take(&mut self.metrics),
            trace,
            timeline,
        }))
    }

    /// Instantaneous LiteArch gauges recorded with every telemetry sample:
    /// completed round count and host result slots written so far — the
    /// static machine's equivalents of the fabric's queue-depth gauges.
    fn telemetry_gauges(&self) -> [(&'static str, u64); 2] {
        [
            (
                "host_written",
                self.host_written.iter().filter(|w| **w).count() as u64,
            ),
            ("rounds", self.round as u64),
        ]
    }

    /// Captures the complete mutable state into a versioned, checksummed
    /// [`Snapshot`]. Capture at a [`RunStatus::Paused`] round barrier; a
    /// fresh engine built from the same configuration restores it and —
    /// with an equivalent driver — continues byte-identically to an
    /// uninterrupted run.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture("lite", &mut self.clone())
    }

    /// Overwrites this engine's mutable state with a [`Snapshot`] captured
    /// by [`LiteEngine::snapshot`] on an engine built from the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] when the snapshot was taken by a
    /// different engine family, [`SnapshotError::Malformed`] when the
    /// bytes do not describe this configuration.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.restore_into("lite", self)
    }

    /// Accumulated value of a host result slot (zero if never written).
    pub fn host_result(&self, slot: u8) -> Option<u64> {
        self.host_written[slot as usize].then(|| self.host[slot as usize])
    }

    fn execute_task<W: Worker + ?Sized>(
        &mut self,
        start: Time,
        pe: usize,
        task: Task,
        worker: &mut W,
    ) -> Result<Time, AccelError> {
        let start = start
            + self
                .cfg
                .clock
                .cycles_to_time(self.cfg.costs.dispatch_cycles);
        let port = self.backend.port_of(&self.cfg, pe);
        let mut ctx = LiteCtx {
            now: start,
            port,
            cfg: &self.cfg,
            profile: self.profile,
            mem: &mut self.mem,
            backend: &mut self.backend,
            host: &mut self.host,
            host_written: &mut self.host_written,
            ops: 0,
            error: None,
        };
        worker.execute(&task, &mut ctx);
        let end = ctx.now;
        let ops = ctx.ops;
        let err = ctx.error.take();
        if let Some(e) = err {
            return Err(e);
        }
        let busy_ps = (end - start).as_ps();
        self.metrics.incr("accel.tasks");
        self.metrics.incr(&format!("pe{pe}.tasks"));
        self.metrics.add("accel.ops", ops);
        self.metrics.add(&format!("pe{pe}.busy_ps"), busy_ps);
        self.trace.emit(
            start,
            TraceEvent::TaskDispatch {
                unit: pe as u32,
                ty: task.ty.0,
                task: task.id,
            },
        );
        self.trace.emit(
            end,
            TraceEvent::TaskComplete {
                unit: pe as u32,
                ty: task.ty.0,
                busy_ps,
                task: task.id,
            },
        );
        Ok(end)
    }
}

/// The PE-side [`TaskContext`] for LiteArch: no spawning, no successors.
struct LiteCtx<'e> {
    now: Time,
    port: usize,
    cfg: &'e AccelConfig,
    profile: ExecProfile,
    mem: &'e mut Memory,
    backend: &'e mut MemBackend,
    host: &'e mut [u64; HOST_SLOTS],
    host_written: &'e mut [bool; HOST_SLOTS],
    ops: u64,
    error: Option<AccelError>,
}

impl TaskContext for LiteCtx<'_> {
    fn spawn(&mut self, _task: Task) {
        self.error = Some(AccelError::Unsupported(
            "LiteArch tiles cannot spawn tasks (no work-stealing TMU; see Table I)".into(),
        ));
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        self.now += self
            .cfg
            .clock
            .cycles_to_time(self.cfg.costs.send_arg_cycles);
        match k {
            Continuation::Host { slot } => {
                self.host[slot as usize] = self.host[slot as usize].wrapping_add(value);
                self.host_written[slot as usize] = true;
            }
            Continuation::PStore { .. } => {
                self.error = Some(AccelError::Unsupported(
                    "LiteArch tiles have no P-Store to receive arguments".into(),
                ));
            }
        }
    }

    fn make_successor_with(
        &mut self,
        _ty: TaskTypeId,
        _k: Continuation,
        _join: u8,
        _preset: &[(u8, u64)],
    ) -> Continuation {
        self.error = Some(AccelError::Unsupported(
            "LiteArch tiles have no P-Store (see Table I)".into(),
        ));
        Continuation::host((HOST_SLOTS - 1) as u8)
    }

    timed_memory_path!();

    fn mem(&mut self) -> &mut Memory {
        self.mem
    }
}

impl Persist for LiteEngine {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.now.persist(c)?;
        self.round.persist(c)?;
        self.next_task_id.persist(c)?;
        self.host.persist(c)?;
        self.host_written.persist(c)?;
        self.watchdog.persist(c)?;
        self.metrics.persist(c)?;
        self.mem.persist(c)?;
        self.backend.persist(c)?;
        self.trace.persist(c)?;
        c.optional(&mut self.telemetry, "telemetry state")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAF: TaskTypeId = TaskTypeId(0);

    struct SumWorker;
    impl Worker for SumWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let (lo, hi) = (task.args[0], task.args[1]);
            ctx.compute(hi - lo);
            ctx.send_arg(task.k, (lo..hi).sum::<u64>());
        }
    }

    fn chunk_tasks(n: u64, chunks: u64) -> RoundTasks {
        let per = n / chunks;
        (0..chunks)
            .map(|i| Task::new(LEAF, Continuation::host(0), &[i * per, (i + 1) * per]))
            .collect()
    }

    fn one_round(tasks: RoundTasks) -> impl FnMut(&mut Memory, usize) -> Option<RoundTasks> {
        let mut tasks = Some(tasks);
        move |_mem, round| if round == 0 { tasks.take() } else { None }
    }

    #[test]
    fn single_round_reduction() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 4), ExecProfile::scalar());
        let out = engine
            .run(&mut SumWorker, &mut one_round(chunk_tasks(1000, 8)))
            .unwrap();
        assert_eq!(out.result, (0..1000).sum::<u64>());
        assert_eq!(out.metrics.get("accel.tasks"), 8);
        assert_eq!(out.metrics.get("lite.rounds"), 1);
    }

    #[test]
    fn more_pes_finish_sooner() {
        let run = |tiles, pes| {
            let mut engine = LiteEngine::new(AccelConfig::lite(tiles, pes), ExecProfile::scalar());
            engine
                .run(&mut SumWorker, &mut one_round(chunk_tasks(100_000, 64)))
                .unwrap()
                .elapsed
        };
        let t1 = run(1, 1);
        let t8 = run(2, 4);
        assert!(t8 < t1, "8 PEs ({t8}) must beat 1 PE ({t1})");
    }

    #[test]
    fn multi_round_execution_uses_memory_between_rounds() {
        struct DoubleWorker;
        impl Worker for DoubleWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let addr = task.args[0];
                let v = ctx.read_u32(addr);
                ctx.write_u32(addr, v * 2);
                ctx.send_arg(task.k, 0);
            }
        }
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        engine.mem_mut().write_u32(0x100, 1);
        let out = engine
            .run(&mut DoubleWorker, &mut |_mem: &mut Memory, round: usize| {
                (round < 3).then(|| vec![Task::new(LEAF, Continuation::host(1), &[0x100])])
            })
            .unwrap();
        assert_eq!(engine.memory().read_u32(0x100), 8, "three doubling rounds");
        assert_eq!(out.metrics.get("lite.rounds"), 3);
    }

    struct SpawnyWorker;
    impl Worker for SpawnyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            ctx.spawn(*task);
        }
    }

    #[test]
    fn spawning_is_rejected() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 1), ExecProfile::scalar());
        let err = engine
            .run(
                &mut SpawnyWorker,
                &mut one_round(vec![Task::new(LEAF, Continuation::host(0), &[])]),
            )
            .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)), "got {err}");
    }

    struct SuccessorWorker;
    impl Worker for SuccessorWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let _ = ctx.make_successor(TaskTypeId(9), task.k, 2);
        }
    }

    #[test]
    fn successors_are_rejected() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 1), ExecProfile::scalar());
        let err = engine
            .run(
                &mut SuccessorWorker,
                &mut one_round(vec![Task::new(LEAF, Continuation::host(0), &[])]),
            )
            .unwrap_err();
        assert!(matches!(err, AccelError::Unsupported(_)));
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // A multi-round driver that is a pure function of (mem, round), as
        // the checkpoint contract requires of LiteArch drivers: a restored
        // engine replays the remaining rounds through a fresh driver value.
        struct DoubleWorker;
        impl Worker for DoubleWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let addr = task.args[0];
                let v = ctx.read_u32(addr);
                ctx.write_u32(addr, v * 2);
                ctx.send_arg(task.k, u64::from(v));
            }
        }
        let driver = || {
            |_mem: &mut Memory, round: usize| -> Option<RoundTasks> {
                (round < 6).then(|| {
                    (0..4u64)
                        .map(|i| Task::new(LEAF, Continuation::host(0), &[0x100 + 4 * i]))
                        .collect()
                })
            }
        };
        let mk = || {
            let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
            for i in 0..4u64 {
                engine.mem_mut().write_u32(0x100 + 4 * i, i as u32 + 1);
            }
            engine
        };
        let reference = mk().run(&mut DoubleWorker, &mut driver()).unwrap();
        let pause = Time::from_ps(reference.elapsed.as_ps() / 2);

        let mut paused = mk();
        match paused
            .run_until(&mut DoubleWorker, &mut driver(), Some(pause))
            .unwrap()
        {
            RunStatus::Paused { at } => assert_eq!(at, pause),
            RunStatus::Finished(_) => panic!("six rounds must outlast {pause}"),
        }
        let blob = paused.snapshot().to_json();
        let snap = Snapshot::from_json(&blob).expect("snapshot survives its wire format");
        let mut restored = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        restored
            .restore(&snap)
            .expect("restore into a fresh engine");

        for (label, engine) in [("paused", &mut paused), ("restored", &mut restored)] {
            let out = match engine.run_until(&mut DoubleWorker, &mut driver(), None) {
                Ok(RunStatus::Finished(out)) => out,
                other => panic!("{label} leg: {other:?}"),
            };
            assert_eq!(out.result, reference.result, "{label} result");
            assert_eq!(out.elapsed, reference.elapsed, "{label} elapsed");
            assert_eq!(
                out.metrics.to_json(),
                reference.metrics.to_json(),
                "{label} metrics"
            );
            assert_eq!(
                out.trace.to_jsonl(),
                reference.trace.to_jsonl(),
                "{label} trace"
            );
            assert_eq!(engine.memory().read_u32(0x100), 64, "{label} memory");
        }

        // A Flex snapshot must not restore into a Lite engine.
        let mut flex_snap = paused.snapshot();
        flex_snap.engine = "flex".to_owned();
        let err = mk().restore(&flex_snap).expect_err("engine mismatch");
        assert!(
            matches!(err, SnapshotError::EngineMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn host_slot_accumulates() {
        let mut engine = LiteEngine::new(AccelConfig::lite(1, 2), ExecProfile::scalar());
        let tasks: RoundTasks = (0..4)
            .map(|i| Task::new(LEAF, Continuation::host(2), &[0, i + 1]))
            .collect();
        let _ = engine.run(&mut SumWorker, &mut one_round(tasks)).unwrap();
        // Sums of 0..1, 0..2, 0..3, 0..4 = 0 + 1 + 3 + 6.
        assert_eq!(engine.host_result(2), Some(10));
        assert_eq!(engine.host_result(3), None);
    }
}
