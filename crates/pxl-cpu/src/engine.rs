//! Event-driven multicore CPU engine with a software work-stealing runtime.

use pxl_mem::{AccessKind, Memory, MemorySystem, PortId};
use pxl_model::serial::HOST_SLOTS;
use pxl_model::{
    Continuation, ExecProfile, PendingTask, Task, TaskContext, TaskTypeId, Worker, TASK_WORDS,
};
use pxl_sim::config::{CpuCoreParams, MemoryConfig};
use pxl_sim::snapshot::{malformed, Snapshot, SnapshotError};
use pxl_sim::{
    Codec, EventQueue, Metrics, Persist, TelemetrySampler, Time, Timeline, TraceEvent, Tracer,
    XorShift64,
};

use pxl_arch::deque::TaskDeque;
use pxl_arch::fabric::{register_fault_metrics, AccelError, AccelResult, Watchdog};
use pxl_arch::{Engine, EngineKind, RunStatus, Workload};

/// Core cycles without a task completion before the quiescence watchdog
/// declares the run stalled while work is still outstanding — the same
/// window [`pxl_arch::AccelConfig`] defaults to for the accelerators.
const WATCHDOG_QUIESCENCE_CYCLES: u64 = 1_000_000;

/// Base simulated address of the runtime's join-counter frames. Each pending
/// task's counter lives on its own cache line, so coherence traffic on joins
/// is modelled but false sharing is not.
const JOIN_FRAME_BASE: u64 = 0x4000_0000_0000;
/// Base simulated address of the per-core deque metadata (THE protocol
/// head/tail words); thieves and victims contend on these lines.
const DEQUE_META_BASE: u64 = 0x4100_0000_0000;

/// Instruction costs of the software runtime's primitives.
///
/// Derived from published Cilk-5/Cilk Plus overhead analyses: a spawn is a
/// few dozen instructions (frame setup + deque push), a successful steal
/// several hundred (locking, frame theft, resumption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareCosts {
    /// Pop + dispatch of a local task.
    pub dispatch_instrs: u64,
    /// Spawning a child task (frame allocation + deque push).
    pub spawn_instrs: u64,
    /// Returning a value through a join counter (excluding the atomic).
    pub send_arg_instrs: u64,
    /// Creating a successor frame.
    pub successor_instrs: u64,
    /// One steal attempt (victim selection, locking, transfer).
    pub steal_attempt_instrs: u64,
    /// Idle backoff after a failed steal.
    pub steal_backoff_instrs: u64,
    /// Effective instructions per cycle for runtime bookkeeping code.
    pub runtime_ipc: f64,
}

impl Default for SoftwareCosts {
    fn default() -> Self {
        SoftwareCosts {
            dispatch_instrs: 25,
            spawn_instrs: 40,
            send_arg_instrs: 30,
            successor_instrs: 45,
            steal_attempt_instrs: 300,
            steal_backoff_instrs: 150,
            runtime_ipc: 2.0,
        }
    }
}

/// Result of a CPU run (same shape as the accelerator's).
pub type CpuResult = AccelResult;

#[derive(Debug, Clone)]
enum Event {
    CoreWake { core: usize },
    StealTry { core: usize },
    TaskRun { core: usize, task: Task },
}

impl Event {
    /// Flat word encoding for checkpointing: a tag word followed by the
    /// variant's fields (tasks expand to [`TASK_WORDS`] words).
    fn to_words(&self) -> Vec<u64> {
        match self {
            Event::CoreWake { core } => vec![0, *core as u64],
            Event::StealTry { core } => vec![1, *core as u64],
            Event::TaskRun { core, task } => {
                let mut w = vec![2, *core as u64];
                w.extend(task.to_words());
                w
            }
        }
    }

    /// Inverse of [`Event::to_words`].
    fn from_words(words: &[u64]) -> Result<Event, String> {
        let expect = |n: usize| {
            if words.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "event encoding holds {} words, expected {n}",
                    words.len()
                ))
            }
        };
        match words.first() {
            Some(0) => {
                expect(2)?;
                Ok(Event::CoreWake {
                    core: words[1] as usize,
                })
            }
            Some(1) => {
                expect(2)?;
                Ok(Event::StealTry {
                    core: words[1] as usize,
                })
            }
            Some(2) => {
                expect(2 + TASK_WORDS)?;
                Ok(Event::TaskRun {
                    core: words[1] as usize,
                    task: Task::from_words(&words[2..])?,
                })
            }
            Some(tag) => Err(format!("unknown cpu event tag {tag}")),
            None => Err("empty event encoding".to_owned()),
        }
    }
}

/// The multicore software-runtime simulator.
///
/// # Examples
///
/// ```
/// use pxl_cpu::CpuEngine;
/// use pxl_model::{Continuation, ExecProfile, Task, TaskContext, TaskTypeId, Worker};
///
/// const FIB: TaskTypeId = TaskTypeId(0);
/// const SUM: TaskTypeId = TaskTypeId(1);
/// struct Fib;
/// impl Worker for Fib {
///     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
///         let k = task.k;
///         if task.ty == FIB {
///             let n = task.args[0];
///             ctx.compute(2);
///             if n < 2 {
///                 ctx.send_arg(k, n);
///             } else {
///                 let kk = ctx.make_successor(SUM, k, 2);
///                 ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
///                 ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
///             }
///         } else {
///             ctx.send_arg(k, task.args[0] + task.args[1]);
///         }
///     }
/// }
///
/// let mut cpu = CpuEngine::new(4, ExecProfile::scalar());
/// let out = cpu.run(&mut Fib, Task::new(FIB, Continuation::host(0), &[12])).unwrap();
/// assert_eq!(out.result, 144);
/// ```
#[derive(Debug, Clone)]
pub struct CpuEngine {
    cores: usize,
    core_params: CpuCoreParams,
    costs: SoftwareCosts,
    profile: ExecProfile,
    mem: Memory,
    memsys: MemorySystem,
    deques: Vec<TaskDeque>,
    rngs: Vec<XorShift64>,
    steal_fails: Vec<u32>,
    busy_until: Vec<Time>,
    pending: Vec<Option<PendingTask>>,
    pending_free: Vec<u32>,
    host: [Option<u64>; HOST_SLOTS],
    events: EventQueue<Event>,
    outstanding: u64,
    last_useful: Time,
    watchdog: Watchdog,
    metrics: Metrics,
    trace: Tracer,
    /// Run-unique task instance ids for the trace (0 = "no task"; the root
    /// gets id 1), matching the accelerator engines' numbering scheme.
    next_task_id: u64,
    error: Option<AccelError>,
    max_sim_time_us: u64,
    /// Host slot the root continuation targets, latched at launch so a
    /// paused/restored engine can still finish the run.
    result_slot: Option<u8>,
    /// Whether the root task has been seeded. A restored engine is already
    /// launched; [`CpuEngine::run`] skips re-seeding.
    launched: bool,
    /// In-run telemetry sampler, ticked at event-pop epoch boundaries;
    /// `None` (the default) keeps the hot loop to a single Option check.
    telemetry: Option<TelemetrySampler>,
}

impl CpuEngine {
    /// Creates an engine with `cores` Table III cores and default software
    /// costs.
    pub fn new(cores: usize, profile: ExecProfile) -> Self {
        CpuEngine::with_params(
            cores,
            profile,
            CpuCoreParams::micro2018(),
            MemoryConfig::micro2018(),
            SoftwareCosts::default(),
        )
    }

    /// Creates an engine with explicit core, memory and runtime parameters
    /// (used for the Zedboard's Cortex-A9 configuration).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_params(
        cores: usize,
        profile: ExecProfile,
        core_params: CpuCoreParams,
        memory: MemoryConfig,
        costs: SoftwareCosts,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        let memsys = MemorySystem::new(vec![memory.cpu_l1.clone(); cores], &memory);
        let mut metrics = Metrics::new();
        register_fault_metrics(&mut metrics);
        metrics.register_counter("trace.dropped");
        let watchdog = Watchdog::new(core_params.clock.cycles_to_time(WATCHDOG_QUIESCENCE_CYCLES));
        CpuEngine {
            cores,
            core_params,
            costs,
            profile,
            mem: Memory::new(),
            memsys,
            deques: (0..cores).map(|_| TaskDeque::new(1 << 20)).collect(),
            rngs: (0..cores)
                .map(|i| XorShift64::new(0xC0FE + 77 * i as u64))
                .collect(),
            steal_fails: vec![0; cores],
            busy_until: vec![Time::ZERO; cores],
            pending: Vec::new(),
            pending_free: Vec::new(),
            host: [None; HOST_SLOTS],
            events: EventQueue::new(),
            outstanding: 0,
            last_useful: Time::ZERO,
            watchdog,
            metrics,
            trace: Tracer::disabled(),
            next_task_id: 1,
            error: None,
            max_sim_time_us: 2_000_000,
            result_slot: None,
            launched: false,
            telemetry: None,
        }
    }

    /// Mutable access to functional memory for input setup.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Shared access to functional memory for output checking.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Value delivered to a host result register, if any.
    pub fn host_result(&self, slot: u8) -> Option<u64> {
        self.host.get(slot as usize).copied().flatten()
    }

    /// Enables structured event tracing (runtime + memory hierarchy) with a
    /// bounded buffer of `capacity` records per source; zero disables.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace = Tracer::bounded(capacity);
        self.memsys.enable_trace(capacity);
    }

    /// Enables in-run telemetry sampling every `every_cycles` core cycles;
    /// zero disables it. Configure before launching (or restoring) a run.
    pub fn set_telemetry_every(&mut self, every_cycles: u64) {
        self.telemetry = (every_cycles > 0)
            .then(|| TelemetrySampler::new(self.core_params.clock.cycles_to_time(every_cycles)));
    }

    fn runtime_cycles(&self, instrs: u64) -> Time {
        let cycles = (instrs as f64 / self.costs.runtime_ipc).ceil() as u64;
        self.core_params.clock.cycles_to_time(cycles)
    }

    /// Hands out the next run-unique task instance id.
    fn alloc_task_id(&mut self) -> u64 {
        let id = self.next_task_id;
        self.next_task_id += 1;
        id
    }

    /// Runs `root` to completion on core 0 (the thread that called the
    /// Cilk spawn root); other cores join by stealing.
    ///
    /// # Errors
    ///
    /// See [`AccelError`]; queue/P-Store overflow cannot occur (software
    /// stores are heap-backed) but leaks and timeouts are detected.
    pub fn run<W: Worker + ?Sized>(
        &mut self,
        worker: &mut W,
        root: Task,
    ) -> Result<CpuResult, AccelError> {
        self.launch(root);
        match self.run_until(worker, None)? {
            RunStatus::Finished(result) => Ok(result),
            RunStatus::Paused { .. } => unreachable!("run_until without a pause never pauses"),
        }
    }

    /// Seeds `root` on core 0 and wakes the other cores. A no-op when the
    /// engine is already launched — notably after [`CpuEngine::restore`].
    pub fn launch(&mut self, root: Task) {
        if self.launched {
            return;
        }
        self.launched = true;
        self.result_slot = match root.k {
            Continuation::Host { slot } => Some(slot),
            _ => None,
        };
        self.outstanding = 1;
        let root = root.with_id(self.alloc_task_id());
        self.events.push(
            Time::ZERO,
            Event::TaskRun {
                core: 0,
                task: root,
            },
        );
        for core in 1..self.cores {
            self.events.push(Time::ZERO, Event::CoreWake { core });
        }
    }

    /// Advances the simulation until the computation drains or, when
    /// `pause_at` is given, until the next pending event lies beyond that
    /// boundary with work still outstanding. Call [`CpuEngine::launch`]
    /// first (or restore a snapshot); legs compose — keep calling with the
    /// same worker until [`RunStatus::Finished`].
    ///
    /// # Errors
    ///
    /// See [`CpuEngine::run`].
    pub fn run_until<W: Worker + ?Sized>(
        &mut self,
        worker: &mut W,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        let limit = Time::from_us(self.max_sim_time_us);

        loop {
            if let Some(pause) = pause_at {
                // Pause only between events and only while work remains; a
                // drained computation always runs to its finished result.
                if self.outstanding > 0 {
                    match self.events.peek_time() {
                        Some(next) if next > pause => return Ok(RunStatus::Paused { at: pause }),
                        _ => {}
                    }
                }
            }
            let Some((now, event)) = self.events.pop() else {
                break;
            };
            if self.outstanding == 0 {
                break;
            }
            if now > limit {
                return Err(AccelError::TimedOut);
            }
            if self.watchdog.expired(now) {
                let blocked_unit = (0..self.cores).find(|&c| !self.deques[c].is_empty());
                return Err(self.watchdog.stall(
                    &mut self.metrics,
                    &mut self.trace,
                    now,
                    blocked_unit,
                ));
            }
            if self.telemetry.as_ref().is_some_and(|t| t.due(now)) {
                // Sample at the epoch boundary *before* handling the event
                // that crossed it: the pause check above fires on the peeked
                // event, so a resumed leg replays this sample identically.
                let gauges = self.telemetry_gauges();
                let metrics = &self.metrics;
                if let Some(t) = self.telemetry.as_mut() {
                    t.tick(now, metrics, &gauges);
                }
            }
            self.handle(now, event, worker);
            if let Some(err) = self.error.take() {
                return Err(err);
            }
        }

        let leaked = self.pending.iter().filter(|p| p.is_some()).count();
        if leaked > 0 {
            return Err(AccelError::LeakedPending { count: leaked });
        }
        let result = match self.result_slot {
            Some(slot) => self.host[slot as usize].ok_or(AccelError::NoResult { slot })?,
            None => 0,
        };
        // Close the final partial telemetry window before end-of-run rollups
        // (queue peaks, memory-system stats) land in the registry, so the
        // last sample's deltas cover only in-run activity like every other.
        let gauges = self.telemetry_gauges();
        let timeline = match self.telemetry.as_mut() {
            Some(t) => {
                t.flush(self.last_useful, &self.metrics, &gauges);
                t.take_timeline()
            }
            None => Timeline::default(),
        };
        let queue_peak: usize = self.deques.iter().map(TaskDeque::peak).sum();
        self.metrics.add("cpu.queue_peak_sum", queue_peak as u64);
        let mem_stats = self.memsys.take_stats();
        self.metrics.merge(&mem_stats);
        let mut trace = std::mem::take(&mut self.trace);
        trace.absorb(self.memsys.take_trace());
        trace.finish();
        self.metrics.add("trace.dropped", trace.dropped());
        Ok(RunStatus::Finished(CpuResult {
            result,
            elapsed: self.last_useful,
            metrics: std::mem::take(&mut self.metrics),
            trace,
            timeline,
        }))
    }

    /// Instantaneous software-runtime gauges recorded with every telemetry
    /// sample — the CPU's equivalents of the fabric's queue-depth gauges.
    fn telemetry_gauges(&self) -> [(&'static str, u64); 3] {
        let ready: usize = self.deques.iter().map(TaskDeque::len).sum();
        let pending = self.pending.iter().filter(|p| p.is_some()).count();
        [
            ("events", self.events.len() as u64),
            ("ready_tasks", ready as u64),
            ("pending_joins", pending as u64),
        ]
    }

    /// Captures the complete mutable runtime state — deques, pending
    /// frames, RNG streams, event queue, memory system — into a versioned,
    /// checksummed [`Snapshot`]. Capture at a [`RunStatus::Paused`]
    /// boundary; a fresh engine built with the same parameters restores it
    /// and continues byte-identically to an uninterrupted run.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture("cpu", &mut self.clone())
    }

    /// Overwrites this engine's mutable state with a [`Snapshot`] captured
    /// by [`CpuEngine::snapshot`] on an engine built with the same
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EngineMismatch`] when the snapshot was taken by a
    /// different engine family, [`SnapshotError::Malformed`] when the
    /// bytes do not describe this configuration.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        snap.restore_into("cpu", self)?;
        self.error = None;
        Ok(())
    }

    fn is_busy(&self, core: usize, now: Time) -> bool {
        now < self.busy_until[core]
    }

    fn handle<W: Worker + ?Sized>(&mut self, now: Time, event: Event, worker: &mut W) {
        match event {
            Event::CoreWake { core } => self.core_wake(now, core, worker),
            Event::StealTry { core } => self.steal_try(now, core, worker),
            Event::TaskRun { core, task } => {
                if self.is_busy(core, now) {
                    self.deques[core]
                        .push_tail(task, now)
                        .expect("software deque is unbounded");
                } else {
                    self.execute_task(now, core, task, worker);
                }
            }
        }
    }

    fn core_wake<W: Worker + ?Sized>(&mut self, now: Time, core: usize, worker: &mut W) {
        if self.is_busy(core, now) {
            return;
        }
        let t = now + self.runtime_cycles(self.costs.dispatch_instrs);
        if let Some(task) = self.deques[core].pop_tail(t) {
            self.steal_fails[core] = 0;
            self.execute_task(t, core, task, worker);
        } else if self.cores > 1 {
            self.events.push(
                now + self.runtime_cycles(self.costs.steal_attempt_instrs),
                Event::StealTry { core },
            );
            self.metrics.incr("cpu.steal_attempts");
        }
        // A single core with an empty deque parks; outstanding bookkeeping
        // wakes it via TaskRun events.
    }

    fn steal_try<W: Worker + ?Sized>(&mut self, now: Time, core: usize, worker: &mut W) {
        if self.is_busy(core, now) {
            return;
        }
        // Random victim among the other cores; the THE protocol's locking
        // shows up as an atomic on the victim's deque metadata line.
        let mut victim = self.rngs[core].next_in_range(self.cores as u64 - 1) as usize;
        if victim >= core {
            victim += 1;
        }
        self.trace.emit(
            now,
            TraceEvent::StealRequest {
                thief: core as u32,
                victim: victim as u32,
            },
        );
        let t = self.memsys.access(
            PortId(core),
            DEQUE_META_BASE + 64 * victim as u64,
            AccessKind::Amo,
            now,
        );
        match self.deques[victim].steal_head(t) {
            Some(task) => {
                self.metrics.incr("cpu.steal_hits");
                self.trace.emit(
                    t,
                    TraceEvent::StealGrant {
                        thief: core as u32,
                        victim: victim as u32,
                    },
                );
                self.steal_fails[core] = 0;
                self.execute_task(t, core, task, worker);
            }
            None => {
                self.trace.emit(
                    t,
                    TraceEvent::StealFail {
                        thief: core as u32,
                        victim: victim as u32,
                    },
                );
                let fails = self.steal_fails[core].min(6);
                self.steal_fails[core] = self.steal_fails[core].saturating_add(1);
                let backoff = self.costs.steal_backoff_instrs << fails;
                self.events
                    .push(t + self.runtime_cycles(backoff), Event::CoreWake { core });
            }
        }
    }

    fn execute_task<W: Worker + ?Sized>(
        &mut self,
        start: Time,
        core: usize,
        task: Task,
        worker: &mut W,
    ) {
        self.trace.emit(
            start,
            TraceEvent::TaskDispatch {
                unit: core as u32,
                ty: task.ty.0,
                task: task.id,
            },
        );
        let mut deque = std::mem::replace(&mut self.deques[core], TaskDeque::new(0));
        let mut ctx = CpuCtx {
            now: start,
            core,
            cur_task: task.id,
            engine: self,
            deque: &mut deque,
            ready: Vec::new(),
            spawned: 0,
        };
        worker.execute(&task, &mut ctx);
        let end = ctx.now;
        let ready = std::mem::take(&mut ctx.ready);
        let spawned = ctx.spawned;
        self.deques[core] = deque;
        self.outstanding += spawned + ready.len() as u64;
        self.metrics.incr("cpu.tasks");
        self.metrics.incr(&format!("core{core}.tasks"));
        self.metrics
            .add(&format!("core{core}.busy_ps"), (end - start).as_ps());
        self.trace.emit(
            end,
            TraceEvent::TaskComplete {
                unit: core as u32,
                ty: task.ty.0,
                busy_ps: (end - start).as_ps(),
                task: task.id,
            },
        );
        // Greedy continuation: tasks made ready by this core run on this
        // core next (they were pushed LIFO inside the context); nothing else
        // to do beyond waking up.
        for task in ready {
            self.deques[core]
                .push_tail(task, end)
                .expect("software deque is unbounded");
        }
        self.last_useful = self.last_useful.max(end);
        self.watchdog.progress(end, core);
        self.outstanding -= 1;
        self.busy_until[core] = end;
        self.events.push(end, Event::CoreWake { core });
    }
}

/// Per-task execution context on one core.
struct CpuCtx<'e> {
    now: Time,
    core: usize,
    /// Instance id of the task this context executes (the `parent` of its
    /// spawns and the `from` of its argument sends).
    cur_task: u64,
    engine: &'e mut CpuEngine,
    deque: &'e mut TaskDeque,
    /// Tasks whose joins completed during this task's execution.
    ready: Vec<Task>,
    spawned: u64,
}

impl CpuCtx<'_> {
    /// Charge a memory access, hiding `mem_overlap` of the miss penalty
    /// behind the out-of-order window.
    fn mem_access(&mut self, addr: u64, kind: AccessKind) {
        // L1 hits are fully pipelined; only the portion beyond the hit
        // latency can be (partially) hidden by the OOO window.
        let hit = self.engine.core_params.clock.period();
        let full = self
            .engine
            .memsys
            .access(PortId(self.core), addr, kind, self.now);
        let raw = full - self.now;
        let exposed = if raw > hit {
            let extra = raw - hit;
            let hidden = (extra.as_ps() as f64 * self.engine.core_params.mem_overlap) as u64;
            raw - Time::from_ps(hidden)
        } else {
            raw
        };
        self.now += exposed;
    }
}

impl TaskContext for CpuCtx<'_> {
    fn spawn(&mut self, task: Task) {
        self.now += self.engine.runtime_cycles(self.engine.costs.spawn_instrs);
        let task = task.with_id(self.engine.alloc_task_id());
        self.engine.trace.emit(
            self.now,
            TraceEvent::Spawn {
                unit: self.core as u32,
                ty: task.ty.0,
                parent: self.cur_task,
                child: task.id,
            },
        );
        self.spawned += 1;
        self.deque
            .push_tail(task, self.now)
            .expect("software deque is unbounded");
    }

    fn send_arg(&mut self, k: Continuation, value: u64) {
        self.now += self
            .engine
            .runtime_cycles(self.engine.costs.send_arg_instrs);
        match k {
            Continuation::Host { slot } => {
                self.engine.host[slot as usize] = Some(value);
            }
            Continuation::PStore { entry, slot, .. } => {
                // Atomic decrement of the join counter in shared memory.
                self.mem_access(JOIN_FRAME_BASE + 64 * entry as u64, AccessKind::Amo);
                let join_target = self.engine.pending[entry as usize]
                    .as_ref()
                    .map(|c| c.id)
                    .unwrap_or(0);
                self.engine.trace.emit(
                    self.now,
                    TraceEvent::PStoreJoin {
                        tile: 0,
                        slot,
                        task: join_target,
                        from: self.cur_task,
                    },
                );
                let cell = self.engine.pending[entry as usize]
                    .as_mut()
                    .expect("argument sent to a freed runtime frame");
                if let Some(task) = cell.fill(slot, value) {
                    self.engine.pending[entry as usize] = None;
                    self.engine.pending_free.push(entry);
                    self.ready.push(task);
                }
            }
        }
    }

    fn make_successor_with(
        &mut self,
        ty: TaskTypeId,
        k: Continuation,
        join: u8,
        preset: &[(u8, u64)],
    ) -> Continuation {
        self.now += self
            .engine
            .runtime_cycles(self.engine.costs.successor_instrs);
        let id = self.engine.alloc_task_id();
        let mut pending = PendingTask::new(ty, k, join).with_id(id);
        for &(slot, value) in preset {
            pending = pending.preset(slot, value);
        }
        let entry = match self.engine.pending_free.pop() {
            Some(e) => {
                self.engine.pending[e as usize] = Some(pending);
                e
            }
            None => {
                self.engine.pending.push(Some(pending));
                (self.engine.pending.len() - 1) as u32
            }
        };
        // Initialize the frame's join-counter line.
        self.mem_access(JOIN_FRAME_BASE + 64 * entry as u64, AccessKind::Write);
        Continuation::pstore(0, entry, 0)
    }

    fn compute(&mut self, ops: u64) {
        let cycles = self.engine.profile.cpu_cycles(ops);
        self.now += self.engine.core_params.clock.cycles_to_time(cycles);
    }

    fn load(&mut self, addr: u64, _bytes: u32) {
        self.mem_access(addr, AccessKind::Read);
    }

    fn store(&mut self, addr: u64, _bytes: u32) {
        self.mem_access(addr, AccessKind::Write);
    }

    fn amo(&mut self, addr: u64) {
        self.mem_access(addr, AccessKind::Amo);
    }

    fn dma_read(&mut self, addr: u64, bytes: u64) {
        // The CPU has no DMA engine: a burst is a software streaming loop.
        let line = self.engine.memsys.line_bytes() as u64;
        if bytes == 0 {
            return;
        }
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut a = first;
        loop {
            self.mem_access(a, AccessKind::Read);
            if a == last {
                break;
            }
            a += line;
        }
    }

    fn dma_write(&mut self, addr: u64, bytes: u64) {
        let line = self.engine.memsys.line_bytes() as u64;
        if bytes == 0 {
            return;
        }
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut a = first;
        loop {
            self.mem_access(a, AccessKind::Write);
            if a == last {
                break;
            }
            a += line;
        }
    }

    fn mem(&mut self) -> &mut Memory {
        &mut self.engine.mem
    }
}

impl Persist for CpuEngine {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.launched.persist(c)?;
        self.result_slot.persist(c)?;
        self.next_task_id.persist(c)?;
        self.outstanding.persist(c)?;
        self.last_useful.persist(c)?;
        c.exact(&mut self.deques, "cores")?;
        c.exact(&mut self.rngs, "cores")?;
        c.exact(&mut self.steal_fails, "cores")?;
        c.exact(&mut self.busy_until, "cores")?;
        self.pending.persist(c)?;
        self.pending_free.persist(c)?;
        let pending = &self.pending;
        if let Some(e) = self
            .pending_free
            .iter()
            .find(|&&e| !matches!(pending.get(e as usize), Some(None)))
        {
            return Err(malformed(format!("free frame {e} is not a dead frame")));
        }
        self.host.persist(c)?;
        self.events.persist_words(
            c,
            &mut (),
            |event, _| event.to_words(),
            |words, _| Event::from_words(words),
        )?;
        self.watchdog.persist(c)?;
        self.metrics.persist(c)?;
        self.mem.persist(c)?;
        self.memsys.persist(c)?;
        self.trace.persist(c)?;
        c.optional(&mut self.telemetry, "telemetry state")
    }
}

impl Engine for CpuEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Cpu
    }

    fn units(&self) -> usize {
        self.cores
    }

    fn clock(&self) -> pxl_sim::Clock {
        self.core_params.clock.clone()
    }

    fn memory(&self) -> &Memory {
        CpuEngine::memory(self)
    }

    fn mem_mut(&mut self) -> &mut Memory {
        CpuEngine::mem_mut(self)
    }

    fn metrics(&self) -> &Metrics {
        CpuEngine::metrics(self)
    }

    fn host_result(&self, slot: u8) -> Option<u64> {
        CpuEngine::host_result(self, slot)
    }

    fn run(&mut self, workload: Workload<'_>) -> Result<AccelResult, AccelError> {
        match workload {
            Workload::Dynamic { worker, root } => CpuEngine::run(self, worker, root),
            other => Err(AccelError::Unsupported(format!(
                "the CPU baseline runs dynamic task graphs, not {}",
                other.shape()
            ))),
        }
    }

    fn run_until(
        &mut self,
        workload: Workload<'_>,
        pause_at: Option<Time>,
    ) -> Result<RunStatus, AccelError> {
        match workload {
            Workload::Dynamic { worker, root } => {
                CpuEngine::launch(self, root);
                CpuEngine::run_until(self, worker, pause_at)
            }
            other => Err(AccelError::Unsupported(format!(
                "the CPU baseline runs dynamic task graphs, not {}",
                other.shape()
            ))),
        }
    }

    fn snapshot(&self) -> Snapshot {
        CpuEngine::snapshot(self)
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        CpuEngine::restore(self, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIB: TaskTypeId = TaskTypeId(0);
    const SUM: TaskTypeId = TaskTypeId(1);

    struct FibWorker;
    impl Worker for FibWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let k = task.k;
            if task.ty == FIB {
                let n = task.args[0];
                ctx.compute(2);
                if n < 2 {
                    ctx.send_arg(k, n);
                } else {
                    let kk = ctx.make_successor(SUM, k, 2);
                    ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
                    ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
                }
            } else {
                ctx.compute(1);
                ctx.send_arg(k, task.args[0] + task.args[1]);
            }
        }
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }

    fn run_fib(cores: usize, n: u64) -> CpuResult {
        let mut cpu = CpuEngine::new(cores, ExecProfile::scalar());
        cpu.run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[n]))
            .expect("fib must complete")
    }

    #[test]
    fn one_core_computes_fib() {
        let out = run_fib(1, 14);
        assert_eq!(out.result, fib(14));
        assert!(out.metrics.get("cpu.tasks") > 100);
    }

    #[test]
    fn multicore_scales_and_matches() {
        let n = 16;
        let t1 = run_fib(1, n);
        let t4 = run_fib(4, n);
        assert_eq!(t4.result, fib(n));
        assert!(
            t4.elapsed < t1.elapsed,
            "4 cores ({}) must beat 1 core ({})",
            t4.elapsed,
            t1.elapsed
        );
        assert!(t4.metrics.get("cpu.steal_hits") > 0);
    }

    #[test]
    fn deterministic() {
        let a = run_fib(4, 14);
        let b = run_fib(4, 14);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let n = 15;
        let root = || Task::new(FIB, Continuation::host(0), &[n]);
        let mk = || {
            let mut cpu = CpuEngine::new(4, ExecProfile::scalar());
            cpu.set_trace_capacity(4096);
            cpu
        };
        let reference = {
            let mut cpu = mk();
            cpu.run(&mut FibWorker, root()).expect("reference run")
        };
        let pause = Time::from_ps(reference.elapsed.as_ps() / 2);

        let mut paused = mk();
        paused.launch(root());
        match paused.run_until(&mut FibWorker, Some(pause)).unwrap() {
            RunStatus::Paused { at } => assert_eq!(at, pause),
            RunStatus::Finished(_) => panic!("fib must still be in flight at {pause}"),
        }
        let blob = paused.snapshot().to_json();
        let snap = Snapshot::from_json(&blob).expect("snapshot survives its wire format");
        let mut restored = mk();
        restored
            .restore(&snap)
            .expect("restore into a fresh engine");

        let finish = |cpu: &mut CpuEngine| match cpu.run_until(&mut FibWorker, None) {
            Ok(RunStatus::Finished(out)) => out,
            other => panic!("resumed leg: {other:?}"),
        };
        let a = finish(&mut paused);
        let b = finish(&mut restored);
        for (label, out) in [("paused", &a), ("restored", &b)] {
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
        }

        // A core-count mismatch is rejected rather than silently resumed.
        let mut narrow = CpuEngine::new(2, ExecProfile::scalar());
        let err = narrow.restore(&snap).expect_err("core mismatch");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
    }

    #[test]
    fn software_spawn_is_much_slower_than_hardware() {
        // The same fib on a 1-PE accelerator vs one CPU core: the CPU core
        // at 1 GHz with identical ExecProfile must still pay far more time
        // per task because runtime primitives cost tens of instructions.
        let cpu = run_fib(1, 12);
        let cpu_ns_per_task = cpu.elapsed.as_ns_f64() / cpu.metrics.get("cpu.tasks") as f64;
        let mut accel =
            pxl_arch::FlexEngine::new(pxl_arch::AccelConfig::flex(1, 1), ExecProfile::scalar());
        let out = accel
            .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[12]))
            .unwrap();
        let accel_ns_per_task = out.elapsed.as_ns_f64() / out.metrics.get("accel.tasks") as f64;
        // At 1/5 the clock rate, the accelerator should still be competitive
        // per task thanks to cheap task management.
        assert!(
            cpu_ns_per_task > accel_ns_per_task * 0.5,
            "cpu {cpu_ns_per_task:.1} ns/task vs accel {accel_ns_per_task:.1} ns/task"
        );
    }

    struct LeakyWorker;
    impl Worker for LeakyWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let _ = ctx.make_successor(SUM, task.k, 2);
        }
    }

    #[test]
    fn zedboard_a9_configuration_runs_and_is_slower() {
        use pxl_mem::zedboard::{zedboard_cpu_core, zedboard_cpu_memory};
        let root = Task::new(FIB, Continuation::host(0), &[14]);
        let big = run_fib(2, 14);
        let mut a9 = CpuEngine::with_params(
            2,
            ExecProfile::scalar(),
            zedboard_cpu_core(),
            zedboard_cpu_memory(),
            SoftwareCosts::default(),
        );
        let out = a9.run(&mut FibWorker, root).unwrap();
        assert_eq!(out.result, fib(14));
        assert!(
            out.elapsed > big.elapsed,
            "667 MHz dual-issue A9s ({}) must trail the 1 GHz four-issue cores ({})",
            out.elapsed,
            big.elapsed
        );
    }

    #[test]
    fn lower_runtime_ipc_slows_the_runtime() {
        let run = |ipc: f64| {
            let mut cpu = CpuEngine::with_params(
                2,
                ExecProfile::scalar(),
                pxl_sim::config::CpuCoreParams::micro2018(),
                pxl_sim::config::MemoryConfig::micro2018(),
                SoftwareCosts {
                    runtime_ipc: ipc,
                    ..SoftwareCosts::default()
                },
            );
            cpu.run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[14]))
                .unwrap()
                .elapsed
        };
        assert!(run(1.0) > run(3.0), "denser runtime code must be faster");
    }

    #[test]
    fn single_core_never_steals() {
        let out = run_fib(1, 12);
        assert_eq!(out.metrics.get("cpu.steal_attempts"), 0);
        assert_eq!(out.metrics.get("cpu.steal_hits"), 0);
    }

    #[test]
    fn leaks_are_detected() {
        let mut cpu = CpuEngine::new(2, ExecProfile::scalar());
        let err = cpu
            .run(&mut LeakyWorker, Task::new(FIB, Continuation::host(0), &[]))
            .unwrap_err();
        assert_eq!(err, AccelError::LeakedPending { count: 1 });
    }

    #[test]
    fn memory_flows_through_cpu_l1() {
        struct MemWorker;
        impl Worker for MemWorker {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let mut sum = 0u64;
                for i in 0..64u64 {
                    sum += ctx.read_u32(0x2000 + 4 * i) as u64;
                }
                ctx.send_arg(task.k, sum);
            }
        }
        let mut cpu = CpuEngine::new(1, ExecProfile::scalar());
        for i in 0..64u64 {
            cpu.mem_mut().write_u32(0x2000 + 4 * i, 2 * i as u32);
        }
        let out = cpu
            .run(&mut MemWorker, Task::new(FIB, Continuation::host(0), &[]))
            .unwrap();
        assert_eq!(out.result, (0..64).map(|i| 2 * i).sum::<u64>());
        assert!(out.metrics.get("mem.l1_hits") > 0);
    }
}
