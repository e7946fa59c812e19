//! A user-defined [`SchedulingPolicy`] driving the execution fabric end to
//! end.
//!
//! The fabric (`pxl-arch/src/fabric.rs`) owns the task model, P-Store
//! joins, memory timing, faults, watchdog, metrics and tracing; a policy
//! owns only *where ready tasks live* and *how idle PEs acquire them*.
//! This example plugs in a deterministic **ring-sweep** policy — an idle PE
//! probes its right neighbor first, then sweeps the ring (including the
//! host interface block) — in place of FlexArch's LFSR victim selection,
//! and runs the paper's Fibonacci workload through it unchanged.
//!
//! Run with: `cargo run --release --example custom_policy`

use parallelxl::arch::deque::TaskDeque;
use parallelxl::{
    AccelConfig, ArchKind, Codec, Continuation, EngineKind, ExecProfile, FabricEngine, FlexEngine,
    Persist, SchedulingPolicy, SnapshotError, Task, TaskContext, TaskTypeId, Time, Worker,
};
use std::collections::VecDeque;

/// Ready-task storage and acquisition with ring-sweep victim selection:
/// per-PE deques like FlexArch, but an idle PE's steal requests walk the
/// ring `pe+1, pe+2, …, IF, …` instead of following an LFSR.
#[derive(Debug, Clone)]
struct RingPolicy {
    deques: Vec<TaskDeque>,
    host_queue: VecDeque<Task>,
    /// Per-PE ring cursor: offset of the next victim to probe.
    cursor: Vec<usize>,
    num_pes: usize,
}

impl SchedulingPolicy for RingPolicy {
    fn for_config(cfg: &AccelConfig) -> Self {
        let num_pes = cfg.num_pes();
        RingPolicy {
            deques: (0..num_pes)
                .map(|_| TaskDeque::new(cfg.task_queue_entries))
                .collect(),
            host_queue: VecDeque::new(),
            cursor: vec![1; num_pes],
            num_pes,
        }
    }

    // A custom policy reports through the unified API as the engine family
    // it is a variant of — this one is a FlexArch variant, so it runs under
    // `AccelConfig::flex` configurations.
    fn kind(&self) -> EngineKind {
        EngineKind::Flex
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Flex
    }

    fn seed(&mut self, root: Task) {
        self.host_queue.push_back(root);
    }

    fn push(&mut self, pe: usize, task: Task, at: Time) -> Result<(), Task> {
        self.deques[pe].push_tail(task, at)
    }

    fn pop_local(&mut self, pe: usize, now: Time) -> Option<Task> {
        self.deques[pe].pop_tail(now) // LIFO for locality, like the paper
    }

    fn acquire_target(&mut self, pe: usize) -> usize {
        // Sweep the ring of other PEs plus the host interface (index
        // `num_pes`), one victim per attempt.
        let victims = self.num_pes + 1;
        let mut offset = self.cursor[pe];
        if (pe + offset) % victims == pe {
            offset += 1;
        }
        self.cursor[pe] = offset % victims + 1;
        (pe + offset) % victims
    }

    fn serve_acquire(
        &mut self,
        victim: usize,
        now: Time,
        service: Time,
        pred: &dyn Fn(&Task) -> bool,
    ) -> (Option<Task>, Time) {
        let done = now + service;
        let task = if victim == self.num_pes {
            match self.host_queue.front() {
                Some(t) if pred(t) => self.host_queue.pop_front(),
                _ => None,
            }
        } else {
            // Steal from the head: the oldest task roots the largest
            // untraversed subtree (Section II-C).
            self.deques[victim].steal_head_if(done, pred)
        };
        (task, done)
    }

    fn unit_queue_empty(&self, pe: usize) -> bool {
        self.deques[pe].is_empty()
    }

    fn host_queue_empty(&self) -> bool {
        self.host_queue.is_empty()
    }

    fn queue_peaks(&self) -> (u64, u64) {
        let max = self.deques.iter().map(TaskDeque::peak).max().unwrap_or(0);
        let sum: usize = self.deques.iter().map(TaskDeque::peak).sum();
        (max as u64, sum as u64)
    }

    fn ready_tasks(&self) -> u64 {
        let queued: usize = self.deques.iter().map(TaskDeque::len).sum();
        (queued + self.host_queue.len()) as u64
    }
}

// Checkpoint/restore: one walk serves both directions. The engine
// snapshots everything it owns; this policy adds its queue contents and
// ring cursors, checking the per-PE shapes against the restoring engine.
impl Persist for RingPolicy {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.exact(&mut self.deques, "PE deques")?;
        c.exact(&mut self.cursor, "PE cursors")?;
        self.host_queue.persist(c)
    }
}

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

fn main() {
    let n = 18;
    let root = || Task::new(FIB, Continuation::host(0), &[n]);
    let cfg = || AccelConfig::flex(2, 4);

    // The custom policy instantiates the same fabric the stock engines use.
    let mut ring = FabricEngine::<RingPolicy>::try_new(cfg(), ExecProfile::scalar())
        .expect("valid flex config");
    let out = ring.run(&mut FibWorker, root()).expect("ring-sweep run");

    // Same workload on stock FlexArch for comparison.
    let mut flex = FlexEngine::try_new(cfg(), ExecProfile::scalar()).expect("valid flex config");
    let reference = flex.run(&mut FibWorker, root()).expect("flex run");

    assert_eq!(out.result, reference.result, "policies agree on the value");
    println!("fib({n}) = {} on both policies\n", out.result);
    for (label, r) in [("ring-sweep", &out), ("flex (LFSR)", &reference)] {
        println!(
            "{label:11}: {:>12}  {} tasks, {}/{} steals hit, queue peak sum {}",
            r.elapsed.to_string(),
            r.metrics.get("accel.tasks"),
            r.metrics.get("accel.steal_hits"),
            r.metrics.get("accel.steal_attempts"),
            r.metrics.get("accel.queue_peak_sum"),
        );
    }
}
