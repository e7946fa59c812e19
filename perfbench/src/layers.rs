//! Outside-in layer timing.
//!
//! Every timer here sits at a call *into* a layer from the benchmark's own
//! code; nothing inside the program is instrumented. Two shapes exist:
//!
//! - [`Spans`]: coarse calls (engine construction, input setup, a golden
//!   check, a snapshot encode, a profile analysis) recorded as named spans
//!   that share a run id, kept in memory and folded into per-layer totals
//!   when the benchmark ends.
//! - [`TimedWorker`] / [`TimedCtx`] / [`TimedDriver`]: wrappers handed to
//!   `Engine::run` in place of the benchmark's worker, task context and
//!   LiteArch driver. They forward every method unchanged and only add
//!   timers and counters, so fine-grained calls (per task, per memory
//!   access) add up into per-run [`RunCounters`] instead of spans.

use std::collections::BTreeMap;
use std::time::Instant;

use pxl_arch::{LiteDriver, RoundTasks};
use pxl_mem::Memory;
use pxl_model::{Continuation, Task, TaskContext, TaskTypeId, Worker};

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer metric the span's duration is added to (`apps.setup_s`, ...).
    pub layer: &'static str,
    /// The run (simulation job, served job or traced point) it belongs to.
    pub run: u32,
    /// Duration in nanoseconds.
    pub ns: u64,
}

/// In-memory span recorder. A disabled recorder runs the closure and
/// records nothing, so untimed passes share the layer-timed code path.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording its duration under `layer` when enabled.
    pub fn time<T>(&mut self, layer: &'static str, run: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.push(layer, run, ns_since(t));
        out
    }

    /// Records an already-measured duration (no-op when disabled).
    pub fn push(&mut self, layer: &'static str, run: u32, ns: u64) {
        if self.enabled {
            self.spans.push(Span { layer, run, ns });
        }
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total nanoseconds per layer.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0) += s.ns;
        }
        out
    }

    /// Sum of every span's duration.
    pub fn covered_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.ns).sum()
    }

    /// One JSON line per span: `{"layer":..,"run":..,"ns":..}`.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\":\"{}\",\"run\":{},\"ns\":{}}}\n",
                    s.layer, s.run, s.ns
                )
            })
            .collect()
    }
}

/// Fine-grained host-time counters of one simulation run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunCounters {
    /// `Worker::execute`, including every context call made from it.
    pub exec_ns: u64,
    /// Timed memory calls (`load`/`store`/`amo`/`dma_*` and the typed
    /// accessors built on them).
    pub mem_ns: u64,
    pub mem_calls: u64,
    /// Task management (`spawn`/`send_arg`/`make_successor*`).
    pub task_ns: u64,
    pub task_calls: u64,
    /// `LiteDriver::next_round` (host-side round construction).
    pub driver_ns: u64,
}

impl RunCounters {
    pub fn add(&mut self, o: &RunCounters) {
        self.exec_ns += o.exec_ns;
        self.mem_ns += o.mem_ns;
        self.mem_calls += o.mem_calls;
        self.task_ns += o.task_ns;
        self.task_calls += o.task_calls;
        self.driver_ns += o.driver_ns;
    }

    /// Worker time not spent in timed context calls (includes functional
    /// memory access through `TaskContext::mem` and `compute`).
    pub fn worker_self_ns(&self) -> u64 {
        self.exec_ns.saturating_sub(self.mem_ns + self.task_ns)
    }
}

/// A [`Worker`] wrapper that times `execute` and hands the wrapped worker a
/// [`TimedCtx`].
pub struct TimedWorker<'a> {
    pub inner: &'a mut dyn Worker,
    pub counters: RunCounters,
}

impl Worker for TimedWorker<'_> {
    fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
        let t = Instant::now();
        let mut timed = TimedCtx {
            inner: ctx,
            c: &mut self.counters,
        };
        self.inner.execute(task, &mut timed);
        self.counters.exec_ns += ns_since(t);
    }
}

/// A [`TaskContext`] wrapper: every method forwards to the engine's own
/// context (including the typed accessors, so engine overrides still run).
pub struct TimedCtx<'a> {
    inner: &'a mut dyn TaskContext,
    c: &'a mut RunCounters,
}

macro_rules! timed {
    ($self:ident, $ns:ident, $calls:ident, $call:expr) => {{
        let t = Instant::now();
        let out = $call;
        $self.c.$ns += ns_since(t);
        $self.c.$calls += 1;
        out
    }};
}

impl TaskContext for TimedCtx<'_> {
    fn spawn(&mut self, task: Task) {
        timed!(self, task_ns, task_calls, self.inner.spawn(task))
    }
    fn send_arg(&mut self, k: Continuation, value: u64) {
        timed!(self, task_ns, task_calls, self.inner.send_arg(k, value))
    }
    fn make_successor(&mut self, ty: TaskTypeId, k: Continuation, join: u8) -> Continuation {
        timed!(
            self,
            task_ns,
            task_calls,
            self.inner.make_successor(ty, k, join)
        )
    }
    fn make_successor_with(
        &mut self,
        ty: TaskTypeId,
        k: Continuation,
        join: u8,
        preset: &[(u8, u64)],
    ) -> Continuation {
        timed!(
            self,
            task_ns,
            task_calls,
            self.inner.make_successor_with(ty, k, join, preset)
        )
    }
    fn compute(&mut self, ops: u64) {
        self.inner.compute(ops);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        timed!(self, mem_ns, mem_calls, self.inner.load(addr, bytes))
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        timed!(self, mem_ns, mem_calls, self.inner.store(addr, bytes))
    }
    fn amo(&mut self, addr: u64) {
        timed!(self, mem_ns, mem_calls, self.inner.amo(addr))
    }
    fn dma_read(&mut self, addr: u64, bytes: u64) {
        timed!(self, mem_ns, mem_calls, self.inner.dma_read(addr, bytes))
    }
    fn dma_write(&mut self, addr: u64, bytes: u64) {
        timed!(self, mem_ns, mem_calls, self.inner.dma_write(addr, bytes))
    }
    fn mem(&mut self) -> &mut Memory {
        self.inner.mem()
    }
    fn read_u8(&mut self, addr: u64) -> u8 {
        timed!(self, mem_ns, mem_calls, self.inner.read_u8(addr))
    }
    fn read_u32(&mut self, addr: u64) -> u32 {
        timed!(self, mem_ns, mem_calls, self.inner.read_u32(addr))
    }
    fn read_i32(&mut self, addr: u64) -> i32 {
        timed!(self, mem_ns, mem_calls, self.inner.read_i32(addr))
    }
    fn read_u64(&mut self, addr: u64) -> u64 {
        timed!(self, mem_ns, mem_calls, self.inner.read_u64(addr))
    }
    fn write_u8(&mut self, addr: u64, v: u8) {
        timed!(self, mem_ns, mem_calls, self.inner.write_u8(addr, v))
    }
    fn write_u32(&mut self, addr: u64, v: u32) {
        timed!(self, mem_ns, mem_calls, self.inner.write_u32(addr, v))
    }
    fn write_i32(&mut self, addr: u64, v: i32) {
        timed!(self, mem_ns, mem_calls, self.inner.write_i32(addr, v))
    }
    fn write_u64(&mut self, addr: u64, v: u64) {
        timed!(self, mem_ns, mem_calls, self.inner.write_u64(addr, v))
    }
}

/// A [`LiteDriver`] wrapper timing host-side round construction.
pub struct TimedDriver<'a> {
    pub inner: &'a mut dyn LiteDriver,
    pub ns: u64,
}

impl LiteDriver for TimedDriver<'_> {
    fn next_round(&mut self, mem: &mut Memory, round: usize) -> Option<RoundTasks> {
        let t = Instant::now();
        let out = self.inner.next_round(mem, round);
        self.ns += ns_since(t);
        out
    }
}
