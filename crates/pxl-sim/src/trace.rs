//! Bounded structured event tracing with deterministic ordering and JSONL
//! export.
//!
//! A [`Tracer`] records [`TraceEvent`]s stamped with simulated time. Tracing
//! is off by default ([`Tracer::disabled`]) and costs one branch per emit
//! site; a bounded tracer ([`Tracer::bounded`]) keeps at most `capacity`
//! records and counts the rest as dropped, so traces of long runs cannot
//! exhaust host memory.
//!
//! Determinism: records carry a `(t_ps, seq)` pair. `seq` is the emission
//! order within one tracer; [`Tracer::absorb`] renumbers the absorbed
//! records to continue the local numbering, and [`Tracer::finish`] stably
//! sorts by time and renumbers once more, so two identical runs produce
//! byte-identical [`Tracer::to_jsonl`] output.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::{Time, TraceEvent, Tracer};
//!
//! let mut t = Tracer::bounded(16);
//! t.emit(
//!     Time::from_ps(500),
//!     TraceEvent::Spawn {
//!         unit: 0,
//!         ty: 1,
//!         parent: 0,
//!         child: 1,
//!     },
//! );
//! t.emit(
//!     Time::from_ps(100),
//!     TraceEvent::StealGrant { thief: 1, victim: 0 },
//! );
//! t.finish();
//! assert_eq!(t.records()[0].at, Time::from_ps(100));
//! assert!(t.to_jsonl().starts_with("{\"t_ps\":100,\"seq\":0,"));
//! ```

use crate::json;
use crate::persist::{Codec, Persist};
use crate::snapshot::{malformed, SnapshotError};
use crate::time::Time;

/// One structured simulator event.
///
/// `unit` is a flat PE/core index across the whole accelerator or CPU;
/// `ty` is the task-type id; `port` is the memory port of the issuing unit;
/// `level` is the cache level (1 = L1, 2 = L2). `task`, `parent`, `child`
/// and `from` are run-unique task instance ids stamped by the engine at
/// spawn time; together they let a profiler reconstruct the causal
/// spawn/join DAG from the event stream alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task began executing on a processing element.
    TaskDispatch { unit: u32, ty: u8, task: u64 },
    /// A task finished executing; `busy_ps` is its modeled run length.
    TaskComplete {
        unit: u32,
        ty: u8,
        busy_ps: u64,
        task: u64,
    },
    /// A task spawned a child task (`parent` → `child` edge of the DAG).
    Spawn {
        unit: u32,
        ty: u8,
        parent: u64,
        child: u64,
    },
    /// A task-management unit sent a steal request to a victim.
    StealRequest { thief: u32, victim: u32 },
    /// A steal request found work and the task migrated.
    StealGrant { thief: u32, victim: u32 },
    /// A steal request found the victim's queue empty.
    StealFail { thief: u32, victim: u32 },
    /// A P-Store entry was allocated for a continuation.
    PStoreAlloc { tile: u32, occupancy: u32 },
    /// An argument joined a pending continuation in the P-Store; `task` is
    /// the joined successor's instance id, `from` the sender's (`from` →
    /// `task` edge of the DAG).
    PStoreJoin {
        tile: u32,
        slot: u8,
        task: u64,
        from: u64,
    },
    /// A continuation became ready and its P-Store entry was freed.
    PStoreDealloc { tile: u32, occupancy: u32 },
    /// A memory access hit in the given cache level.
    CacheHit { port: u32, level: u8 },
    /// A memory access missed in the given cache level.
    CacheMiss { port: u32, level: u8 },
    /// A cache line was evicted from the given level.
    CacheEvict { port: u32, level: u8 },
    /// A DRAM bandwidth epoch filled up and an access spilled to a later
    /// epoch.
    DramSaturated { epoch: u64, committed_ps: u64 },
    /// A planned fault fired; `spec` indexes the fault plan, `unit` is the
    /// affected PE/tile/sender.
    FaultInjected { spec: u32, unit: u32 },
    /// A previously injected fault was fully masked by the recovery
    /// machinery (retry, rescue, repair, or stall expiry).
    FaultRecovered { spec: u32, unit: u32 },
    /// A fault exhausted its recovery budget and was given up on.
    FaultUnrecovered { spec: u32, unit: u32 },
    /// The quiescence watchdog declared the run stalled; `unit` is the
    /// unit that last made forward progress, `idle_ps` how long ago.
    WatchdogStall { unit: u32, idle_ps: u64 },
    /// A message crossed the inter-chip link of a multi-chip cluster.
    /// `class` tags the traffic type (0 = steal request, 1 = steal reply,
    /// 2 = argument, 3 = routed task); `wait_ps` is how long the message
    /// queued behind the directed link's bounded bandwidth before
    /// departing.
    LinkXfer {
        src_chip: u32,
        dst_chip: u32,
        class: u8,
        wait_ps: u64,
    },
}

/// JSONL `"kind"` names in variant order (see `TraceEvent::tag`).
const KINDS: [&str; 18] = [
    "task_dispatch",
    "task_complete",
    "spawn",
    "steal_request",
    "steal_grant",
    "steal_fail",
    "pstore_alloc",
    "pstore_join",
    "pstore_dealloc",
    "cache_hit",
    "cache_miss",
    "cache_evict",
    "dram_saturated",
    "fault.injected",
    "fault.recovered",
    "fault.unrecovered",
    "watchdog.stall",
    "link_xfer",
];

impl TraceEvent {
    /// Short stable name used as the JSONL `"kind"` field.
    pub fn kind(&self) -> &'static str {
        KINDS[self.tag() as usize]
    }

    /// The variant's index into [`KINDS`]; also its snapshot tag.
    fn tag(&self) -> u8 {
        match self {
            TraceEvent::TaskDispatch { .. } => 0,
            TraceEvent::TaskComplete { .. } => 1,
            TraceEvent::Spawn { .. } => 2,
            TraceEvent::StealRequest { .. } => 3,
            TraceEvent::StealGrant { .. } => 4,
            TraceEvent::StealFail { .. } => 5,
            TraceEvent::PStoreAlloc { .. } => 6,
            TraceEvent::PStoreJoin { .. } => 7,
            TraceEvent::PStoreDealloc { .. } => 8,
            TraceEvent::CacheHit { .. } => 9,
            TraceEvent::CacheMiss { .. } => 10,
            TraceEvent::CacheEvict { .. } => 11,
            TraceEvent::DramSaturated { .. } => 12,
            TraceEvent::FaultInjected { .. } => 13,
            TraceEvent::FaultRecovered { .. } => 14,
            TraceEvent::FaultUnrecovered { .. } => 15,
            TraceEvent::WatchdogStall { .. } => 16,
            TraceEvent::LinkXfer { .. } => 17,
        }
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            TraceEvent::TaskDispatch { unit, ty, task } => {
                vec![("unit", unit as u64), ("ty", ty as u64), ("task", task)]
            }
            TraceEvent::TaskComplete {
                unit,
                ty,
                busy_ps,
                task,
            } => {
                vec![
                    ("unit", unit as u64),
                    ("ty", ty as u64),
                    ("busy_ps", busy_ps),
                    ("task", task),
                ]
            }
            TraceEvent::Spawn {
                unit,
                ty,
                parent,
                child,
            } => {
                vec![
                    ("unit", unit as u64),
                    ("ty", ty as u64),
                    ("parent", parent),
                    ("child", child),
                ]
            }
            TraceEvent::StealRequest { thief, victim }
            | TraceEvent::StealGrant { thief, victim }
            | TraceEvent::StealFail { thief, victim } => {
                vec![("thief", thief as u64), ("victim", victim as u64)]
            }
            TraceEvent::PStoreAlloc { tile, occupancy }
            | TraceEvent::PStoreDealloc { tile, occupancy } => {
                vec![("tile", tile as u64), ("occupancy", occupancy as u64)]
            }
            TraceEvent::PStoreJoin {
                tile,
                slot,
                task,
                from,
            } => {
                vec![
                    ("tile", tile as u64),
                    ("slot", slot as u64),
                    ("task", task),
                    ("from", from),
                ]
            }
            TraceEvent::CacheHit { port, level }
            | TraceEvent::CacheMiss { port, level }
            | TraceEvent::CacheEvict { port, level } => {
                vec![("port", port as u64), ("level", level as u64)]
            }
            TraceEvent::DramSaturated {
                epoch,
                committed_ps,
            } => vec![("epoch", epoch), ("committed_ps", committed_ps)],
            TraceEvent::FaultInjected { spec, unit }
            | TraceEvent::FaultRecovered { spec, unit }
            | TraceEvent::FaultUnrecovered { spec, unit } => {
                vec![("spec", spec as u64), ("unit", unit as u64)]
            }
            TraceEvent::WatchdogStall { unit, idle_ps } => {
                vec![("unit", unit as u64), ("idle_ps", idle_ps)]
            }
            TraceEvent::LinkXfer {
                src_chip,
                dst_chip,
                class,
                wait_ps,
            } => {
                vec![
                    ("src_chip", src_chip as u64),
                    ("dst_chip", dst_chip as u64),
                    ("class", class as u64),
                    ("wait_ps", wait_ps),
                ]
            }
        }
    }
}

impl TraceEvent {
    /// Rebuilds an event from its JSONL `kind` and field map (the inverse
    /// of [`TraceEvent::kind`] + `fields`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown kind or missing field.
    pub fn from_kind_fields(
        kind: &str,
        field: &dyn Fn(&str) -> Option<u64>,
    ) -> Result<TraceEvent, String> {
        let get = |key: &str| field(key).ok_or_else(|| format!("trace {kind:?}: missing {key}"));
        Ok(match kind {
            "task_dispatch" => TraceEvent::TaskDispatch {
                unit: get("unit")? as u32,
                ty: get("ty")? as u8,
                task: get("task")?,
            },
            "task_complete" => TraceEvent::TaskComplete {
                unit: get("unit")? as u32,
                ty: get("ty")? as u8,
                busy_ps: get("busy_ps")?,
                task: get("task")?,
            },
            "spawn" => TraceEvent::Spawn {
                unit: get("unit")? as u32,
                ty: get("ty")? as u8,
                parent: get("parent")?,
                child: get("child")?,
            },
            "steal_request" => TraceEvent::StealRequest {
                thief: get("thief")? as u32,
                victim: get("victim")? as u32,
            },
            "steal_grant" => TraceEvent::StealGrant {
                thief: get("thief")? as u32,
                victim: get("victim")? as u32,
            },
            "steal_fail" => TraceEvent::StealFail {
                thief: get("thief")? as u32,
                victim: get("victim")? as u32,
            },
            "pstore_alloc" => TraceEvent::PStoreAlloc {
                tile: get("tile")? as u32,
                occupancy: get("occupancy")? as u32,
            },
            "pstore_join" => TraceEvent::PStoreJoin {
                tile: get("tile")? as u32,
                slot: get("slot")? as u8,
                task: get("task")?,
                from: get("from")?,
            },
            "pstore_dealloc" => TraceEvent::PStoreDealloc {
                tile: get("tile")? as u32,
                occupancy: get("occupancy")? as u32,
            },
            "cache_hit" => TraceEvent::CacheHit {
                port: get("port")? as u32,
                level: get("level")? as u8,
            },
            "cache_miss" => TraceEvent::CacheMiss {
                port: get("port")? as u32,
                level: get("level")? as u8,
            },
            "cache_evict" => TraceEvent::CacheEvict {
                port: get("port")? as u32,
                level: get("level")? as u8,
            },
            "dram_saturated" => TraceEvent::DramSaturated {
                epoch: get("epoch")?,
                committed_ps: get("committed_ps")?,
            },
            "fault.injected" => TraceEvent::FaultInjected {
                spec: get("spec")? as u32,
                unit: get("unit")? as u32,
            },
            "fault.recovered" => TraceEvent::FaultRecovered {
                spec: get("spec")? as u32,
                unit: get("unit")? as u32,
            },
            "fault.unrecovered" => TraceEvent::FaultUnrecovered {
                spec: get("spec")? as u32,
                unit: get("unit")? as u32,
            },
            "watchdog.stall" => TraceEvent::WatchdogStall {
                unit: get("unit")? as u32,
                idle_ps: get("idle_ps")?,
            },
            "link_xfer" => TraceEvent::LinkXfer {
                src_chip: get("src_chip")? as u32,
                dst_chip: get("dst_chip")? as u32,
                class: get("class")? as u8,
                wait_ps: get("wait_ps")?,
            },
            other => return Err(format!("trace: unknown kind {other:?}")),
        })
    }
}

impl Persist for TraceEvent {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut tag = self.tag();
        tag.persist(c)?;
        if C::LOADING {
            let kind = KINDS
                .get(tag as usize)
                .ok_or_else(|| malformed(format!("unknown trace event tag {tag}")))?;
            *self = TraceEvent::from_kind_fields(kind, &|_| Some(0)).map_err(malformed)?;
        }
        match self {
            TraceEvent::TaskDispatch { unit, ty, task } => (unit, ty, task).persist(c),
            TraceEvent::TaskComplete {
                unit,
                ty,
                busy_ps,
                task,
            } => (unit, ty, busy_ps, task).persist(c),
            TraceEvent::Spawn {
                unit,
                ty,
                parent,
                child,
            } => (unit, ty, parent, child).persist(c),
            TraceEvent::StealRequest { thief, victim }
            | TraceEvent::StealGrant { thief, victim }
            | TraceEvent::StealFail { thief, victim } => (thief, victim).persist(c),
            TraceEvent::PStoreAlloc { tile, occupancy }
            | TraceEvent::PStoreDealloc { tile, occupancy } => (tile, occupancy).persist(c),
            TraceEvent::PStoreJoin {
                tile,
                slot,
                task,
                from,
            } => (tile, slot, task, from).persist(c),
            TraceEvent::CacheHit { port, level }
            | TraceEvent::CacheMiss { port, level }
            | TraceEvent::CacheEvict { port, level } => (port, level).persist(c),
            TraceEvent::DramSaturated {
                epoch,
                committed_ps,
            } => (epoch, committed_ps).persist(c),
            TraceEvent::FaultInjected { spec, unit }
            | TraceEvent::FaultRecovered { spec, unit }
            | TraceEvent::FaultUnrecovered { spec, unit } => (spec, unit).persist(c),
            TraceEvent::WatchdogStall { unit, idle_ps } => (unit, idle_ps).persist(c),
            TraceEvent::LinkXfer {
                src_chip,
                dst_chip,
                class,
                wait_ps,
            } => (src_chip, dst_chip, class, wait_ps).persist(c),
        }
    }
}

/// One recorded event with its timestamp and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Time,
    /// Deterministic tiebreak for events at the same timestamp.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::write_u64_fields(&mut out, &[("t_ps", self.at.as_ps()), ("seq", self.seq)]);
        out.push_str(",\"kind\":");
        json::write_string(&mut out, self.event.kind());
        let fields = self.event.fields();
        if !fields.is_empty() {
            out.push(',');
            json::write_u64_fields(&mut out, &fields);
        }
        out.push('}');
        out
    }
}

impl Default for TraceRecord {
    fn default() -> Self {
        TraceRecord {
            at: Time::ZERO,
            seq: 0,
            event: TraceEvent::StealRequest {
                thief: 0,
                victim: 0,
            },
        }
    }
}

impl Persist for TraceRecord {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        (&mut self.at, &mut self.seq, &mut self.event).persist(c)
    }
}

/// A bounded, optionally-disabled event trace buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tracer {
    capacity: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
    next_seq: u64,
}

impl Tracer {
    /// A tracer that records nothing (the default for all engines).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer that keeps at most `capacity` records and counts the
    /// overflow as dropped. `capacity == 0` is equivalent to
    /// [`Tracer::disabled`].
    pub fn bounded(capacity: usize) -> Self {
        Tracer {
            capacity,
            ..Tracer::default()
        }
    }

    /// Whether emits will be recorded (or at least counted as dropped).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event at simulated time `at`.
    #[inline]
    pub fn emit(&mut self, at: Time, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(TraceRecord { at, seq, event });
    }

    /// Moves every record of `other` into this tracer, renumbering them to
    /// continue the local sequence. The capacity of `self` still bounds the
    /// total; overflow counts as dropped.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        if self.capacity == 0 {
            self.dropped += other.records.len() as u64;
            return;
        }
        for r in other.records {
            if self.records.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.records.push(TraceRecord { seq, ..r });
        }
    }

    /// Establishes the final deterministic order: stable-sorts by timestamp
    /// (emission order breaks ties) and renumbers `seq` from zero. Engines
    /// call this once before returning a result.
    pub fn finish(&mut self) {
        self.records.sort_by_key(|r| r.at);
        for (i, r) in self.records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        self.next_seq = self.records.len() as u64;
    }

    /// The recorded events.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of events that did not fit in the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace as JSONL: one JSON object per line, trailing
    /// newline after each, deterministic given [`Tracer::finish`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

/// The complete tracer state — capacity, drop count, sequence cursor and
/// every buffered record — so a restored run keeps emitting with the same
/// capacity bound, drop count and sequence numbering as the original.
impl Persist for Tracer {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.capacity.persist(c)?;
        self.records.persist(c)?;
        self.dropped.persist(c)?;
        self.next_seq.persist(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn(unit: u32) -> TraceEvent {
        TraceEvent::Spawn {
            unit,
            ty: 0,
            parent: 0,
            child: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(Time::from_ps(1), spawn(0));
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0, "disabled is free, not dropping");
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let mut t = Tracer::bounded(2);
        for i in 0..5 {
            t.emit(Time::from_ps(i), spawn(0));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn finish_orders_by_time_then_emission() {
        let mut t = Tracer::bounded(8);
        t.emit(Time::from_ps(50), spawn(1));
        t.emit(Time::from_ps(10), spawn(2));
        t.emit(Time::from_ps(10), spawn(3));
        t.finish();
        let units: Vec<u32> = t
            .records()
            .iter()
            .map(|r| match r.event {
                TraceEvent::Spawn { unit, .. } => unit,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(units, [2, 3, 1]);
        assert_eq!(
            t.records().iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn absorb_renumbers_and_respects_capacity() {
        let mut a = Tracer::bounded(3);
        a.emit(Time::from_ps(5), spawn(0));
        let mut b = Tracer::bounded(8);
        b.emit(Time::from_ps(1), spawn(1));
        b.emit(Time::from_ps(2), spawn(2));
        b.emit(Time::from_ps(3), spawn(3));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.dropped(), 1);
        a.finish();
        assert_eq!(a.records()[0].at, Time::from_ps(1));
    }

    #[test]
    fn state_round_trip_is_exact_for_every_kind() {
        let events = [
            TraceEvent::TaskDispatch {
                unit: 1,
                ty: 2,
                task: 3,
            },
            TraceEvent::TaskComplete {
                unit: 1,
                ty: 2,
                busy_ps: 500,
                task: 3,
            },
            spawn(4),
            TraceEvent::StealRequest {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealGrant {
                thief: 1,
                victim: 2,
            },
            TraceEvent::StealFail {
                thief: 1,
                victim: 2,
            },
            TraceEvent::PStoreAlloc {
                tile: 0,
                occupancy: 3,
            },
            TraceEvent::PStoreJoin {
                tile: 0,
                slot: 1,
                task: 9,
                from: 8,
            },
            TraceEvent::PStoreDealloc {
                tile: 0,
                occupancy: 2,
            },
            TraceEvent::CacheHit { port: 0, level: 1 },
            TraceEvent::CacheMiss { port: 0, level: 2 },
            TraceEvent::CacheEvict { port: 0, level: 1 },
            TraceEvent::DramSaturated {
                epoch: 3,
                committed_ps: 99_000,
            },
            TraceEvent::FaultInjected { spec: 0, unit: 1 },
            TraceEvent::FaultRecovered { spec: 0, unit: 1 },
            TraceEvent::FaultUnrecovered { spec: 0, unit: 1 },
            TraceEvent::WatchdogStall {
                unit: 1,
                idle_ps: 77,
            },
            TraceEvent::LinkXfer {
                src_chip: 0,
                dst_chip: 1,
                class: 3,
                wait_ps: 640,
            },
        ];
        let mut t = Tracer::bounded(64);
        for (i, e) in events.iter().enumerate() {
            t.emit(Time::from_ps(i as u64 * 10), *e);
        }
        t.emit(Time::from_ps(1), spawn(0));
        let bytes = crate::persist::save(&mut t);
        let mut back = Tracer::disabled();
        crate::persist::load(&mut back, &bytes).unwrap();
        assert_eq!(back, t);
        // Continued emission behaves identically in both tracers.
        let mut a = t.clone();
        let mut b = back;
        a.emit(Time::from_ps(5), spawn(9));
        b.emit(Time::from_ps(5), spawn(9));
        a.finish();
        b.finish();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn state_decode_errors_name_the_problem() {
        let mut t = Tracer::bounded(4);
        t.emit(Time::from_ps(1), spawn(0));
        let mut bytes = crate::persist::save(&mut t);
        let mut back = Tracer::disabled();
        let cut = crate::persist::load(&mut back, &bytes[..bytes.len() - 1]);
        assert!(cut.is_err(), "truncated");
        // capacity, record count, t_ps, seq, then the event tag.
        bytes[4] = 99;
        let err = crate::persist::load(&mut back, &bytes).unwrap_err();
        assert!(err.to_string().contains("unknown trace event tag"), "{err}");
    }

    #[test]
    fn jsonl_lines_match_schema() {
        let mut t = Tracer::bounded(4);
        t.emit(
            Time::from_ps(100),
            TraceEvent::StealGrant {
                thief: 2,
                victim: 0,
            },
        );
        t.emit(
            Time::from_ps(200),
            TraceEvent::DramSaturated {
                epoch: 3,
                committed_ps: 99_000,
            },
        );
        t.finish();
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_ps\":100,\"seq\":0,\"kind\":\"steal_grant\",\"thief\":2,\"victim\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"t_ps\":200,\"seq\":1,\"kind\":\"dram_saturated\",\"epoch\":3,\"committed_ps\":99000}"
        );
    }
}
