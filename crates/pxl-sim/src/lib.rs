//! Discrete-event simulation kernel for the ParallelXL framework.
//!
//! The paper evaluates ParallelXL by embedding a cycle-based RTL simulator
//! (Verilator) inside the event-based gem5 simulator. This crate provides the
//! analogous substrate in Rust: a picosecond-resolution notion of [`Time`],
//! [`Clock`] domains for the multi-clock SoC of the paper's Table III
//! (accelerator logic at 200 MHz, accelerator L1s at 400 MHz, CPU and L2 at
//! 1 GHz), an [`event::EventQueue`] for event-driven components, deterministic
//! random sources ([`rng::XorShift64`] and the 16-bit [`rng::Lfsr16`] used by
//! the task-management unit for victim selection), a typed [`metrics`]
//! registry for the counters, gauges and histograms every component reports,
//! a bounded structured event [`trace`] with deterministic JSONL export, and
//! the symmetric binary [`persist`] codec behind engine [`Snapshot`]s.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::{Clock, Time};
//!
//! let accel = Clock::new("accel", 5_000); // 200 MHz -> 5 ns period
//! let t = accel.cycles_to_time(10);
//! assert_eq!(t, Time::from_ps(50_000));
//! assert_eq!(accel.time_to_cycles(t), 10);
//! ```

pub mod config;
pub mod event;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod qcheck;
pub mod rng;
pub mod snapshot;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use config::{MemoryConfig, PlatformConfig};
pub use event::{EventQueue, EventSlab};
pub use fault::{FaultKind, FaultPlan, FaultScheduler, FaultSpec, NetClass, SendVerdict};
pub use hash::{fnv64, Fnv64};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, MetricKind, Metrics};
pub use persist::{Codec, Persist};
pub use pool::parallel_map;
pub use rng::{Lfsr16, XorShift64};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use telemetry::{rate_per_sec, CounterDelta, TelemetrySample, TelemetrySampler, Timeline};
pub use time::{Clock, Time};
pub use trace::{TraceEvent, TraceRecord, Tracer};
