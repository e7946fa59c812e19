//! Deterministic in-run telemetry: windowed counter deltas and gauges.
//!
//! A [`TelemetrySampler`] snapshots a [`Metrics`] registry at fixed
//! simulated-time epochs. Each epoch boundary produces one
//! [`TelemetrySample`] holding the counter *deltas* accumulated over the
//! window (with an integer events-per-simulated-second rate) plus a set of
//! instantaneous gauges the engine wires in (queue depths, occupancies).
//! End-of-run totals stay in the registry; the sampler is how a run's
//! *evolution* becomes visible.
//!
//! Determinism: sampling is driven purely by simulated time — the engine
//! ticks the sampler from its event loop, so two same-seed runs produce
//! byte-identical [`Timeline::to_jsonl`] output, and rates are computed in
//! integer arithmetic (no float formatting ambiguity). The complete
//! sampler state serializes for snapshot/restore (the same contract as
//! [`crate::trace::Tracer`]), so a checkpointed run's timeline matches an
//! uninterrupted one exactly.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::{Metrics, TelemetrySampler, Time};
//!
//! let mut m = Metrics::new();
//! m.register_counter("accel.tasks");
//! let mut t = TelemetrySampler::new(Time::from_ps(1_000));
//! m.add("accel.tasks", 5);
//! // The engine ticks the sampler whenever simulated time crosses an
//! // epoch boundary.
//! assert!(t.due(Time::from_ps(1_500)));
//! t.tick(Time::from_ps(1_500), &m, &[("ready", 2)]);
//! let timeline = t.take_timeline();
//! assert_eq!(timeline.len(), 1);
//! assert!(timeline.to_jsonl().contains("\"accel.tasks\":[5,"));
//! ```

use std::collections::BTreeMap;

use crate::json;
use crate::metrics::{MetricKind, Metrics};
use crate::persist::{Codec, Persist};
use crate::snapshot::SnapshotError;
use crate::time::Time;

/// One counter's movement over a sample window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// Registry name of the counter.
    pub name: String,
    /// Increase over the window (counters are monotone).
    pub delta: u64,
    /// `delta` scaled to events per simulated second (integer, saturating;
    /// zero for a zero-width window).
    pub rate: u64,
}

/// One windowed snapshot of the registry plus engine gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Simulated time of the window's right edge.
    pub at: Time,
    /// Width of the window (the final flush window may be partial).
    pub window: Time,
    /// Instantaneous gauges in the order the engine wired them.
    pub gauges: Vec<(String, u64)>,
    /// Counters that moved during the window, in registry (name) order.
    pub counters: Vec<CounterDelta>,
}

/// `delta` scaled to events per simulated second, saturating at `u64::MAX`.
/// Zero-width windows rate as 0 (no time passed, no meaningful rate).
pub fn rate_per_sec(delta: u64, window_ps: u64) -> u64 {
    if window_ps == 0 {
        return 0;
    }
    let scaled = delta as u128 * 1_000_000_000_000u128 / window_ps as u128;
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

impl TelemetrySample {
    /// Renders the sample as one JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::write_u64_fields(
            &mut out,
            &[
                ("epoch", self.epoch),
                ("t_ps", self.at.as_ps()),
                ("window_ps", self.window.as_ps()),
            ],
        );
        out.push_str(",\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, &c.name);
            out.push_str(&format!(":[{},{}]", c.delta, c.rate));
        }
        out.push_str("}}");
        out
    }
}

impl Persist for TelemetrySample {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.epoch.persist(c)?;
        self.at.persist(c)?;
        self.window.persist(c)?;
        self.gauges.persist(c)?;
        self.counters.persist(c)
    }
}

impl Persist for CounterDelta {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.name.persist(c)?;
        self.delta.persist(c)?;
        self.rate.persist(c)
    }
}

/// An ordered sequence of [`TelemetrySample`]s — the exported timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    samples: Vec<TelemetrySample>,
}

impl Timeline {
    /// A timeline from already-ordered samples.
    pub fn new(samples: Vec<TelemetrySample>) -> Self {
        Timeline { samples }
    }

    /// The samples in epoch order.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the timeline holds no samples (telemetry off or never due).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the timeline as JSONL: one JSON object per line, trailing
    /// newline after each, byte-deterministic for a deterministic run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

/// Samples a [`Metrics`] registry at fixed simulated-time epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySampler {
    /// Epoch width in simulated time.
    every: Time,
    /// Right edge of the next window (the next boundary to sample at).
    next_at: Time,
    /// Epoch index the next sample will carry.
    epoch: u64,
    /// Left edge of the current window.
    window_start: Time,
    /// Counter values at the previous boundary, for delta computation.
    last: BTreeMap<String, u64>,
    samples: Vec<TelemetrySample>,
}

impl TelemetrySampler {
    /// A sampler that fires every `every` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero (zero means "telemetry off"; engines hold
    /// an `Option<TelemetrySampler>` instead).
    pub fn new(every: Time) -> Self {
        assert!(every > Time::ZERO, "telemetry epoch must be non-zero");
        TelemetrySampler {
            every,
            next_at: every,
            epoch: 0,
            window_start: Time::ZERO,
            last: BTreeMap::new(),
            samples: Vec::new(),
        }
    }

    /// The configured epoch width.
    pub fn every(&self) -> Time {
        self.every
    }

    /// Whether simulated time `now` has reached the next epoch boundary.
    #[inline]
    pub fn due(&self, now: Time) -> bool {
        now >= self.next_at
    }

    /// Samples of the timeline so far.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Records one sample per epoch boundary at or before `now`. Gauges are
    /// the engine's instantaneous state; when `now` skipped several
    /// boundaries, each catch-up sample repeats them (the engine state did
    /// not change in between — no events fired).
    pub fn tick(&mut self, now: Time, metrics: &Metrics, gauges: &[(&str, u64)]) {
        while now >= self.next_at {
            let boundary = self.next_at;
            self.record(boundary, metrics, gauges);
            self.next_at += self.every;
            self.epoch += 1;
        }
    }

    /// Closes the final (possibly partial) window at run end, guaranteeing
    /// at least one sample even for runs shorter than one epoch. A no-op
    /// when a sample already landed at exactly `at`.
    pub fn flush(&mut self, at: Time, metrics: &Metrics, gauges: &[(&str, u64)]) {
        if self.samples.last().is_some_and(|s| s.at == at) {
            return;
        }
        self.record(at, metrics, gauges);
        self.epoch += 1;
    }

    fn record(&mut self, at: Time, metrics: &Metrics, gauges: &[(&str, u64)]) {
        let window = at - self.window_start;
        let mut counters = Vec::new();
        for (name, kind, value, _) in metrics.iter() {
            if kind != MetricKind::Counter {
                continue;
            }
            let prev = self.last.get(name).copied().unwrap_or(0);
            let delta = value.saturating_sub(prev);
            if delta > 0 {
                counters.push(CounterDelta {
                    name: name.to_owned(),
                    delta,
                    rate: rate_per_sec(delta, window.as_ps()),
                });
            }
            if value != prev {
                self.last.insert(name.to_owned(), value);
            }
        }
        self.samples.push(TelemetrySample {
            epoch: self.epoch,
            at,
            window,
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            counters,
        });
        self.window_start = at;
    }

    /// Moves the accumulated samples out as a [`Timeline`] (the sampler
    /// keeps its cursor state but starts an empty buffer).
    pub fn take_timeline(&mut self) -> Timeline {
        Timeline::new(std::mem::take(&mut self.samples))
    }
}

/// The complete sampler state — cursor, last-seen counter values and every
/// buffered sample — so a restored run keeps sampling with the same
/// deltas and epoch numbering as the original. The epoch width comes from
/// the restoring engine's configuration and must match.
impl Persist for TelemetrySampler {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.expect(self.every.as_ps(), "ps telemetry epochs")?;
        self.next_at.persist(c)?;
        self.epoch.persist(c)?;
        self.window_start.persist(c)?;
        self.last.persist(c)?;
        self.samples.persist(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(tasks: u64, steals: u64) -> Metrics {
        let mut m = Metrics::new();
        m.register_counter("accel.tasks");
        m.register_counter("accel.steal_hits");
        m.register_gauge("accel.queue_peak");
        m.add("accel.tasks", tasks);
        m.add("accel.steal_hits", steals);
        m.max("accel.queue_peak", 7);
        m
    }

    #[test]
    fn deltas_and_rates_are_windowed() {
        let mut m = metrics_with(10, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000));
        t.tick(Time::from_ps(1_000), &m, &[("ready", 3)]);
        m.add("accel.tasks", 5);
        t.tick(Time::from_ps(2_000), &m, &[("ready", 1)]);

        let s = t.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].epoch, 0);
        assert_eq!(s[0].window, Time::from_ps(1_000));
        assert_eq!(s[0].counters.len(), 1, "zero deltas are omitted");
        assert_eq!(s[0].counters[0].name, "accel.tasks");
        assert_eq!(s[0].counters[0].delta, 10);
        // 10 events over 1000 ps = 10^10 events per simulated second.
        assert_eq!(s[0].counters[0].rate, 10_000_000_000);
        assert_eq!(s[1].counters[0].delta, 5);
        assert_eq!(s[1].gauges, vec![("ready".to_owned(), 1)]);
    }

    #[test]
    fn gauges_are_not_sampled_as_counters() {
        let m = metrics_with(1, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(100));
        t.tick(Time::from_ps(100), &m, &[]);
        assert!(t.samples()[0]
            .counters
            .iter()
            .all(|c| c.name != "accel.queue_peak"));
    }

    #[test]
    fn skipped_boundaries_catch_up_one_sample_each() {
        let m = metrics_with(4, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000));
        t.tick(Time::from_ps(3_500), &m, &[("ready", 2)]);
        let s = t.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().map(|x| x.epoch).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s[0].counters[0].delta, 4);
        assert!(s[1].counters.is_empty(), "no movement in skipped windows");
        assert!(!t.due(Time::from_ps(3_999)));
        assert!(t.due(Time::from_ps(4_000)));
    }

    #[test]
    fn flush_closes_a_partial_window_exactly_once() {
        let mut m = metrics_with(2, 1);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000));
        t.tick(Time::from_ps(1_000), &m, &[]);
        m.add("accel.tasks", 3);
        t.flush(Time::from_ps(1_250), &m, &[("ready", 0)]);
        t.flush(Time::from_ps(1_250), &m, &[("ready", 0)]);
        let s = t.samples();
        assert_eq!(s.len(), 2, "second flush at the same edge is a no-op");
        assert_eq!(s[1].window, Time::from_ps(250));
        assert_eq!(s[1].counters[0].delta, 3);
    }

    #[test]
    fn flush_guarantees_a_sample_for_short_runs() {
        let m = metrics_with(1, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000_000));
        t.flush(Time::from_ps(42), &m, &[]);
        assert_eq!(t.samples().len(), 1);
        assert_eq!(t.samples()[0].window, Time::from_ps(42));
    }

    #[test]
    fn zero_width_windows_have_zero_rates() {
        let m = metrics_with(9, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000));
        t.flush(Time::ZERO, &m, &[]);
        assert_eq!(t.samples()[0].counters[0].rate, 0);
    }

    #[test]
    fn rates_saturate_instead_of_overflowing() {
        assert_eq!(rate_per_sec(u64::MAX, 1), u64::MAX);
        assert_eq!(rate_per_sec(0, 1), 0);
    }

    #[test]
    fn jsonl_lines_match_schema() {
        let m = metrics_with(10, 0);
        let mut t = TelemetrySampler::new(Time::from_ps(1_000));
        t.tick(Time::from_ps(1_000), &m, &[("events", 4), ("ready", 2)]);
        let line = t.take_timeline().to_jsonl();
        assert_eq!(
            line,
            "{\"epoch\":0,\"t_ps\":1000,\"window_ps\":1000,\
             \"gauges\":{\"events\":4,\"ready\":2},\
             \"counters\":{\"accel.tasks\":[10,10000000000]}}\n"
        );
    }

    #[test]
    fn state_round_trip_is_exact_and_continues_identically() {
        let mut m = metrics_with(6, 2);
        let mut t = TelemetrySampler::new(Time::from_ps(500));
        t.tick(Time::from_ps(1_100), &m, &[("ready", 1)]);
        let bytes = crate::persist::save(&mut t);
        let mut back = TelemetrySampler::new(Time::from_ps(500));
        crate::persist::load(&mut back, &bytes).unwrap();
        assert_eq!(back, t);
        // Continued sampling behaves identically in both samplers.
        m.add("accel.steal_hits", 4);
        let mut a = t.clone();
        let mut b = back;
        a.tick(Time::from_ps(2_000), &m, &[("ready", 0)]);
        b.tick(Time::from_ps(2_000), &m, &[("ready", 0)]);
        assert_eq!(a, b);
        assert_eq!(a.take_timeline().to_jsonl(), b.take_timeline().to_jsonl());
    }

    #[test]
    fn restore_checks_the_epoch_width() {
        let mut t = TelemetrySampler::new(Time::from_ps(500));
        t.tick(Time::from_ps(600), &metrics_with(1, 0), &[]);
        let bytes = crate::persist::save(&mut t);
        let mut wider = TelemetrySampler::new(Time::from_ps(1_000));
        let err = crate::persist::load(&mut wider, &bytes).unwrap_err();
        assert!(err.to_string().contains("telemetry epochs"), "{err}");
    }
}
