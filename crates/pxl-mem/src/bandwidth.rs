//! Epoch-bucketed bandwidth metering for shared resources.
//!
//! The simulator executes each task's memory accesses eagerly at dispatch
//! time, so accesses from different PEs reach a shared resource (snoop bus,
//! L2 port, DRAM channel) *out of global time order*. A naive
//! "next-free-time" watermark would let one PE running ahead in local time
//! push the watermark into the future and stall every later-dispatched
//! access behind it — serializing the machine spuriously.
//!
//! [`BandwidthMeter`] instead divides time into fixed epochs and tracks how
//! much service time each epoch has committed. An access landing in a full
//! epoch spills into the next one. Aggregate throughput is limited exactly;
//! arrival order within an epoch does not matter. The approximation is the
//! epoch granularity (default 100 ns), far finer than the phenomena being
//! modelled (DRAM saturation over microseconds).

use std::collections::HashMap;

use pxl_sim::hash::Mix64Build;
use pxl_sim::{Codec, Persist, SnapshotError, Time};

/// A serially-occupied shared resource with epoch-granular accounting.
///
/// # Examples
///
/// ```
/// use pxl_mem::bandwidth::BandwidthMeter;
/// use pxl_sim::Time;
///
/// let mut m = BandwidthMeter::new(1_000); // 1 ns epochs for the example
/// // Fill one epoch with 500 ps twice; the third access spills over.
/// let t0 = m.acquire(Time::ZERO, 500);
/// let t1 = m.acquire(Time::ZERO, 500);
/// let t2 = m.acquire(Time::ZERO, 500);
/// assert_eq!(t0, Time::ZERO);
/// assert!(t1 >= t0 && t2 >= Time::from_ps(1_000));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    epoch_ps: u64,
    used: HashMap<u64, u64, Mix64Build>,
}

impl BandwidthMeter {
    /// Creates a meter with the given epoch length in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ps` is zero.
    pub fn new(epoch_ps: u64) -> Self {
        assert!(epoch_ps > 0, "epoch must be nonzero");
        BandwidthMeter {
            epoch_ps,
            used: HashMap::default(),
        }
    }

    /// A meter with the default 100 ns epoch.
    pub fn default_epoch() -> Self {
        BandwidthMeter::new(100_000)
    }

    /// Reserves `occupancy_ps` of service time at or after `at`, returning
    /// the service start time.
    ///
    /// Occupancies larger than one epoch consume multiple epochs.
    pub fn acquire(&mut self, at: Time, occupancy_ps: u64) -> Time {
        if occupancy_ps == 0 {
            return at;
        }
        let mut epoch = at.as_ps() / self.epoch_ps;
        let mut remaining = occupancy_ps;
        let mut start: Option<Time> = None;
        loop {
            let used = self.used.entry(epoch).or_insert(0);
            if *used >= self.epoch_ps {
                epoch += 1;
                continue;
            }
            if start.is_none() {
                // Service begins in this epoch, after the work already
                // committed here (but never before the request itself).
                let begin = Time::from_ps(epoch * self.epoch_ps + *used).max(at);
                start = Some(begin);
            }
            let take = remaining.min(self.epoch_ps - *used);
            *used += take;
            remaining -= take;
            if remaining == 0 {
                return start.expect("start set on first reservation");
            }
            epoch += 1;
        }
    }

    /// Total committed service time (for tests/stats).
    pub fn total_committed_ps(&self) -> u64 {
        self.used.values().sum()
    }

    /// Epoch length in picoseconds.
    pub fn epoch_ps(&self) -> u64 {
        self.epoch_ps
    }

    /// Epoch index containing `t`.
    pub fn epoch_of(&self, t: Time) -> u64 {
        t.as_ps() / self.epoch_ps
    }
}

/// The committed-usage map as `(epoch, used_ps)` pairs in epoch order.
impl Persist for BandwidthMeter {
    fn persist<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let mut used: Vec<(u64, u64)> = self.used.iter().map(|(e, u)| (*e, *u)).collect();
        used.sort_unstable();
        used.persist(c)?;
        if C::LOADING {
            self.used = used.into_iter().collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_starts_immediately() {
        let mut m = BandwidthMeter::new(100_000);
        assert_eq!(m.acquire(Time::from_ns(5), 500), Time::from_ns(5));
    }

    #[test]
    fn saturation_spills_into_later_epochs() {
        let mut m = BandwidthMeter::new(1_000);
        // Commit 3 epochs' worth of work all at t=0.
        let mut last = Time::ZERO;
        for _ in 0..6 {
            last = m.acquire(Time::ZERO, 500);
        }
        assert!(
            last >= Time::from_ps(2_000),
            "sixth access must start in epoch 2"
        );
        assert_eq!(m.total_committed_ps(), 3_000);
    }

    #[test]
    fn out_of_order_arrivals_do_not_serialize() {
        let mut m = BandwidthMeter::new(100_000);
        // A PE far ahead in local time consumes bandwidth at 1 ms.
        let _ = m.acquire(Time::from_us(1_000), 5_000);
        // Another PE's access at 1 us must NOT be pushed behind it.
        let t = m.acquire(Time::from_us(1), 5_000);
        assert!(t < Time::from_us(2), "early access stalled to {t}");
    }

    #[test]
    fn long_occupancy_spans_epochs() {
        let mut m = BandwidthMeter::new(1_000);
        let start = m.acquire(Time::ZERO, 2_500);
        assert_eq!(start, Time::ZERO);
        assert_eq!(m.total_committed_ps(), 2_500);
        // Epochs 0..2 are now (partially) full.
        let next = m.acquire(Time::ZERO, 1_000);
        assert!(next >= Time::from_ps(2_000));
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = BandwidthMeter::new(1_000);
        for i in 0..10 {
            let _ = a.acquire(Time::from_ps(i * 300), 400);
        }
        let state = pxl_sim::persist::save(&mut a);
        let mut b = BandwidthMeter::new(1_000);
        pxl_sim::persist::load(&mut b, &state).unwrap();
        assert_eq!(b.total_committed_ps(), a.total_committed_ps());
        // Identical future behavior.
        for i in 0..20 {
            assert_eq!(
                a.acquire(Time::from_ps(i * 150), 250),
                b.acquire(Time::from_ps(i * 150), 250)
            );
        }
        assert!(
            pxl_sim::persist::load(&mut b, &[1, 1]).is_err(),
            "half a pair"
        );
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut m = BandwidthMeter::new(1_000);
        assert_eq!(m.acquire(Time::from_ps(123), 0), Time::from_ps(123));
        assert_eq!(m.total_committed_ps(), 0);
    }
}
