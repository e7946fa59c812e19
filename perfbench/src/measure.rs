//! The measurement loop every workload shares, and the end-to-end metrics
//! computed from its passes.

use std::time::Instant;

use crate::util::{self, Report};

/// The end-to-end measurements of one untimed pass.
#[derive(Debug, Default)]
pub struct PassTimes {
    pub wall_s: f64,
    /// Latency of every job of the pass, in ms.
    pub job_ms: Vec<f64>,
    /// Simulated cycles and the host seconds spent running them.
    pub cycles: u64,
    pub run_s: f64,
}

/// What [`drive`] measured around the passes: every set-up iteration's
/// duration in seconds.
pub struct Driven {
    setups: Vec<f64>,
}

/// Set-up iterations before each pass; only the last one's result feeds
/// the pass. Spreading the iterations over the run keeps `setup_s` from
/// resting on one moment of a host whose speed drifts.
const SETUPS_PER_PASS: usize = 2;
/// Set-up iterations per run at least, so their median is meaningful.
const MIN_SETUPS: usize = 5;

/// Each pass is preceded by [`SETUPS_PER_PASS`] set-up iterations. Passes
/// repeat while one more pass of the mean length so far still fits in
/// `seconds` of pass time (at least one runs), so a run ends near
/// `seconds` whatever its pass length; set-up runs at least
/// [`MIN_SETUPS`] times. Only the set-up call itself is timed, not
/// dropping an unused result.
pub fn drive<T, S>(
    seconds: f64,
    state: &mut T,
    mut setup: impl FnMut(&mut T) -> S,
    mut pass: impl FnMut(&mut T, S),
) -> Driven {
    let mut setups = Vec::new();
    let mut timed_setup = |state: &mut T| {
        let t = Instant::now();
        let prepared = setup(state);
        setups.push(t.elapsed().as_secs_f64());
        prepared
    };
    let mut measured = 0.0;
    let mut passes = 0;
    while passes == 0 || measured + measured / passes as f64 <= seconds {
        for _ in 1..SETUPS_PER_PASS {
            drop(timed_setup(state));
        }
        let prepared = timed_setup(state);
        let t = Instant::now();
        pass(state, prepared);
        measured += t.elapsed().as_secs_f64();
        passes += 1;
    }
    for _ in passes * SETUPS_PER_PASS..MIN_SETUPS {
        drop(timed_setup(state));
    }
    Driven { setups }
}

impl Driven {
    /// Reports the end-to-end metrics of `passes`, one per driven pass:
    /// the median set-up iteration; the mean pass wall and jobs per second
    /// over the whole run's pass time; nearest-rank job-latency percentiles
    /// over every job of the run; and simulated cycles over the host
    /// seconds spent running them.
    ///
    /// The pass wall is a mean, not a median: a run holds only a handful
    /// of passes, and the host's speed swings over tens of seconds, so a
    /// median would rest on the one or two middle passes where the mean
    /// weighs every phase of the run.
    pub fn report(&self, r: &mut Report, passes: &[PassTimes]) {
        r.put("setup_s", util::median(&self.setups), "s");
        let total_s: f64 = passes.iter().map(|t| t.wall_s).sum();
        r.put("wall_s", util::ratio(total_s, passes.len() as f64), "s");
        let job_count = passes.iter().map(|t| t.job_ms.len()).sum::<usize>();
        r.put("jobs_per_s", util::ratio(job_count as f64, total_s), "1/s");
        let jobs: Vec<f64> = passes.iter().flat_map(|t| t.job_ms.clone()).collect();
        r.put("job_p50_ms", util::median(&jobs), "ms");
        r.put("job_p95_ms", util::percentile(&jobs, 95.0), "ms");
        r.put("job_samples", jobs.len() as f64, "count");
        let cycles: u64 = passes.iter().map(|t| t.cycles).sum();
        let run_s: f64 = passes.iter().map(|t| t.run_s).sum();
        r.put("sim_cycles_per_s", util::ratio(cycles as f64, run_s), "1/s");
    }
}
