//! Statistics, digests, host attribution and result rendering.

use std::fmt::Write as _;

use pxl_sim::{Fnv64, Metrics};

/// Nearest-rank percentile of `values` (`p` in (0, 100]); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the mean of the two middle values for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fisher-Yates shuffle driven by the workload's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut pxl_sim::XorShift64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_in_range(i as u64 + 1) as usize);
    }
}

/// Fingerprint of one simulated outcome: identity, simulated time and the
/// full metrics registry. Host timings never enter it.
pub fn outcome_digest(label: &str, units: usize, kernel_ps: u64, metrics: &Metrics) -> u64 {
    let mut h = Fnv64::new();
    h.write(label.as_bytes());
    h.write_u64(units as u64);
    h.write_u64(kernel_ps);
    h.write(metrics.to_json().as_bytes());
    h.finish()
}

/// Folds an ordered list of per-run digests into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The deterministic simulated statistics reported beside host timings.
/// They repeat exactly for a given workload and seed, so a speed-only
/// change must leave them identical.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    pub cycles: u64,
    pub tasks: u64,
    pub steal_attempts: u64,
    pub steal_hits: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub dram_lines: u64,
    pub link_msgs: u64,
}

impl SimStats {
    pub fn of(cycles: u64, m: &Metrics) -> SimStats {
        SimStats {
            cycles,
            tasks: m.get("accel.tasks") + m.get("cpu.tasks"),
            steal_attempts: m.get("accel.steal_attempts") + m.get("cpu.steal_attempts"),
            steal_hits: m.get("accel.steal_hits") + m.get("cpu.steal_hits"),
            l1_misses: m.get("mem.l1_misses"),
            l2_misses: m.get("mem.l2_misses"),
            dram_lines: m.get("mem.dram_lines"),
            link_msgs: m.get("link.msgs"),
        }
    }

    pub fn add(&mut self, o: &SimStats) {
        self.cycles += o.cycles;
        self.tasks += o.tasks;
        self.steal_attempts += o.steal_attempts;
        self.steal_hits += o.steal_hits;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.dram_lines += o.dram_lines;
        self.link_msgs += o.link_msgs;
    }

    pub fn report(&self, r: &mut Report) {
        r.put("sim.cycles", self.cycles as f64, "cycles");
        r.put("sim.tasks", self.tasks as f64, "count");
        r.put("arch.steal_attempts", self.steal_attempts as f64, "count");
        r.put("arch.steal_hits", self.steal_hits as f64, "count");
        r.put("mem.l1_misses", self.l1_misses as f64, "count");
        r.put("mem.l2_misses", self.l2_misses as f64, "count");
        r.put("mem.dram_lines", self.dram_lines as f64, "count");
        r.put("link.msgs", self.link_msgs as f64, "count");
    }
}

/// Simulated cycles of a run: simulated time over the engine's own clock.
pub fn cycles(kernel_ps: u64, period_ps: u64) -> u64 {
    kernel_ps / period_ps.max(1)
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{"name":{"value":v,"unit":"u"},...}` over the metrics named in
    /// `names` (all of them when `None`).
    pub fn to_json(&self, names: Option<&[&str]>) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, value, unit) in &self.metrics {
            if names.is_some_and(|ns| !ns.contains(&name.as_str())) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// The revision the benchmark was built from: `git rev-parse HEAD` when
/// the checkout is a git repository, else a digest of the workspace
/// sources (`src-<hex>`), so records from different code never share an id.
/// `GIT_DIR` pins git to the checkout's own `.git`, so a checkout that is
/// not a repository never reports an enclosing directory's revision.
pub fn source_revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    let mut files = Vec::new();
    collect_files(std::path::Path::new("crates"), &mut files);
    files.push(std::path::PathBuf::from("Cargo.toml"));
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    format!("src-{:016x}", h.finish())
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}
