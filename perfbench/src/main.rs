//! The repository benchmark: one command per workload that checks every
//! output, then prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a layer-timed run (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-eval --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Standard output is a human-readable metric table, one JSON record
//! stamped with the host, core count and source revision, and — as its
//! last line — the result object `{"correct","attempted","failed",
//! "metrics"}`. The process exits nonzero when any output is wrong. See
//! `METHODS.md` for what each workload and metric measures.

mod layers;
mod measure;
mod paper;
mod serve;
mod traced;
mod util;

use layers::Spans;
use util::Report;

/// End-to-end metrics (`--trace 0`): those every workload reports and
/// none reports as 0. `job_p95_ms`, `jobs_per_s` (jobs over pass time),
/// `peak_rss_mb`, `failed_frac` and the checkpoint round-trip percentiles
/// are printed beside them; see `METHODS.md`.
const END_TO_END: [&str; 4] = ["setup_s", "wall_s", "job_p50_ms", "sim_cycles_per_s"];

/// Per-layer metrics (`--trace 1`) with their units. A workload that does
/// not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 43] = [
    ("model.worker_self_s", "s"),
    ("mem.timed_s", "s"),
    ("mem.timed_calls", "count"),
    ("mem.ns_per_call", "ns"),
    ("arch.loop_self_s", "s"),
    ("cpu.loop_self_s", "s"),
    ("arch.taskmgmt_s", "s"),
    ("arch.taskmgmt_calls", "count"),
    ("arch.lite_driver_s", "s"),
    ("apps.setup_s", "s"),
    ("apps.check_s", "s"),
    ("flow.build_s", "s"),
    ("flow.advance_s", "s"),
    ("flow.resume_ms", "ms"),
    ("sim.snapshot_capture_ms", "ms"),
    ("sim.snapshot_encode_ms", "ms"),
    ("sim.snapshot_decode_ms", "ms"),
    ("sim.snapshot_kb", "KiB"),
    ("ckpt_roundtrip_p50_ms", "ms"),
    ("ckpt_roundtrip_p95_ms", "ms"),
    ("sim.trace_events", "count"),
    ("sim.trace_render_ms", "ms"),
    ("sim.timeline_render_ms", "ms"),
    ("profile.parse_ms", "ms"),
    ("profile.analyze_ms", "ms"),
    ("profile.perfetto_ms", "ms"),
    ("profile.report_ms", "ms"),
    ("serve.ack_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.beat_gap_ms", "ms"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.preemptions", "count"),
    ("serve.resumed_legs", "count"),
    ("bench.timer_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
    ("sim.cycles", "cycles"),
    ("sim.tasks", "count"),
    ("arch.steal_attempts", "count"),
    ("arch.steal_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.dram_lines", "count"),
    ("link.msgs", "count"),
];

/// A layer-timed run fails when more than this share of its measured time
/// falls outside every timed call: the layer metrics would no longer
/// account for where the time went.
pub const UNATTRIBUTED_MAX: f64 = 0.05;

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Spans of the layer-timed passes (empty in untimed runs).
    pub spans: Spans,
    /// Digest of every simulated outcome of the workload (host timings
    /// excluded); the untimed and layer-timed passes must agree on it.
    pub digest: u64,
}

impl Outcome {
    /// Records one failed or wrong operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// Fails the run unless every pass reproduced the first pass's digest
    /// of simulated outcomes, and records that digest.
    pub fn check_digests(&mut self, digests: &[u64]) {
        let Some(&first) = digests.first() else {
            return self.fail("no pass ran".to_owned());
        };
        self.digest = first;
        for (i, &d) in digests.iter().enumerate() {
            if d != first {
                self.fail(format!("pass {i}: simulated-outcome digest differs"));
            }
        }
    }

    /// Reports the layer-timed run's own cost: `bench.timer_overhead_frac`
    /// (median layer-timed pass wall over median untimed pass wall, − 1)
    /// and `bench.unattributed_frac` (the share of the layer-timed jobs'
    /// time, `total_ns`, that no timed call covers), failing the run when
    /// the latter exceeds [`UNATTRIBUTED_MAX`].
    pub fn check_layer_timing(
        &mut self,
        untimed_walls: &[f64],
        timed_walls: &[f64],
        covered_ns: f64,
        total_ns: f64,
    ) {
        self.report.put(
            "bench.timer_overhead_frac",
            util::median(timed_walls) / util::median(untimed_walls) - 1.0,
            "frac",
        );
        let unattributed = 1.0 - util::ratio(covered_ns, total_ns);
        self.report
            .put("bench.unattributed_frac", unattributed, "frac");
        if unattributed > UNATTRIBUTED_MAX {
            self.fail(format!(
                "bench.unattributed_frac {unattributed:.4} exceeds {UNATTRIBUTED_MAX}"
            ));
        }
    }

    /// Median and 95th percentile of a latency sample, in ms.
    pub fn put_latencies(&mut self, prefix: &str, ms: &[f64]) {
        self.report
            .put(&format!("{prefix}_p50_ms"), util::median(ms), "ms");
        self.report.put(
            &format!("{prefix}_p95_ms"),
            util::percentile(ms, 95.0),
            "ms",
        );
        self.report
            .put(&format!("{prefix}_samples"), ms.len() as f64, "count");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-eval|serve-ckpt|traced-resume> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut o = match args.workload.as_str() {
        "paper-eval" => paper::run(args.seconds, args.trace),
        "serve-ckpt" => serve::run(args.seed, args.seconds, args.trace),
        "traced-resume" => traced::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    o.report.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    o.report.put(
        "failed_frac",
        util::ratio(o.failed as f64, o.attempted as f64),
        "frac",
    );
    if o.attempted == 0 {
        o.fail("no operation was attempted".to_owned());
    }
    for e in &o.errors {
        eprintln!("perfbench: FAILED {e}");
    }

    let names: Vec<&str> = if args.trace {
        for (name, unit) in PER_LAYER {
            if o.report.get(name).is_none() {
                o.report.put(name, 0.0, unit);
            }
        }
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    for (name, value, unit) in &o.report.metrics {
        println!("{:<28} {value:>18} {unit}", format!("{}:", name));
    }
    println!(
        "{{\"record\":\"perfbench\",\"host\":\"{}\",\"nproc\":{},\"revision\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"digest\":\"{:016x}\",\
         \"metrics\":{}}}",
        pxl_bench::host_build_id(),
        pxl_sim::pool::available_workers(),
        util::source_revision(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.digest,
        o.report.to_json(None),
    );
    if !o.spans.is_empty() {
        let path = std::path::Path::new("perfbench/.work")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all("perfbench/.work")
            .and_then(|()| std::fs::write(&path, o.spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: wrote spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let correct = o.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.attempted,
        o.failed,
        o.report.to_json(Some(&names)),
    );
    if !correct {
        std::process::exit(1);
    }
}
