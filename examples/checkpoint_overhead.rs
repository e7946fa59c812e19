//! Measures the host-side cost of checkpointing: wall-clock overhead and
//! snapshot size for a run that pauses, serializes and restores at every
//! epoch boundary versus the same run uninterrupted.
//!
//! The simulated result is byte-identical by construction (the
//! determinism gate in tests/checkpoint_restore.rs enforces it); what
//! this example quantifies is the *price* of durability — engine state
//! serialization, envelope checksumming, and session rebuild — as a
//! function of the checkpoint epoch. Numbers land in EXPERIMENTS.md,
//! stamped with the printed host/build id. `scripts/verify.sh` runs it as
//! a check: every restored run must equal the uninterrupted one.
//!
//! ```sh
//! cargo run --release --example checkpoint_overhead
//! ```

use std::time::Instant;

use parallelxl::apps::Scale;
use parallelxl::{execute, DesignPoint, PointArch, RunSpec, SessionStatus, SimSession, Snapshot};

fn main() {
    let points = [
        ("flex", DesignPoint::accel(PointArch::Flex, 2, 4)),
        ("lite", DesignPoint::accel(PointArch::Lite, 1, 4)),
        ("cpu", DesignPoint::cpu(4)),
    ];
    println!("host/build: {}", pxl_bench::host_build_id());
    println!();
    println!(
        "| bench | engine | checkpoints | snapshot KB | plain ms | checkpointed ms | ms/checkpoint |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (engine, point) in &points {
        for bench in ["uts", "queens"] {
            let spec = RunSpec::new(bench, Scale::Small, point.clone());
            let t0 = Instant::now();
            let Some(reference) = execute(&spec).expect("spec runs") else {
                continue;
            };
            let plain = t0.elapsed();
            let expected = reference.to_jsonl();

            // Checkpoint every 1/16th of the run, restoring from the
            // serialized envelope each time — the worst case the server
            // can hit (every leg preempted).
            let session = SimSession::start(&spec).unwrap().unwrap();
            let clock = session.clock();
            let total = clock.time_to_cycles(reference.kernel).max(16);
            let epoch = total / 16;
            let t0 = Instant::now();
            let mut session = session;
            let mut boundary = epoch;
            let mut checkpoints = 0u64;
            let mut snapshot_bytes = 0usize;
            let out = loop {
                match session
                    .advance(Some(clock.cycles_to_time(boundary)))
                    .unwrap()
                {
                    SessionStatus::Finished(out) => break out,
                    SessionStatus::Paused { .. } => {
                        let text = session.snapshot().to_json();
                        snapshot_bytes = snapshot_bytes.max(text.len());
                        let snap = Snapshot::from_json(&text).unwrap();
                        session = SimSession::resume(&spec, &snap).unwrap().unwrap();
                        checkpoints += 1;
                        boundary += epoch;
                    }
                }
            };
            let checkpointed = t0.elapsed();
            assert_eq!(out.to_jsonl(), expected, "restore must be invisible");

            // The meaningful cost is per checkpoint (serialize + checksum
            // + rebuild): it amortizes over the epoch, so long runs with
            // sparse epochs see a negligible relative overhead even
            // though a toy run checkpointed 16 times does not.
            let per_checkpoint =
                (checkpointed.saturating_sub(plain)).as_secs_f64() / (checkpoints.max(1) as f64);
            println!(
                "| {bench} | {engine} | {checkpoints} | {:.1} | {:.1} | {:.1} | {:.1} |",
                snapshot_bytes as f64 / 1024.0,
                plain.as_secs_f64() * 1e3,
                checkpointed.as_secs_f64() * 1e3,
                per_checkpoint * 1e3
            );
        }
    }
}
