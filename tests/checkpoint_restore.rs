//! Checkpoint/restore determinism gate: pausing a simulation at *any*
//! cycle boundary, serializing the engine through the versioned snapshot
//! envelope, and resuming in a fresh session must be invisible — the
//! restored run's results, metrics, trace and telemetry timeline are
//! byte-identical to an uninterrupted run of the same spec. Driven by the
//! vendored `pxl_sim::qcheck` harness over random benchmarks, scales,
//! engines, fault plans, telemetry epochs and checkpoint epochs. The
//! envelope and the binary decoder must also turn any corruption into a
//! typed error rather than a panic.

use parallelxl::apps::Scale;
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::{
    execute, ClusterPoint, DesignPoint, FaultPlan, PointArch, RunSpec, SessionStatus, SimSession,
    SimulationBuilder, Snapshot, SnapshotError, Time, SNAPSHOT_VERSION,
};

/// A random design point: any of the engines at small shapes, including
/// multi-chip clusters (hierarchical and flat stealing) whose snapshots
/// must carry the inter-chip link's in-flight serialization state.
fn random_point(g: &mut Gen) -> DesignPoint {
    match g.range(0, 5) {
        0 => DesignPoint::accel(PointArch::Flex, g.usize_in(1, 2), g.usize_in(2, 4)),
        1 => DesignPoint::accel(PointArch::Central, 1, g.usize_in(2, 4)),
        2 => DesignPoint::accel(PointArch::Lite, 1, g.usize_in(2, 4)),
        3 => {
            // A 2-chip cluster: chips must divide tiles, so 2 or 4 tiles.
            let tiles = 2 * g.usize_in(1, 2);
            let mut cluster = ClusterPoint::new(2).with_link(g.range(4, 64), g.range(1, 16));
            if g.bool() {
                cluster = cluster.flat();
            }
            DesignPoint::accel(PointArch::Flex, tiles, g.usize_in(2, 4)).clustered(cluster)
        }
        _ => DesignPoint::cpu(g.usize_in(1, 4)),
    }
}

/// A random fault plan valid for `point` (accelerator engines only —
/// seeded, so the plan is part of the deterministic run identity).
fn random_faults(g: &mut Gen, point: &DesignPoint) -> Option<FaultPlan> {
    let accel = point.accel_config()?;
    if !matches!(point.arch, PointArch::Flex | PointArch::Central) || g.bool() {
        return None;
    }
    let pes = accel.tiles * accel.pes_per_tile;
    let pe = g.usize_in(0, pes - 1);
    let at = Time::from_ns(g.range(100, 2_000));
    let plan = FaultPlan::new(g.u64());
    Some(if g.bool() {
        plan.kill_pe(pe, at)
    } else {
        plan.stall_pe(pe, at, g.range(10, 500))
    })
}

#[test]
fn any_checkpoint_epoch_restores_byte_identically() {
    check(10, "pause/snapshot/restore is invisible", |g: &mut Gen| {
        let bench = *g.pick(&["uts", "queens", "nw"]);
        let scale = if g.ratio(1, 8) {
            Scale::Small
        } else {
            Scale::Tiny
        };
        let point = random_point(g);
        let mut spec = RunSpec::new(bench, scale, point.clone()).with_trace(1 << 10);
        if let Some(plan) = random_faults(g, &point) {
            spec = spec.with_faults(plan);
        }
        // Half the runs also sample telemetry: the sampler state rides in
        // the snapshot, so a restored run's timeline must match too.
        if g.bool() {
            spec = spec.with_telemetry(g.range(100, 5_000));
        }

        // The uninterrupted run is the reference; a bench without a
        // variant for this engine is a skip, not a failure.
        let Some(reference) = execute(&spec).unwrap() else {
            return;
        };
        let expected = reference.to_jsonl();
        let expected_timeline = reference.timeline.to_jsonl();

        let mut session = SimSession::start(&spec).unwrap().expect("variant exists");
        let clock = session.clock();
        let total = clock.time_to_cycles(reference.kernel).max(2);
        // Any epoch, including ones past the end (degenerate: the run
        // finishes before its first checkpoint boundary).
        let epoch = g.range(1, total + total / 4 + 2);

        match session.advance(Some(clock.cycles_to_time(epoch))).unwrap() {
            SessionStatus::Finished(out) => {
                assert_eq!(
                    out.to_jsonl(),
                    expected,
                    "{spec:?}: epoch {epoch} past the end must not change the run"
                );
                assert_eq!(
                    out.timeline.to_jsonl(),
                    expected_timeline,
                    "{spec:?}: epoch {epoch} past the end must not change the timeline"
                );
            }
            SessionStatus::Paused { .. } => {
                // Round-trip the envelope exactly as a checkpoint file
                // would, then finish in a brand-new session.
                let text = session.snapshot().to_json();
                let snap = Snapshot::from_json(&text).unwrap();
                let mut restored = SimSession::resume(&spec, &snap).unwrap().unwrap();
                let out = restored.finish().unwrap();
                assert_eq!(
                    out.to_jsonl(),
                    expected,
                    "{spec:?}: restore at cycle {epoch} of ~{total} must be invisible"
                );
                assert_eq!(
                    out.timeline.to_jsonl(),
                    expected_timeline,
                    "{spec:?}: restore at cycle {epoch} must preserve the telemetry timeline"
                );
            }
        }
    });
}

/// A snapshot from the current engine, as serialized text.
fn sample_snapshot() -> String {
    let spec = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 2),
    );
    SimSession::start(&spec)
        .unwrap()
        .unwrap()
        .snapshot()
        .to_json()
}

#[test]
fn foreign_snapshot_versions_are_rejected() {
    let good = sample_snapshot();
    assert!(Snapshot::from_json(&good).is_ok());
    let needle = format!("\"snapshot_version\":{SNAPSHOT_VERSION}");
    assert!(
        good.contains(&needle),
        "envelope must lead with its version"
    );
    let tampered = good.replace(&needle, "\"snapshot_version\":999");
    match Snapshot::from_json(&tampered) {
        Err(SnapshotError::VersionMismatch { found }) => assert_eq!(found, 999),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn corrupted_snapshot_payloads_are_rejected() {
    // A hand-built envelope keeps the corruption surgical: the payload
    // bytes change, the claimed checksum goes stale.
    let good = Snapshot::new("flex", vec![41]).to_json();
    assert!(Snapshot::from_json(&good).is_ok());
    // base64([41]) = "KQ==", base64([42]) = "Kg==".
    let corrupted = good.replace("\"payload\":\"KQ==\"", "\"payload\":\"Kg==\"");
    assert_ne!(good, corrupted, "corruption must have happened");
    match Snapshot::from_json(&corrupted) {
        Err(SnapshotError::ChecksumMismatch { claimed, actual }) => {
            assert_ne!(claimed, actual);
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    // Structurally broken envelopes are malformed, not a crash.
    assert!(matches!(
        Snapshot::from_json(&format!("{{\"snapshot_version\":{SNAPSHOT_VERSION}}}")),
        Err(SnapshotError::Malformed(_))
    ));
    // An envelope of the retired JSON-payload format is a typed version
    // mismatch, which checkpoint consumers treat as "start over".
    assert_eq!(
        Snapshot::from_json("{\"snapshot_version\":1}"),
        Err(SnapshotError::VersionMismatch { found: 1 })
    );
}

/// Restores `snap` into a freshly built engine for `spec`, which must not
/// panic whatever the bytes say.
fn restore_fresh(spec: &RunSpec, snap: &Snapshot) -> Result<(), SnapshotError> {
    let mut engine = SimulationBuilder::from_run_spec(spec)
        .unwrap()
        .build()
        .unwrap();
    engine.restore(snap)
}

#[test]
fn hostile_snapshots_give_typed_errors_never_panics() {
    for point in [
        DesignPoint::accel(PointArch::Flex, 1, 2),
        DesignPoint::accel(PointArch::Lite, 1, 2),
        DesignPoint::accel(PointArch::Central, 1, 2),
        DesignPoint::cpu(2),
    ] {
        let spec = RunSpec::new("uts", Scale::Tiny, point)
            .with_trace(64)
            .with_telemetry(500);
        let mut session = SimSession::start(&spec).unwrap().unwrap();
        let reference = execute(&spec).unwrap().unwrap();
        let half = Time::from_ps(reference.kernel.as_ps() / 2);
        assert!(
            matches!(
                session.advance(Some(half)),
                Ok(SessionStatus::Paused { .. })
            ),
            "{spec:?} must pause mid-run"
        );
        let snap = session.snapshot();
        let label = snap.engine.clone();
        restore_fresh(&spec, &snap).unwrap();

        // Every truncation of the payload bytes.
        for cut in 0..snap.bytes.len() {
            let short = Snapshot::new(label.clone(), snap.bytes[..cut].to_vec());
            assert!(
                restore_fresh(&spec, &short).is_err(),
                "{label}: a payload cut at byte {cut} must not restore"
            );
        }
        // One flipped bit at every byte offset, resealed (a fresh
        // `Snapshot` checksums its bytes when sealed) so the decoder itself
        // meets the damage. Ok or Err are both acceptable; a panic fails.
        for at in 0..snap.bytes.len() {
            let mut bytes = snap.bytes.clone();
            bytes[at] ^= 1 << (at % 8);
            let _ = restore_fresh(&spec, &Snapshot::new(label.clone(), bytes));
        }
        // A u64::MAX varint written over every offset. Wherever it lands
        // on a length prefix, the prefix exceeds the bytes left and must be
        // refused before anything is allocated; an attempted allocation
        // would abort the test process rather than fail it.
        const HUGE: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        for at in 0..snap.bytes.len().saturating_sub(HUGE.len()) {
            let mut bytes = snap.bytes.clone();
            bytes[at..at + HUGE.len()].copy_from_slice(&HUGE);
            let _ = restore_fresh(&spec, &Snapshot::new(label.clone(), bytes));
        }

        // Envelope text damage: truncation and one flipped bit per byte,
        // at every offset of the header and at a stride through the base64
        // payload (which the checksum covers byte for byte).
        let text = snap.to_json();
        let header = text.find("\"payload\"").unwrap() + 11;
        let offsets = (0..header).chain((header..text.len()).step_by(61));
        for at in offsets {
            assert!(Snapshot::from_json(&text[..at]).is_err());
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 1 << (at % 7);
            let Ok(damaged) = String::from_utf8(bytes) else {
                continue;
            };
            if let Ok(snap) = Snapshot::from_json(&damaged) {
                // Only damage outside the checksummed bytes survives (the
                // engine label); restoring it is still safe.
                let _ = restore_fresh(&spec, &snap);
            }
        }
    }
}
