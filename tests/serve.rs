//! Wire-protocol and service-contract tests for simulation-as-a-service:
//! property-based round-trips of [`RunSpec`] and [`JobEvent`] (driven by
//! the vendored `pxl_sim::qcheck` harness), typed rejection of malformed
//! requests over a real socket, and the end-to-end determinism guarantee —
//! the same spec submitted twice returns byte-identical payloads, the
//! second from the content-addressed cache.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use parallelxl::benchmarks::Scale;
use parallelxl::serve::protocol::MAX_REQUEST_LINE_BYTES;
use parallelxl::serve::{
    measurement_to_json_value, Client, ErrorCode, JobEvent, JobId, JobKind, Request, Server,
    ServerConfig,
};
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::sim::{FaultPlan, NetClass, Time};
use parallelxl::{DesignPoint, ExecProfile, PointArch, RunSpec};

fn arb_point(g: &mut Gen) -> DesignPoint {
    if g.ratio(1, 4) {
        return DesignPoint::cpu(g.usize_in(1, 16));
    }
    let arch = *g.pick(&[PointArch::Flex, PointArch::Central, PointArch::Lite]);
    DesignPoint {
        arch,
        tiles: g.usize_in(1, 8),
        pes_per_tile: g.usize_in(1, 16),
        cache_kb: g.usize_in(1, 64),
        task_queue_entries: g.usize_in(1, 4096),
        pstore_entries: g.usize_in(1, 16384),
        cluster: None,
    }
}

fn arb_faults(g: &mut Gen) -> FaultPlan {
    let mut plan = FaultPlan::new(g.u64());
    for _ in 0..g.usize_in(1, 4) {
        let at = Time::from_ps(g.range(1, 1_000_000_000));
        plan = match g.range(0, 5) {
            0 => plan.kill_pe(g.usize_in(0, 15), at),
            1 => plan.stall_pe(g.usize_in(0, 15), at, g.range(1, 100_000)),
            2 => {
                let net = *g.pick(&[NetClass::Task, NetClass::Arg]);
                plan.drop_messages(
                    net,
                    at,
                    at + Time::from_ps(g.range(1, 1_000_000)),
                    g.range(1, 1000) as u16,
                    g.range(0, 100) as u32,
                )
            }
            3 => {
                let net = *g.pick(&[NetClass::Task, NetClass::Arg]);
                plan.duplicate_messages(
                    net,
                    at,
                    at + Time::from_ps(g.range(1, 1_000_000)),
                    g.range(1, 1000) as u16,
                    g.range(0, 100) as u32,
                )
            }
            _ => plan.corrupt_pstore(g.usize_in(0, 7), at, g.u64()),
        };
    }
    plan
}

fn arb_spec(g: &mut Gen) -> RunSpec {
    let bench = *g.pick(&["uts", "queens", "cilksort", "bfsqueue", "made-up"]);
    let scale = *g.pick(&[Scale::Tiny, Scale::Small, Scale::Paper]);
    let mut spec = RunSpec::new(bench, scale, arb_point(g));
    if g.bool() {
        spec = spec.with_trace(g.usize_in(1, 1 << 20));
    }
    if g.ratio(1, 3) {
        // Strictly positive, non-round floats so exact f64 round-tripping
        // is actually exercised.
        spec = spec.with_profile(ExecProfile::new(
            g.range(1, 1_000_000) as f64 / 997.0,
            g.range(1, 1_000_000) as f64 / 131.0,
        ));
    }
    if g.ratio(1, 3) {
        spec = spec.with_faults(arb_faults(g));
    }
    spec
}

/// Any spec survives JSON exactly: parse(render(s)) == s, re-rendering is
/// byte-identical, and the canonical identity is stable across the trip.
#[test]
fn run_specs_round_trip_exactly() {
    check(128, "RunSpec JSON round-trip", |g: &mut Gen| {
        let spec = arb_spec(g);
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "re-render must be byte-identical");
        assert_eq!(back.canonical(), spec.canonical());
    });
}

fn arb_event(g: &mut Gen) -> JobEvent {
    let job = JobId(g.u64());
    let result = parallelxl::dse::Measurement {
        kernel_ps: g.u64(),
        whole_ps: g.u64(),
        energy_j: g.range(1, u64::MAX) as f64 / 1.7e18,
        lut: g.range(0, 1 << 20),
        bram18: g.range(0, 1 << 10),
    };
    match g.range(0, 12) {
        0 => JobEvent::Accepted {
            job,
            tenant: format!("tenant-{}", g.range(0, 100)),
            key: format!("{:016x}", g.u64()),
        },
        1 => JobEvent::Queued {
            job,
            position: g.range(0, 1000),
        },
        2 => JobEvent::Running { job },
        3 => JobEvent::Metrics {
            job,
            kernel_ps: g.u64(),
            steal_attempts: g.u64(),
            dram_bytes: g.u64(),
            trace_events: g.u64(),
        },
        4 => JobEvent::Done {
            job,
            cached: g.bool(),
            result,
            trace_events: g.bool().then(|| g.u64()),
            resumed_from_cycle: g.bool().then(|| g.u64()),
        },
        5 => JobEvent::Failed {
            job,
            error: format!("uts on flex/{}u failed: watchdog", g.range(1, 64)),
        },
        6 => JobEvent::Error {
            code: *g.pick(&[
                ErrorCode::BadJson,
                ErrorCode::BadRequest,
                ErrorCode::UnknownOp,
                ErrorCode::BadSpec,
                ErrorCode::QuotaExceeded,
                ErrorCode::Draining,
            ]),
            message: format!("case {}", g.u64()),
        },
        7 => JobEvent::Status {
            queued: g.range(0, 1000),
            running: g.range(0, 64),
            completed: g.u64(),
            failed: g.u64(),
            paused: g.bool(),
            draining: g.bool(),
        },
        8 => JobEvent::Preempted {
            job,
            cycle: g.u64(),
        },
        9 => JobEvent::Stats {
            tenants: (0..g.usize_in(0, 3))
                .map(|i| (format!("tenant-{i}"), g.range(0, 100)))
                .collect(),
            queued: g.range(0, 1000),
            running: g.range(0, 64),
            completed: g.u64(),
            failed: g.u64(),
            recovered: g.u64(),
            resumed: g.u64(),
            preempted: g.u64(),
            journal_torn: g.u64(),
            journal: g.bool(),
            paused: g.bool(),
            draining: g.bool(),
        },
        10 => JobEvent::Progress {
            job,
            cycle: g.u64(),
            tasks: g.u64(),
            tasks_per_sec: g.u64(),
        },
        _ => JobEvent::Drained { completed: g.u64() },
    }
}

/// Any event survives the wire exactly, including `u64::MAX` counters and
/// awkward `f64` energies.
#[test]
fn job_events_round_trip_exactly() {
    check(256, "JobEvent JSON round-trip", |g: &mut Gen| {
        let event = arb_event(g);
        let line = event.to_json();
        let back = JobEvent::from_json(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        assert_eq!(back, event);
        assert_eq!(back.to_json(), line, "re-render must be byte-identical");
    });
}

/// Malformed lines sent over a real socket come back as typed `error`
/// events with the documented codes — the server never disconnects or
/// crashes on garbage.
#[test]
fn malformed_requests_are_rejected_with_typed_codes() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let cases = [
        ("{\"op\":", ErrorCode::BadJson),
        ("42", ErrorCode::BadRequest),
        ("{\"op\":\"emit\"}", ErrorCode::UnknownOp),
        ("{\"op\":\"submit\",\"kind\":\"sim\"}", ErrorCode::BadRequest),
        (
            "{\"op\":\"submit\",\"tenant\":\"t\",\"kind\":\"sim\",\"spec\":{\"benchmark\":\"uts\"}}",
            ErrorCode::BadSpec,
        ),
    ];
    for (line, expected) in cases {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match JobEvent::from_json(reply.trim_end()).unwrap() {
            JobEvent::Error { code, message } => {
                assert_eq!(code, expected, "{line} → {code:?}: {message}");
                assert!(!message.is_empty());
                if code == ErrorCode::UnknownOp {
                    assert!(
                        message.contains("\"emit\""),
                        "an unknown-op rejection must name the op: {message:?}"
                    );
                }
            }
            other => panic!("{line}: expected a typed error, got {other:?}"),
        }
    }
    // The connection is still healthy after all that garbage.
    writeln!(writer, "{}", Request::Status.to_json()).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(matches!(
        JobEvent::from_json(reply.trim_end()).unwrap(),
        JobEvent::Status {
            queued: 0,
            running: 0,
            ..
        }
    ));
    let mut client = Client::connect(server.addr()).unwrap();
    client.drain().unwrap();
    server.join();
}

/// A request line past the server's cap is answered with a typed
/// `bad_request` naming the cap and the connection is closed, while
/// another client of the same server is served as usual.
#[test]
fn over_long_request_lines_are_refused_without_collateral_damage() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let line = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1];
    // The server may close before the whole line is read; what matters is
    // the reply it sends first.
    let _ = writer.write_all(&line).and_then(|()| writer.flush());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match JobEvent::from_json(reply.trim_end()).unwrap() {
        JobEvent::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains(&MAX_REQUEST_LINE_BYTES.to_string()),
                "the refusal must name the cap: {message:?}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection must be closed after the refusal"
    );
    let mut other = Client::connect(server.addr()).unwrap();
    assert_eq!(other.status().unwrap().queued, 0);
    let mut client = Client::connect(server.addr()).unwrap();
    client.drain().unwrap();
    server.join();
}

/// The determinism contract end to end: submitting the same spec twice
/// yields byte-identical `done` payloads, and the second is a pure
/// content-addressed cache hit.
#[test]
fn same_spec_twice_is_deterministic_and_cached() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = RunSpec::new(
        "queens",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let (j1, key1) = client.submit_with_key("ci", JobKind::Dse, &spec).unwrap();
    let first = client.wait(j1).unwrap();
    let (j2, key2) = client.submit_with_key("ci", JobKind::Dse, &spec).unwrap();
    let second = client.wait(j2).unwrap();
    assert_eq!(key1, key2, "identical specs must share a content address");
    let (
        JobEvent::Done {
            cached: c1,
            result: r1,
            ..
        },
        JobEvent::Done {
            cached: c2,
            result: r2,
            ..
        },
    ) = (&first, &second)
    else {
        panic!("expected done events, got {first:?} / {second:?}");
    };
    assert!(!*c1, "first submission must simulate");
    assert!(*c2, "second submission must be a cache hit");
    assert_eq!(
        measurement_to_json_value(r1).to_json(),
        measurement_to_json_value(r2).to_json(),
        "payloads must be byte-identical"
    );
    client.drain().unwrap();
    let summary = server.join();
    assert_eq!(summary.cache_hits, 1);
    assert_eq!(summary.cache_misses, 1);
}

/// The `stats` op over a real socket: the reply is byte-stable (two asks
/// against unchanged state are identical lines), and the typed
/// `Client::stats()` reflects completed work and per-tenant depths.
#[test]
fn stats_round_trips_over_a_socket_and_is_byte_stable() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut lines = Vec::new();
    for _ in 0..2 {
        writeln!(writer, "{}", Request::Stats.to_json()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        lines.push(reply.trim_end().to_owned());
    }
    assert_eq!(
        lines[0], lines[1],
        "unchanged state must render identically"
    );
    match JobEvent::from_json(&lines[0]).unwrap() {
        JobEvent::Stats {
            tenants,
            queued,
            running,
            completed,
            journal,
            ..
        } => {
            assert!(tenants.is_empty(), "no tenant has submitted yet");
            assert_eq!((queued, running, completed), (0, 0, 0));
            assert!(!journal, "no journal was configured");
        }
        other => panic!("expected a stats event, got {other:?}"),
    }

    // The typed client sees finished work and the (drained) tenant.
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = RunSpec::new(
        "queens",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 4),
    );
    let job = client.submit("carol", JobKind::Sim, &spec).unwrap();
    match client.wait(job).unwrap() {
        JobEvent::Done { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.tenants, vec![("carol".to_owned(), 0)]);
    assert!(!stats.journal);
    client.drain().unwrap();
    server.join();
}

/// A checkpointed job reports `progress` at every epoch boundary: cycles
/// are ascending epoch multiples and the task count never goes backwards.
#[test]
fn checkpointed_jobs_report_progress_beats() {
    let base = RunSpec::new(
        "uts",
        Scale::Tiny,
        DesignPoint::accel(PointArch::Flex, 1, 2),
    );
    let reference = parallelxl::flow::execute(&base).unwrap().unwrap();
    let session = parallelxl::flow::SimSession::start(&base).unwrap().unwrap();
    let epoch = session
        .clock()
        .time_to_cycles(Time::from_ps(reference.kernel.as_ps() / 4))
        .max(1);

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit("ci", JobKind::Sim, &base.with_checkpoint(epoch))
        .unwrap();
    let mut beats: Vec<parallelxl::serve::Progress> = Vec::new();
    let terminal = client.wait_with_progress(job, |p| beats.push(p)).unwrap();
    match terminal {
        JobEvent::Done { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        !beats.is_empty(),
        "an epoch of {epoch} cycles must yield at least one boundary"
    );
    for pair in beats.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "cycles must ascend");
        assert!(pair[0].tasks <= pair[1].tasks, "tasks must not regress");
    }
    for p in &beats {
        assert_eq!(p.job, job);
        assert_eq!(p.cycle % epoch, 0, "beats land on epoch boundaries");
    }
    client.drain().unwrap();
    server.join();
}
