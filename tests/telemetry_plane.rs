//! End-to-end exercises of the telemetry plane: the admin endpoint
//! answering with *live* engine state, trace ids surviving the full
//! TCP → queue → worker → snapshot path, and the flight recorder turning
//! panics and audit violations into postmortem artifacts.
//!
//! Everything here talks to real sockets on ephemeral ports and parses
//! the scraped payloads with the same serde shim CI tooling uses, so a
//! drift in the exposition formats fails here before any dashboard
//! notices.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use gsm::core::Engine;
use gsm::dsms::{EngineBuilder, StreamEngine};
use gsm::obs::{EngineEvent, Recorder, SloSpec, TraceCtx};
use gsm::serve::{AdminServer, AdminSources, QueryServer, Reply, Request, ServeConfig, TcpFront};
use gsm::verify::{record_violations, verify_family, Family, StreamSpec, VerifyConfig};
use serde::{json, obj_get, Value};

/// Minimal HTTP/1.0 GET, returning (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

/// An ingesting engine wired for serving: two shards (so per-shard series
/// exist), a shared recorder, and a published first snapshot.
fn serving_stack(rec: &Recorder) -> (StreamEngine, usize, QueryServer) {
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(20_000)
        .shards(2)
        .publish_every(4)
        .recorder(rec.clone())
        .build()
        .expect("valid configuration");
    let q = eng.register_quantile(0.02);
    let _f = eng.register_frequency(0.005);
    let registry = eng.serve();
    let stream: Vec<f32> = (0..10_000u32).map(|i| (i % 4096) as f32).collect();
    eng.push_batch(&stream);
    eng.flush();
    eng.publish_now();
    let server = QueryServer::with_recorder(registry, ServeConfig::default(), rec.clone());
    (eng, q.index(), server)
}

fn number_field(v: &Value, key: &str) -> f64 {
    match obj_get(v, key).unwrap_or_else(|_| panic!("status field `{key}` missing")) {
        Value::Num(lexeme) => lexeme.parse().expect("numeric field"),
        other => panic!("field `{key}` is not a number: {other:?}"),
    }
}

#[test]
fn admin_endpoint_reports_live_engine_state() {
    let rec = Recorder::enabled();
    let (mut eng, q, server) = serving_stack(&rec);
    let admin = AdminServer::bind(
        "127.0.0.1:0",
        AdminSources {
            recorder: rec.clone(),
            registry: Some(Arc::clone(server.registry())),
            client: Some(server.client()),
            shards: 2,
            slos: vec![SloSpec {
                name: "serve_quantile_p99",
                metric: "serve_latency",
                label: Some(("kind", "quantile")),
                p50_ns: None,
                p99_ns: 50_000_000,
            }],
        },
    )
    .expect("bind admin endpoint");
    let addr = admin.local_addr();

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert_eq!(body, "ok\n");

    // The status document is valid JSON and reflects the live registry.
    let (_, before) = http_get(addr, "/status");
    let doc = json::parse(&before).expect("/status parses as JSON");
    let epoch_before = number_field(&doc, "epoch");
    assert!(epoch_before >= 1.0, "serve() publishes an initial snapshot");
    assert_eq!(number_field(&doc, "shards"), 2.0);

    // Publishing advances the epoch the endpoint reports — live, not a
    // snapshot taken at bind time.
    let stream: Vec<f32> = (0..5_000u32).map(|i| i as f32).collect();
    eng.push_batch(&stream);
    eng.flush();
    eng.publish_now();
    // Serving a query moves the queue gauges (every admission transits
    // depth 1, so the highwater is deterministically nonzero).
    let reply = server
        .client()
        .call(Request::Quantile { query: q, phi: 0.5 });
    assert!(matches!(reply, Reply::Answer { .. }));

    let (_, after) = http_get(addr, "/status");
    let doc = json::parse(&after).expect("/status parses after publish");
    assert!(
        number_field(&doc, "epoch") > epoch_before,
        "epoch must advance across publishes: {after}"
    );
    let queue = obj_get(&doc, "queue_highwater").expect("queue_highwater present");
    assert!(matches!(queue, Value::Num(n) if n.parse::<f64>().unwrap() >= 1.0));

    // The scrape carries the sharded ingest series, the histogram summary
    // gauges, and the always-on ring-health block.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(metrics.contains("shard=\"1\""), "per-shard series exported");
    assert!(metrics.contains("_seconds_p99"));
    assert!(metrics.contains("gsm_obs_flight_ring_events"));
    // Every sample line is `name{labels} value` with a parseable value.
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("sample line shape");
        assert!(name.starts_with("gsm_"), "unprefixed series: {line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad sample value: {line}"));
    }
}

#[test]
fn trace_ids_round_trip_tcp_and_link_spans_in_chrome_trace() {
    let rec = Recorder::enabled();
    let (_eng, q, server) = serving_stack(&rec);
    let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind front");

    let mut stream = TcpStream::connect(front.local_addr()).expect("connect front");
    writeln!(stream, "quantile {q} 0.5 trace=cafef00d").expect("send query");
    stream.flush().expect("flush");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(
        reply.contains(" trace=00000000cafef00d"),
        "reply must echo the caller's trace id: {reply}"
    );

    // The same id links the request's span chain in the trace export:
    // admit → exec → query, plus explicit flow events.
    drop(front);
    drop(server);
    let trace = rec.chrome_trace_json();
    assert!(trace.contains("\"trace\":\"00000000cafef00d\""));
    for name in ["serve_admit", "serve_exec", "serve_query"] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "{name} span missing"
        );
    }
    assert!(
        trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""),
        "flow start/finish events emitted"
    );
    assert!(trace.contains("\"id\":\"00000000cafef00d\""));
}

#[test]
fn worker_panic_leaves_a_postmortem_naming_the_event() {
    let rec = Recorder::enabled();
    let mut eng = EngineBuilder::new(Engine::Host)
        .n_hint(4_096)
        .recorder(rec.clone())
        .build()
        .expect("valid configuration");
    let f = eng.register_frequency(0.005);
    let registry = eng.serve();
    let stream: Vec<f32> = (0..4_096u32).map(|i| (i % 64) as f32).collect();
    eng.push_batch(&stream);
    eng.flush();
    eng.publish_now();

    let path = std::env::temp_dir().join(format!(
        "gsm-telemetry-panic-{}-{:x}.json",
        std::process::id(),
        TraceCtx::fresh().trace_id
    ));
    let server = QueryServer::with_recorder(
        registry,
        ServeConfig {
            postmortem_path: Some(path.clone()),
            ..ServeConfig::default()
        },
        rec.clone(),
    );
    // support = 0 panics inside the summary; the worker isolates it to a
    // BadQuery reply and dumps the flight recorder.
    let reply = server.client().call(Request::HeavyHitters {
        query: f.index(),
        support: 0.0,
    });
    assert!(matches!(reply, Reply::BadQuery(_)));
    drop(server);

    let doc = std::fs::read_to_string(&path).expect("postmortem written on panic");
    assert!(doc.starts_with("{\"schema\":1,\"created_by\":\"gsm-obs/flight-recorder\""));
    assert!(
        doc.contains("\"kind\":\"worker_panic\""),
        "triggering event present"
    );
    json::parse(&doc).expect("postmortem is valid JSON");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn verify_violation_leaves_a_postmortem_naming_the_check() {
    let cfg = VerifyConfig {
        engines: vec![Engine::Host],
        ..VerifyConfig::default()
    };
    let spec = StreamSpec {
        family: Family::ZipfSkew,
        seed: 11,
        n: 4_096,
        window: 1_024,
    };
    let mut outcome = verify_family(&spec, &cfg);
    assert!(
        outcome.passed(),
        "baseline must pass: {:?}",
        outcome.failures()
    );
    // Forge a cross-backend disagreement — the cheapest way to make the
    // gate fire without breaking a real estimator.
    outcome.cross_backend_agree = false;

    let rec = Recorder::enabled();
    assert_eq!(record_violations(&rec, &outcome), 1);
    assert!(rec
        .flight_events()
        .iter()
        .any(|e| matches!(e.event, EngineEvent::AuditViolation { .. })));

    let path = std::env::temp_dir().join(format!(
        "gsm-telemetry-verify-{}-{:x}.json",
        std::process::id(),
        TraceCtx::fresh().trace_id
    ));
    rec.dump_postmortem(&path, "forced verify violation")
        .expect("dump postmortem");
    let doc = std::fs::read_to_string(&path).expect("postmortem written");
    assert!(doc.contains("\"kind\":\"audit_violation\""));
    assert!(doc.contains("engines disagree"));
    json::parse(&doc).expect("postmortem is valid JSON");
    let _ = std::fs::remove_file(&path);
}
