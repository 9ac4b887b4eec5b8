//! The admin/telemetry HTTP endpoint: `/metrics`, `/healthz`, `/status`.
//!
//! A std-only HTTP/1.0 responder on its own listener (never the query
//! port — scrapes must work while the query plane is saturated, and a
//! proxy should be able to firewall the two separately). It reuses the
//! [`crate::TcpFront`] machinery: one accept thread, one short-lived
//! thread per connection, a shutdown flag polled on a read timeout, and a
//! poke connection on drop. Every response is one `write` — head and body
//! together — and closes the connection (`Connection: close`), which is
//! all Prometheus scrapers and `curl` need — no keep-alive, no chunking,
//! no TLS.
//!
//! Routes:
//!
//! * `GET /metrics` — the live [`Recorder`] in Prometheus text format.
//! * `GET /healthz` — `ok` once the listener is up (liveness, not
//!   readiness: a server with no published snapshot is alive but answers
//!   `notready` on the query plane).
//! * `GET /status` — one JSON object of operational state: uptime,
//!   snapshot epoch, shard count, queue depth, reply accounting, shed and
//!   span-ring counters, and SLO verdicts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use gsm_dsms::SnapshotRegistry;
use gsm_obs::{Recorder, SloSpec};

use crate::net::{accept_loop, POLL_INTERVAL};
use crate::server::Client;

/// What the admin endpoint reports on. Everything is optional except the
/// recorder, so the endpoint can front an ingest-only engine (no query
/// server) or a disabled recorder (empty `/metrics`, `/status` still
/// live).
pub struct AdminSources {
    /// The recorder backing `/metrics` and the ring/shed counters.
    pub recorder: Recorder,
    /// Snapshot registry for the epoch field.
    pub registry: Option<Arc<SnapshotRegistry>>,
    /// Query-server client for queue depth and reply accounting.
    pub client: Option<Client>,
    /// Ingest shard count, echoed verbatim.
    pub shards: usize,
    /// Latency objectives evaluated (and breach-counted) on every
    /// `/status` request.
    pub slos: Vec<SloSpec>,
}

impl AdminSources {
    /// Sources exposing only a recorder.
    pub fn new(recorder: Recorder) -> AdminSources {
        AdminSources {
            recorder,
            registry: None,
            client: None,
            shards: 1,
            slos: Vec::new(),
        }
    }
}

struct Shared {
    sources: AdminSources,
    started: Instant,
}

/// The admin listener. Dropping it stops accepting and joins all handler
/// threads, exactly like [`crate::TcpFront`].
pub struct AdminServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the bind fails or the accept
    /// thread cannot be spawned.
    pub fn bind(addr: &str, sources: AdminSources) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            sources,
            started: Instant::now(),
        });
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("gsm-admin-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &shutdown,
                        "gsm-admin-conn",
                        move |stream, stop| handle_connection(stream, &shared, stop),
                    )
                })?
        };
        Ok(AdminServer {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Reads the request line, routes it, writes one response, closes. The
/// remaining request headers are irrelevant to every route, so they are
/// left unread — the response carries `Connection: close` and the socket
/// drop discards them.
fn handle_connection(mut stream: TcpStream, shared: &Shared, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let line = loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    break String::from_utf8_lossy(&pending[..pos]).trim().to_string();
                }
                if pending.len() > 8 * 1024 {
                    return; // a request line this long is not ours
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    };
    let _ = write_response(&mut stream, respond(shared, &line));
}

/// Sends `(status, content type, body)` as one HTTP/1.0 response in one
/// `write`: `write!` straight to a socket is a `write` (and a segment) per
/// format fragment.
fn write_response<W: Write>(
    wire: &mut W,
    (status, content_type, body): (&str, &str, String),
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    wire.write_all(response.as_bytes())
}

/// Routes one request line to `(status, content type, body)`.
fn respond(shared: &Shared, line: &str) -> (&'static str, &'static str, String) {
    let mut parts = line.split_whitespace();
    let (verb, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if verb != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served here\n".to_string(),
        );
    }
    match path {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared.sources.recorder.prometheus_text(),
        ),
        "/status" => ("200 OK", "application/json", status_json(shared)),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /healthz /status\n".to_string(),
        ),
    }
}

/// Renders `/status` as one flat-ish JSON object. Hand-rolled like the
/// obs exporters: every value is a number or a fixed-vocabulary string,
/// so no generic serializer is needed.
fn status_json(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let src = &shared.sources;
    let rec = &src.recorder;
    let mut out = String::from("{\"schema\":1,\"service\":\"gsm-serve\"");
    let _ = write!(
        out,
        ",\"uptime_secs\":{:.3}",
        shared.started.elapsed().as_secs_f64()
    );
    let epoch = src.registry.as_ref().map_or(0, |r| r.epoch());
    let _ = write!(out, ",\"epoch\":{epoch},\"shards\":{}", src.shards);
    match &src.client {
        None => out.push_str(",\"serving\":false"),
        Some(client) => {
            let stats = client.stats();
            let _ = write!(
                out,
                ",\"serving\":true,\"queue_depth\":{},\"queue_highwater\":{},\
                 \"requests\":{{\"submitted\":{},\"answered\":{},\"overloaded\":{},\
                 \"expired\":{},\"not_ready\":{},\"bad_query\":{},\"lost\":{}}}",
                client.queue_depth(),
                rec.gauge("serve_queue_depth").map_or(0, |g| g.highwater),
                stats.submitted,
                stats.answered,
                stats.overloaded,
                stats.expired,
                stats.not_ready,
                stats.bad_query,
                stats.lost(),
            );
        }
    }
    let _ = write!(
        out,
        ",\"shed\":{{\"ingest_events\":{},\"ingest_elements\":{},\"serve_admission\":{}}}",
        rec.counter_total("dsms_shed_events"),
        rec.counter_total("dsms_shed_elements"),
        rec.counter("serve_overloaded"),
    );
    let _ = write!(
        out,
        ",\"spans\":{{\"ring_events\":{},\"dropped\":{}}},\
         \"flight\":{{\"ring_events\":{},\"dropped\":{}}}",
        rec.span_ring_len(),
        rec.dropped_spans(),
        rec.flight_events().len(),
        rec.dropped_flight_events(),
    );
    out.push_str(",\"slo\":[");
    for (i, outcome) in rec.check_slos(&src.slos).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"count\":{},\"observed_p50_ns\":{},\"observed_p99_ns\":{},\
             \"breached\":{}}}",
            outcome.name,
            outcome.count,
            outcome.observed_p50_ns,
            outcome.observed_p99_ns,
            outcome.breached(),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QueryServer, Request, ServeConfig};
    use gsm_core::Engine;
    use gsm_dsms::EngineBuilder;

    /// Minimal HTTP/1.0 GET, returning (status line, body).
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    #[test]
    fn routes_answer_and_unknown_paths_get_404() {
        let rec = Recorder::enabled();
        rec.count("windows", 3);
        let admin = AdminServer::bind("127.0.0.1:0", AdminSources::new(rec)).expect("bind");
        let addr = admin.local_addr();

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(body.contains("gsm_windows_total 3"));
        assert!(body.contains("gsm_obs_spans_dropped_total 0"));

        let (status, body) = http_get(addr, "/status");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(body.starts_with("{\"schema\":1"));
        assert!(body.contains("\"serving\":false"));

        let (status, _) = http_get(addr, "/nope");
        assert!(status.contains("404"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn every_response_is_one_write() {
        let rec = Recorder::enabled();
        rec.count("windows", 3);
        let shared = Shared {
            sources: AdminSources::new(rec),
            started: Instant::now(),
        };
        for line in [
            "GET /healthz HTTP/1.0",
            "GET /metrics HTTP/1.0",
            "GET /status HTTP/1.0",
            "GET /nope HTTP/1.0",
            "POST /metrics HTTP/1.0",
        ] {
            let mut wire = crate::net::tests::ScriptedWire::default();
            write_response(&mut wire, respond(&shared, line)).expect("mock accepts");
            assert_eq!(wire.writes.len(), 1, "{line}");
            let response = String::from_utf8(wire.writes.remove(0)).expect("text");
            let (head, body) = response.split_once("\r\n\r\n").expect("head and body");
            assert!(head.starts_with("HTTP/1.0 "), "{line}: {head}");
            assert!(
                head.contains(&format!("Content-Length: {}\r\n", body.len())),
                "{line}: {head}"
            );
        }
    }

    #[test]
    fn status_reflects_the_live_server() {
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let reg = eng.serve();
        let server =
            QueryServer::with_recorder(Arc::clone(&reg), ServeConfig::default(), rec.clone());
        let admin = AdminServer::bind(
            "127.0.0.1:0",
            AdminSources {
                recorder: rec,
                registry: Some(Arc::clone(&reg)),
                client: Some(server.client()),
                shards: 1,
                slos: vec![SloSpec {
                    name: "serve_quantile",
                    metric: "serve_latency",
                    label: Some(("kind", "quantile")),
                    p50_ns: None,
                    p99_ns: u64::MAX,
                }],
            },
        )
        .expect("bind");
        let addr = admin.local_addr();

        let epoch_of = |body: &str| -> u64 {
            body.split("\"epoch\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("status carries an epoch")
        };
        let (_, before) = http_get(addr, "/status");
        assert!(before.contains("\"serving\":true"));

        let stream: Vec<f32> = (0..20_000).map(|i| (i % 100) as f32).collect();
        eng.push_batch(&stream);
        eng.flush();
        eng.publish_now();
        let _ = server.client().call(Request::Quantile {
            query: q.index(),
            phi: 0.5,
        });

        let (_, after) = http_get(addr, "/status");
        assert!(
            epoch_of(&after) > epoch_of(&before),
            "epoch advanced across the publish: {before} -> {after}"
        );
        assert!(after.contains("\"answered\":1"));
        assert!(
            after.contains("\"queue_highwater\":1"),
            "every admission transits depth 1: {after}"
        );
        assert!(after.contains("\"name\":\"serve_quantile\""));
        assert!(after.contains("\"breached\":false"));
    }
}
