//! A line-delimited TCP front over [`Client`] — the out-of-process path.
//!
//! One request per line, one reply line per request, plain ASCII — the
//! protocol is meant to be driven by `nc` as easily as by the bench load
//! generator. Every connection funnels into the same bounded admission
//! queue as in-process callers, so a TCP client sees the same structured
//! `overloaded` / `expired` vocabulary under saturation.
//!
//! ## Protocol
//!
//! Requests (`<query>` is the registration index; `timeout_ms` optional;
//! any query request may end with a `trace=<hex>` token to supply the
//! request's trace id — otherwise the front generates one):
//!
//! ```text
//! quantile <query> <phi> [timeout_ms] [trace=<hex>]
//! hh       <query> <support> [timeout_ms] [trace=<hex>]
//! hhh      <query> <support> [timeout_ms] [trace=<hex>]
//! squant   <query> <phi> [timeout_ms] [trace=<hex>]
//! shh      <query> <support> [timeout_ms] [trace=<hex>]
//! epoch
//! quit
//! ```
//!
//! Replies (every query reply echoes the trace id that admission,
//! dequeue, and execution spans recorded — grep it in `chrome_trace_json`
//! or the flight recorder to follow one request through the server):
//!
//! ```text
//! answer <epoch> quantile <value> trace=<hex>
//! answer <epoch> hh <n> <value>:<count> ... trace=<hex>
//! answer <epoch> hhh <n> <level>:<value>:<count> ... trace=<hex>
//! overloaded <queue_depth> trace=<hex>
//! expired trace=<hex>
//! notready trace=<hex>
//! badquery <message> trace=<hex>
//! epoch <n>
//! err <message>          (malformed request line)
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use gsm_dsms::{QueryAnswer, QueryRequest};
use gsm_obs::TraceCtx;

use crate::server::{Client, Reply, Request};

/// How often blocked reads re-check the shutdown flag. Bounds how long
/// `Drop` can take, not request latency.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// The TCP listener: one accept thread, one handler thread per
/// connection, all funneling into the wrapped [`Client`].
///
/// Dropping the front stops accepting, nudges every handler (via the
/// shutdown flag, observed within the 100 ms poll interval), and joins all
/// threads — in-flight requests still get their reply line first.
pub struct TcpFront {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl TcpFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the bind fails.
    pub fn bind(client: Client, addr: &str) -> io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("gsm-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &client, &shutdown))
                .expect("spawn accept thread")
        };
        Ok(TcpFront {
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

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag immediately.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, client: &Client, shutdown: &Arc<AtomicBool>) {
    let handlers: Mutex<Vec<thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let client = client.clone();
        let shutdown = Arc::clone(shutdown);
        let handle = thread::Builder::new()
            .name("gsm-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &client, &shutdown))
            .expect("spawn connection handler");
        handlers.lock().expect("handler list lock").push(handle);
    }
    for handle in handlers.into_inner().expect("handler list lock") {
        let _ = handle.join();
    }
}

/// Per-connection loop: split the byte stream into lines by hand (a
/// `BufReader::read_line` can drop partially read bytes when a read
/// timeout fires mid-line; manual framing keeps them).
fn handle_connection(mut stream: TcpStream, client: &Client, shutdown: &Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = pending.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&raw[..pos]);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if line == "quit" || line == "exit" {
                        return;
                    }
                    let response = if line == "epoch" {
                        format!("epoch {}", client.epoch())
                    } else {
                        match parse_request(line) {
                            Ok((request, timeout, trace)) => {
                                let ctx = trace.unwrap_or_else(TraceCtx::fresh);
                                let deadline = timeout.unwrap_or(client.default_deadline());
                                let reply = client.call_traced(request, deadline, ctx);
                                format!("{} trace={}", format_reply(&reply), ctx.hex())
                            }
                            Err(msg) => format!("err {msg}"),
                        }
                    };
                    if writeln!(stream, "{response}").is_err() {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Parses one request line into a [`Request`] plus optional deadline and
/// optional caller-supplied trace id.
#[allow(clippy::type_complexity)]
fn parse_request(line: &str) -> Result<(Request, Option<Duration>, Option<TraceCtx>), String> {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    let trace = match tokens.last().and_then(|t| t.strip_prefix("trace=")) {
        Some(hex) => {
            tokens.pop();
            Some(TraceCtx::parse_hex(hex).ok_or("trace id must be nonzero hex".to_string())?)
        }
        None => None,
    };
    let mut parts = tokens.into_iter();
    let verb = parts.next().ok_or("empty request")?;
    let query: usize = parts
        .next()
        .ok_or("missing query index")?
        .parse()
        .map_err(|_| "query index must be an integer".to_string())?;
    let param: f64 = parts
        .next()
        .ok_or("missing parameter")?
        .parse()
        .map_err(|_| "parameter must be a number".to_string())?;
    let timeout = match parts.next() {
        None => None,
        Some(ms) => Some(Duration::from_millis(
            ms.parse()
                .map_err(|_| "timeout must be milliseconds".to_string())?,
        )),
    };
    if parts.next().is_some() {
        return Err("trailing tokens".to_string());
    }
    let typed = match verb {
        "quantile" => QueryRequest::Quantile { phi: param },
        "hh" => QueryRequest::HeavyHitters { support: param },
        "hhh" => QueryRequest::Hhh { support: param },
        "squant" => QueryRequest::SlidingQuantile { phi: param },
        "shh" => QueryRequest::SlidingFrequency { support: param },
        other => return Err(format!("unknown verb '{other}'")),
    };
    Ok((Request::from_typed(query, typed), timeout, trace))
}

/// Renders a [`Reply`] as one protocol line.
fn format_reply(reply: &Reply) -> String {
    match reply {
        Reply::Answer { epoch, answer } => match answer {
            QueryAnswer::Quantile(v) => format!("answer {epoch} quantile {v}"),
            QueryAnswer::HeavyHitters(hits) => {
                let mut out = format!("answer {epoch} hh {}", hits.len());
                for (value, count) in hits {
                    out.push_str(&format!(" {value}:{count}"));
                }
                out
            }
            QueryAnswer::Hhh(entries) => {
                let mut out = format!("answer {epoch} hhh {}", entries.len());
                for e in entries {
                    out.push_str(&format!(" {}:{}:{}", e.level, e.prefix, e.discounted_count));
                }
                out
            }
        },
        Reply::Overloaded { queue_depth } => format!("overloaded {queue_depth}"),
        Reply::Expired => "expired".to_string(),
        Reply::NotReady => "notready".to_string(),
        Reply::BadQuery(msg) => format!("badquery {}", msg.replace('\n', " ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QueryServer, ServeConfig};
    use gsm_core::Engine;
    use gsm_dsms::EngineBuilder;
    use std::io::{BufRead, BufReader};

    fn call(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for line in lines {
            writeln!(stream, "{line}").expect("send");
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        lines
            .iter()
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reply");
                reply.trim().to_string()
            })
            .collect()
    }

    #[test]
    fn tcp_round_trip_speaks_the_protocol() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.001);
        let server = QueryServer::start(eng.serve(), ServeConfig::default());
        let stream: Vec<f32> = (0..20_000).map(|i| (i % 100) as f32).collect();
        eng.push_batch(&stream);
        eng.flush();
        eng.publish_now();
        let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind");
        let addr = front.local_addr();

        let direct_median = match server.client().call(Request::Quantile {
            query: q.index(),
            phi: 0.5,
        }) {
            Reply::Answer {
                answer: QueryAnswer::Quantile(v),
                ..
            } => v,
            other => panic!("direct call failed: {other:?}"),
        };

        let replies = call(
            addr,
            &[
                &format!("quantile {} 0.5", q.index()),
                &format!("hh {} 0.009", f.index()),
                "epoch",
                "quantile nope 0.5",
                "bogus 0 0.5",
                &format!("quantile {} 0.5 1000 trace=deadbeef", q.index()),
            ],
        );
        assert!(
            replies[0].starts_with("answer ")
                && replies[0].contains(&format!("quantile {direct_median} trace=")),
            "served quantile must match the in-process answer: {}",
            replies[0]
        );
        let trace_token = replies[0].split_whitespace().last().unwrap();
        let hex = trace_token.strip_prefix("trace=").expect("trace echoed");
        assert!(TraceCtx::parse_hex(hex).is_some(), "generated id parses");
        assert!(
            replies[1].contains(" hh 100 "),
            "100 hot values: {}",
            replies[1]
        );
        assert!(replies[2].starts_with("epoch "), "{}", replies[2]);
        assert!(replies[3].starts_with("err "), "{}", replies[3]);
        assert!(replies[4].starts_with("err "), "{}", replies[4]);
        assert!(
            replies[5].ends_with("trace=00000000deadbeef"),
            "caller-supplied trace ids echo back verbatim: {}",
            replies[5]
        );

        // Requests for bad indices travel the full path too.
        let replies = call(addr, &["quantile 99 0.5"]);
        assert!(replies[0].starts_with("badquery "), "{}", replies[0]);
        assert!(replies[0].contains(" trace="), "{}", replies[0]);

        drop(front);
        drop(server);
    }

    #[test]
    fn front_shuts_down_cleanly_with_open_connections() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.02);
        let server = QueryServer::start(eng.serve(), ServeConfig::default());
        let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind");
        let addr = front.local_addr();
        // An idle connection that never sends anything.
        let _idle = TcpStream::connect(addr).expect("connect");
        drop(front); // must join, not hang on the idle reader
        drop(server);
    }
}
