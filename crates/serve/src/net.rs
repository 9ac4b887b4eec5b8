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
//!
//! ## On the wire
//!
//! Every reply line leaves in one `write` on a socket with `TCP_NODELAY`
//! set, so it is one segment the moment it is ready. A line written in two
//! pieces — text, then `\n` — has the second held by Nagle's algorithm
//! until the peer acknowledges the first, and a peer that delays its ACKs
//! (Linux: 40 ms) turns every request into a 40 ms round trip.
//!
//! A request line is at most 4 KiB; a longer one is answered
//! `err line too long` and the connection is closed, so a peer that never
//! sends a newline cannot grow the server's buffer.

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gsm_dsms::{QueryAnswer, QueryRequest};
use gsm_obs::TraceCtx;

use crate::server::{Client, Reply, Request};

/// How often blocked reads re-check the shutdown flag. Bounds how long
/// `Drop` can take, not request latency.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// The longest request line the front reads, newline excluded. The longest
/// well-formed request is under 100 bytes.
const MAX_LINE: usize = 4 * 1024;

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
    /// Returns the underlying I/O error if the bind fails or the accept
    /// thread cannot be spawned.
    pub fn bind(client: Client, addr: &str) -> io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("gsm-serve-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &shutdown,
                        "gsm-serve-conn",
                        move |stream, stop| handle_connection(stream, &client, stop),
                    )
                })?
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

/// Accepts until `shutdown` is set, running `handle` on one thread (named
/// `name`) per connection, and joins the handlers still running before it
/// returns. Shared by the query front and the admin endpoint.
///
/// Finished handlers are reaped on every accept, so the list holds the
/// open connections, not every connection there ever was. A connection
/// whose thread cannot be spawned is dropped — the peer sees it close —
/// and accepting goes on.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    name: &str,
    handle: impl Fn(TcpStream, &AtomicBool) + Clone + Send + 'static,
) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        reap_finished(&mut handlers);
        let (handle, shutdown) = (handle.clone(), Arc::clone(shutdown));
        let spawned = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || handle(stream, &shutdown));
        // On failure the closure, and the stream in it, has been dropped.
        if let Ok(handler) = spawned {
            handlers.push(handler);
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Joins (without blocking) and forgets every handler that has returned.
fn reap_finished(handlers: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn handle_connection(stream: TcpStream, client: &Client, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    serve_connection(stream, client, shutdown);
}

/// Per-connection loop over any byte transport: split the byte stream into
/// lines by hand (a `BufReader::read_line` can drop partially read bytes
/// when a read timeout fires mid-line; manual framing keeps them), answer
/// each line, and send each reply with one `write_all`. The input buffer
/// and the reply buffer live as long as the connection; lines are parsed
/// where they lie.
fn serve_connection<S: Read + Write>(mut stream: S, client: &Client, shutdown: &AtomicBool) {
    let mut pending: Vec<u8> = Vec::new();
    let mut reply = String::new();
    let mut chunk = [0u8; 1024];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        pending.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        loop {
            let rest = &pending[start..];
            let newline = rest.iter().position(|&b| b == b'\n');
            let line = &rest[..newline.unwrap_or(rest.len())];
            if line.len() > MAX_LINE {
                let _ = stream.write_all(b"err line too long\n");
                return;
            }
            let Some(len) = newline else { break };
            start += len + 1;
            reply.clear();
            if answer_line(line, client, &mut reply).is_break() {
                return;
            }
            if !reply.is_empty() && stream.write_all(reply.as_bytes()).is_err() {
                return;
            }
        }
        pending.drain(..start);
    }
}

/// Appends the reply line for one request line, newline included, to
/// `out` (nothing for a blank line). `Break` on `quit`.
fn answer_line(raw: &[u8], client: &Client, out: &mut String) -> ControlFlow<()> {
    let Ok(line) = std::str::from_utf8(raw) else {
        out.push_str("err request is not UTF-8\n");
        return ControlFlow::Continue(());
    };
    // Writing to a `String` cannot fail.
    let _ = match line.trim() {
        "" => Ok(()),
        "quit" | "exit" => return ControlFlow::Break(()),
        "epoch" => writeln!(out, "epoch {}", client.epoch()),
        line => match parse_request(line) {
            Ok((request, timeout, trace)) => {
                let ctx = trace.unwrap_or_else(TraceCtx::fresh);
                let deadline = timeout.unwrap_or(client.default_deadline());
                let reply = client.call_traced(request, deadline, ctx);
                write_reply(out, &reply).and_then(|()| writeln!(out, " trace={}", ctx.hex()))
            }
            Err(msg) => writeln!(out, "err {msg}"),
        },
    };
    ControlFlow::Continue(())
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

/// Renders a [`Reply`] as one protocol line (no trace token, no newline).
fn write_reply(out: &mut String, reply: &Reply) -> std::fmt::Result {
    match reply {
        Reply::Answer { epoch, answer } => match answer {
            QueryAnswer::Quantile(v) => write!(out, "answer {epoch} quantile {v}"),
            QueryAnswer::HeavyHitters(hits) => {
                write!(out, "answer {epoch} hh {}", hits.len())?;
                hits.iter()
                    .try_for_each(|(value, count)| write!(out, " {value}:{count}"))
            }
            QueryAnswer::Hhh(entries) => {
                write!(out, "answer {epoch} hhh {}", entries.len())?;
                entries.iter().try_for_each(|e| {
                    write!(out, " {}:{}:{}", e.level, e.prefix, e.discounted_count)
                })
            }
        },
        Reply::Overloaded { queue_depth } => write!(out, "overloaded {queue_depth}"),
        Reply::Expired => out.write_str("expired"),
        Reply::NotReady => out.write_str("notready"),
        Reply::BadQuery(msg) => write!(out, "badquery {}", msg.replace('\n', " ")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::server::{QueryServer, ServeConfig};
    use gsm_core::Engine;
    use gsm_dsms::EngineBuilder;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    /// A transport that plays back `input` and keeps each `write` call's
    /// bytes apart, so a test can count the writes a reply took.
    #[derive(Default)]
    pub(crate) struct ScriptedWire {
        pub(crate) input: Vec<u8>,
        pub(crate) read: usize,
        pub(crate) writes: Vec<Vec<u8>>,
    }

    impl Read for ScriptedWire {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.input.len() - self.read);
            buf[..n].copy_from_slice(&self.input[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    impl Write for ScriptedWire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A served engine over 20 000 elements of `i % 100`: a quantile query
    /// (index 0) and a frequency query (index 1) with 100 hot values.
    fn hundred_values() -> (gsm_dsms::StreamEngine, QueryServer) {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.02);
        let _ = eng.register_frequency(0.001);
        let server = QueryServer::start(eng.serve(), ServeConfig::default());
        let stream: Vec<f32> = (0..20_000).map(|i| (i % 100) as f32).collect();
        eng.push_batch(&stream);
        eng.flush();
        eng.publish_now();
        (eng, server)
    }

    const SIX_REQUESTS: &str =
        "quantile 0 0.5\nhh 1 0.009\n\nepoch\nquantile nope 0.5\nbogus 0 0.5\nquantile 0 0.9 1000 trace=deadbeef\n";

    fn assert_six_replies(replies: &[String]) {
        let starts = ["answer ", "answer ", "epoch ", "err ", "err ", "answer "];
        assert_eq!(replies.len(), starts.len(), "{replies:?}");
        for (reply, start) in replies.iter().zip(starts) {
            assert!(
                reply.starts_with(start),
                "{reply} should start with {start}"
            );
        }
        assert!(replies[0].contains(" quantile "), "{}", replies[0]);
        assert!(replies[1].contains(" hh 100 "), "{}", replies[1]);
        assert!(
            replies[5].ends_with("trace=00000000deadbeef"),
            "{}",
            replies[5]
        );
    }

    #[test]
    fn every_reply_line_is_one_write() {
        let (_eng, server) = hundred_values();
        let mut wire = ScriptedWire {
            input: SIX_REQUESTS.as_bytes().to_vec(),
            ..ScriptedWire::default()
        };
        serve_connection(&mut wire, &server.client(), &AtomicBool::new(false));
        // Six requests (and a blank line, which gets no reply): six writes,
        // each a whole line — the 100-entry `hh` reply included.
        let replies: Vec<String> = wire
            .writes
            .iter()
            .map(|w| String::from_utf8(w.clone()).expect("ASCII reply"))
            .collect();
        for reply in &replies {
            assert_eq!(reply.find('\n'), Some(reply.len() - 1), "{reply:?}");
        }
        let lines: Vec<String> = replies.iter().map(|r| r.trim_end().to_string()).collect();
        assert_six_replies(&lines);
    }

    #[test]
    fn requests_pipelined_in_one_segment_are_answered_in_order() {
        let (_eng, server) = hundred_values();
        let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(front.local_addr()).expect("connect");
        stream.write_all(SIX_REQUESTS.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let replies: Vec<String> = (0..6)
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reply");
                reply.trim_end().to_string()
            })
            .collect();
        assert_six_replies(&replies);
    }

    #[test]
    fn sequential_round_trips_do_not_wait_for_a_delayed_ack() {
        let (_eng, server) = hundred_values();
        let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind");
        // A client that leaves Nagle on and ACKs lazily, like `nc`: a reply
        // sent in two segments would cost it 40 ms per request.
        let mut stream = TcpStream::connect(front.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let started = Instant::now();
        for _ in 0..50 {
            stream.write_all(b"quantile 0 0.5\n").expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            assert!(reply.starts_with("answer "), "{reply}");
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 round trips took {took:?}"
        );
    }

    #[test]
    fn an_endless_line_is_refused_and_the_front_keeps_serving() {
        let (_eng, server) = hundred_values();
        let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind");
        let addr = front.local_addr();

        let mut hostile = TcpStream::connect(addr).expect("connect");
        hostile
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        // 1 MiB and no newline. The server hangs up a little past 4 KiB,
        // after which a send fails: that is the point.
        let block = [b'a'; 4096];
        for _ in 0..256 {
            if hostile.write_all(&block).is_err() {
                break;
            }
        }
        let mut answer = String::new();
        let mut reader = BufReader::new(hostile);
        reader.read_line(&mut answer).expect("the refusal arrives");
        assert_eq!(answer, "err line too long\n");
        // The handler has returned: nothing follows but the end of the
        // stream (or a reset, the server having closed on unread input).
        let mut rest = Vec::new();
        assert!(matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)));

        let replies = call(addr, &["epoch", "quantile 0 0.5"]);
        assert!(replies[0].starts_with("epoch "), "{}", replies[0]);
        assert!(replies[1].starts_with("answer "), "{}", replies[1]);

        // The cap is on the line, not the connection: many short lines are
        // fine, and a terminated line over the cap is refused like an
        // endless one.
        let mut wire = ScriptedWire::default();
        for _ in 0..1000 {
            wire.input.extend_from_slice(b"epoch\n");
        }
        wire.input.extend_from_slice(&[b'a'; MAX_LINE + 1]);
        wire.input.extend_from_slice(b"\nepoch\n");
        serve_connection(&mut wire, &server.client(), &AtomicBool::new(false));
        assert_eq!(wire.writes.len(), 1001);
        assert_eq!(wire.writes[1000], b"err line too long\n");
    }

    #[test]
    fn finished_handlers_are_reaped() {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let mut handlers = vec![
            thread::spawn(|| {}),
            thread::spawn(move || gate.recv().unwrap_or(())),
            thread::spawn(|| {}),
        ];
        while !(handlers[0].is_finished() && handlers[2].is_finished()) {
            thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "the open connection's handler stays");
        drop(release);
        handlers.pop().expect("one left").join().expect("handler");
    }

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
