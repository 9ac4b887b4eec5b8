//! The `serve_mixed` workload: the driver thread ingests on a schedule
//! while TCP connections query the snapshots the engine publishes.
//!
//! Ingest is open loop because a stream does not wait for its consumer:
//! one batch is due every `batch / rate` seconds whatever the engine does;
//! every batch is timed from its due time, and how late the generator ran
//! is reported. Each query connection is a closed loop — the line protocol
//! admits one outstanding request per connection, which is how a dashboard
//! uses it: it waits for a reply, thinks for 5 ms, and asks again, timed
//! from send to reply. The load generator is capped at `nproc` threads:
//! the ingest driver plus `max(1, nproc − 1)` connections.
//!
//! The ingest workloads take their query latencies through the same
//! connections: at the end of the stream they serve their final state to
//! `nproc` of them (the ingest driver has nothing left to do) — see
//! [`query_end_of_stream`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsm_dsms::QueryAnswer;
use gsm_obs::Recorder;
use gsm_serve::{QueryServer, Reply, Request, TcpFront};

use crate::config::{recorder, serve_config, Built, Config, SERVE_MIXED, SETUPS, WALL_CAP};
use crate::ingest::push_in_laps;
use crate::input::{probe_request, request_mix, Input, Kind, MixRequest};
use crate::oracle::check_final_state;
use crate::probes::{self, median_secs, timed};
use crate::report::{Metrics, Ops, Outcome};
use crate::stats::{
    fastest_each, highest_supported_percentile, median, percentile, supports_percentile,
};
use crate::sys::{nproc, rss_peak_mb, Stopwatch};
use crate::trace::Tracer;
use crate::RunArgs;

/// Slices the timed interval is reported in; each is one pass over the
/// buffer, so the stream ends on a whole pass and the oracle stays exact.
const SLICES_PER_10S: u64 = 5;
/// How long a query connection waits after a reply before it asks again.
/// Long enough to bound what a connection offers once replies are fast
/// (under 200 requests/s), and short of the kernel's 40 ms delayed-ACK
/// estimate: a client that sends again within that of a reply keeps
/// delaying its ACKs, one that sends later starts acknowledging at once,
/// and the server's two-segment reply takes 0.4 ms or 42 ms accordingly.
/// On a 50 ms schedule whole stretches of a run fell to either side.
const THINK_TIME: Duration = Duration::from_millis(5);
/// Requests to an ingest workload's final state: the fewest that leave
/// ten samples beyond p95.
const END_OF_STREAM_REQUESTS: usize = 200;
/// A reply that takes longer than this is a failed operation.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Ingest further behind schedule than this at the end fails the run.
const MAX_BACKLOG: Duration = Duration::from_secs(1);

/// A clock the open-loop driver can be tested against.
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Blocks until `at` (returns at once if it has passed).
    fn sleep_until(&mut self, at: Duration);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&mut self, at: Duration) {
        std::thread::sleep(at.saturating_sub(self.0.elapsed()));
    }
}

/// What an open-loop run observed, one entry per operation.
#[derive(Default)]
pub struct LoopLog {
    /// How long after its due time each operation began.
    pub late: Vec<Duration>,
    /// Due time to completion: the latency a consumer of the schedule
    /// sees, which counts the wait a stall imposes on later operations.
    pub from_due: Vec<Duration>,
    /// When the last operation completed.
    pub end: Duration,
}

/// Runs `count` operations, operation `i` due at `i × period`. A late
/// operation starts at once; the schedule never slows down to let the
/// system catch up.
pub fn open_loop<C: Clock>(
    count: u64,
    period: Duration,
    clock: &mut C,
    mut op: impl FnMut(u64, &mut C),
) -> LoopLog {
    let mut log = LoopLog::default();
    for i in 0..count {
        let due = period * i as u32;
        clock.sleep_until(due);
        log.late.push(clock.now().saturating_sub(due));
        op(i, clock);
        log.end = clock.now();
        log.from_due.push(log.end - due);
    }
    log
}

/// One answered request as a query connection saw it.
struct Sample {
    kind: Kind,
    sent: Instant,
    done: Instant,
}

#[derive(Default)]
struct ClientLog {
    answered: Vec<Sample>,
    sent: u64,
    failures: Vec<String>,
}

type Socket = (TcpStream, BufReader<TcpStream>);

fn connect(addr: SocketAddr) -> std::io::Result<Socket> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends one request line and reads the reply line.
fn round_trip(conn: &mut Socket, line: &str) -> std::io::Result<String> {
    conn.0.write_all(line.as_bytes())?;
    let mut reply = String::new();
    if conn.1.read_line(&mut reply)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(reply)
}

fn request_line(cfg: &Config, request: MixRequest) -> String {
    let index = cfg.index_of(request.kind);
    format!("{} {index} {}\n", request.kind.verb(), request.param)
}

/// One query connection and what it observed.
struct Connection {
    cfg: &'static Config,
    addr: SocketAddr,
    socket: Option<Socket>,
    log: ClientLog,
}

impl Connection {
    /// Sends `request` and waits for its reply. Any reply other than
    /// `answer`, a timeout or a broken connection is a failed operation.
    fn request(&mut self, request: MixRequest) {
        let line = request_line(self.cfg, request);
        let log = &mut self.log;
        log.sent += 1;
        if self.socket.is_none() {
            match connect(self.addr) {
                Ok(socket) => self.socket = Some(socket),
                Err(e) => return log.failures.push(format!("connect: {e}")),
            }
        }
        let sent = Instant::now();
        match round_trip(self.socket.as_mut().expect("connected above"), &line) {
            Ok(reply) if reply.starts_with("answer ") => log.answered.push(Sample {
                kind: request.kind,
                sent,
                done: Instant::now(),
            }),
            Ok(reply) => log
                .failures
                .push(format!("{}: {}", line.trim(), reply.trim())),
            Err(e) => {
                // The reply may still arrive later: start a fresh
                // connection so it cannot be taken for the next one.
                log.failures.push(format!("{}: {e}", line.trim()));
                self.socket = None;
            }
        }
    }
}

/// The closed loop of one connection: at most `count` requests of `mix`
/// (cycled), none begun after `until`, [`THINK_TIME`] after each reply.
fn query_loop(mut conn: Connection, mix: &[MixRequest], count: u64, until: Instant) -> ClientLog {
    let mut sent = 0;
    while sent < count && Instant::now() < until {
        conn.request(mix[sent as usize % mix.len()]);
        std::thread::sleep(THINK_TIME);
        sent += 1;
    }
    conn.log
}

/// Starts `connections` query connections, each a [`query_loop`] of
/// `count` and `until`; connection `c` sends the mix seeded `seed + c`.
fn spawn_connections(
    cfg: &'static Config,
    addr: SocketAddr,
    seed: u64,
    connections: usize,
    count: u64,
    until: Instant,
) -> Vec<std::thread::JoinHandle<ClientLog>> {
    (0..connections)
        .map(|c| {
            let mix = request_mix(seed + c as u64, &cfg.kinds(), cfg.hh_support, 1000);
            let conn = Connection {
                cfg,
                addr,
                socket: None,
                log: ClientLog::default(),
            };
            std::thread::spawn(move || query_loop(conn, &mix, count, until))
        })
        .collect()
}

/// Counts every request as an operation — anything but an answer failed —
/// and returns the answered ones' latencies, send to reply, in ascending
/// microseconds.
fn tally(logs: &[ClientLog], ops: &mut Ops) -> Vec<f64> {
    let mut lat_us = Vec::new();
    for client in logs {
        ops.attempted += client.sent;
        ops.failed += client.failures.len() as u64;
        ops.notes.extend(client.failures.iter().take(2).cloned());
        lat_us.extend(
            client
                .answered
                .iter()
                .map(|s| (s.done - s.sent).as_secs_f64() * 1e6),
        );
    }
    ops.check(!lat_us.is_empty(), || "no request was answered".to_string());
    if lat_us.is_empty() {
        // A request that is not answered misses any latency limit.
        lat_us.push(READ_TIMEOUT.as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);
    lat_us
}

/// The query latencies of an ingest workload: its end-of-stream state
/// served over TCP (`serve` installs the snapshot mailbox on an engine
/// that did not publish while ingesting) to `nproc` connections,
/// [`END_OF_STREAM_REQUESTS`] requests in all, none begun after `until`.
/// Returns what [`tally`] does.
pub fn query_end_of_stream(
    cfg: &'static Config,
    built: &mut Built,
    seed: u64,
    until: Instant,
    ops: &mut Ops,
) -> Vec<f64> {
    let registry = built.eng.serve();
    // A flush publishes only on the cadence: readers get the final state.
    built.eng.publish_now();
    let server = QueryServer::start(registry, serve_config());
    let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind a loopback port");
    let connections = nproc();
    let count = END_OF_STREAM_REQUESTS.div_ceil(connections) as u64;
    let callers = spawn_connections(cfg, front.local_addr(), seed, connections, count, until);
    let logs: Vec<ClientLog> = callers
        .into_iter()
        .map(|h| h.join().expect("query connection thread"))
        .collect();
    let stats = server.stats();
    ops.check(stats.lost() == 0, || format!("requests lost: {stats:?}"));
    tally(&logs, ops)
}

/// Everything one set-up produces: a serving engine preloaded with one
/// pass, its server and its TCP front.
struct Serving {
    input: Input,
    built: Built,
    server: QueryServer,
    front: TcpFront,
    /// Wall seconds of each lap of the preload.
    preload_wall_s: Vec<f64>,
}

fn set_up(cfg: &Config, seed: u64, n: usize, n_hint: u64, rec: &Recorder) -> Serving {
    let input = Input::generate(cfg.stream, seed, n);
    let mut built = cfg.build(n_hint, rec.clone(), None, true);
    let registry = Arc::clone(built.registry.as_ref().expect("serve_mixed serves"));
    let server = QueryServer::with_recorder(registry, serve_config(), rec.clone());
    let front = TcpFront::bind(server.client(), "127.0.0.1:0").expect("bind a loopback port");
    // The preload is the one stretch of this workload that ingests as fast
    // as the engine takes it: its rate is the workload's `ingest_eps`.
    let mut watch = Stopwatch::start();
    push_in_laps(
        &mut built.eng,
        input.values.chunks(cfg.batch),
        n / cfg.batch,
        &mut watch,
        &mut Tracer::new(false),
    );
    Serving {
        input,
        built,
        server,
        front,
        preload_wall_s: watch.wall_s,
    }
}

fn kind_metric(kind: Kind) -> (&'static str, &'static str) {
    match kind {
        Kind::Quantile => ("serve.tcp_quantile", "serve.lat_quantile_p50_us"),
        Kind::Hh => ("serve.tcp_hh", "serve.lat_hh_p50_us"),
        Kind::Hhh => ("serve.tcp_hhh", "serve.lat_hhh_p50_us"),
        Kind::Squant => ("serve.tcp_squant", "serve.lat_squant_p50_us"),
        Kind::Shh => ("serve.tcp_shh", "serve.lat_shh_p50_us"),
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let cfg: &'static Config = &SERVE_MIXED;
    let deadline = Instant::now() + WALL_CAP;
    let n = cfg.buffer_cap;
    let slices = (args.seconds * SLICES_PER_10S).div_ceil(10).max(1);
    let passes = 1 + slices;
    let total = n as u64 * passes;
    let batches_per_slice = (n / cfg.batch) as u64;
    let period = Duration::from_secs_f64(cfg.batch as f64 / cfg.elems_per_second as f64);
    let slice_len = period * batches_per_slice as u32;
    let connections = nproc().saturating_sub(1).max(1);
    let mut tr = Tracer::new(args.traced);
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let recorder = recorder(args.traced);

    // Set-up: input generation, oracle sort, engine build, server start,
    // socket bind and the one-pass preload.
    let mut setup_s = Vec::new();
    let mut preloads = Vec::new();
    let mut ready = None;
    for _ in 0..if args.traced { 1 } else { SETUPS } {
        drop(ready.take());
        let span = tr.begin("setup");
        let (secs, serving) = timed(|| set_up(cfg, args.seed, n, total, &recorder));
        tr.end(span);
        setup_s.push(secs);
        preloads.push(serving.preload_wall_s.clone());
        ready = Some(serving);
    }
    let Serving {
        input,
        mut built,
        server,
        front,
        ..
    } = ready.expect("at least one set-up");
    ops.done(batches_per_slice);

    // The timed interval.
    let addr = front.local_addr();
    let started = Instant::now();
    // The connections ask for as long as the ingest schedule runs.
    let until = started + slice_len * slices as u32;
    let clients = spawn_connections(cfg, addr, args.seed, connections, u64::MAX, until);
    let mut batches = input.values.chunks(cfg.batch).cycle();
    // One lap per slice: every slice ingests the same pass on the same
    // schedule beside the same query connections.
    let mut watch = Stopwatch::start();
    let log = open_loop(
        slices * batches_per_slice,
        period,
        &mut WallClock(started),
        |i, _| {
            let span = tr.begin("dsms.push_batch");
            built.eng.push_batch(batches.next().expect("cycled"));
            tr.end(span);
            if (i + 1) % batches_per_slice == 0 {
                watch.lap();
            }
        },
    );
    let logs: Vec<ClientLog> = clients
        .into_iter()
        .map(|h| h.join().expect("query connection thread"))
        .collect();
    ops.done(log.late.len() as u64);
    let backlog = *log.late.last().expect("at least one batch");
    ops.check(backlog <= MAX_BACKLOG, || {
        format!("ingest ended {backlog:?} behind schedule")
    });
    ops.check(Instant::now() < deadline, || {
        "the timed interval ran into the wall cap".to_string()
    });

    let lat_us = tally(&logs, &mut ops);
    let mut per_slice = vec![0u64; slices as usize];
    for (c, client) in logs.iter().enumerate() {
        for s in &client.answered {
            let slice = (s.done - started).as_nanos() / slice_len.as_nanos();
            if let Some(count) = per_slice.get_mut(slice as usize) {
                *count += 1;
            }
            tr.add(kind_metric(s.kind).0, s.sent, s.done, c as u32 + 1);
        }
    }
    let slice_qps: Vec<f64> = per_slice
        .iter()
        .map(|&c| c as f64 / slice_len.as_secs_f64())
        .collect();

    // End of stream: seal the tail, publish, and compare what the server
    // answers with what the engine answers directly.
    let span = tr.begin("core.flush");
    built.eng.flush();
    tr.end(span);
    built.eng.publish_now();
    let client = server.client();
    let registry = Arc::clone(built.registry.as_ref().expect("serve_mixed serves"));
    for (index, kind) in cfg.kinds().into_iter().enumerate() {
        let request = probe_request(kind, cfg.hh_support);
        let direct = built.eng.request(built.id_of(kind), request.typed());
        let served = client.call(Request::from_typed(index, request.typed()));
        let same = matches!(&served, Reply::Answer { epoch, answer }
            if *epoch == registry.epoch() && *answer == direct);
        ops.check(same, || {
            format!("served {kind:?} answer differs from the direct one: {served:?}")
        });
        if let QueryAnswer::Quantile(v) = direct {
            // The wire must carry the same value.
            let reply =
                connect(addr).and_then(|mut c| round_trip(&mut c, &request_line(cfg, request)));
            let wire = reply
                .as_deref()
                .ok()
                .and_then(|r| r.split_whitespace().nth(3));
            ops.check(wire == Some(v.to_string().as_str()), || {
                format!("TCP {kind:?} reply {reply:?} does not carry {v}")
            });
        }
    }
    let span = tr.begin("dsms.checkpoint");
    let checkpoint = built.eng.checkpoint();
    tr.end(span);
    let span = tr.begin("oracle");
    let ratios = check_final_state(cfg, &mut built, &input, passes, &mut ops);
    tr.end(span);

    let mut late_ms: Vec<f64> = log.late.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    late_ms.sort_by(f64::total_cmp);
    let context = vec![
        format!(
            "{}: preload {n} elements, then {slices} slices of {:.3} s at {} el/s in batches of {}; \
             {connections} closed-loop TCP connection(s) thinking {THINK_TIME:?}, {} shard(s), window {}",
            cfg.name,
            slice_len.as_secs_f64(),
            cfg.elems_per_second,
            cfg.batch,
            cfg.shards,
            built.eng.window()
        ),
        format!(
            "{} replies answered (latency sample count), qps per slice {slice_qps:.1?}",
            lat_us.len()
        ),
        format!(
            "query latency, send to reply: p50 {:.1} us, p95 {:.1} us; highest percentile with \
             ten samples beyond it: {:?}",
            percentile(&lat_us, 50.0),
            percentile(&lat_us, 95.0),
            highest_supported_percentile(lat_us.len())
        ),
        format!(
            "ingest lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            percentile(&late_ms, 50.0),
            percentile(&late_ms, 99.0),
            late_ms[late_ms.len() - 1]
        ),
    ];

    if !args.traced {
        let stats = server.stats();
        ops.check(stats.lost() == 0, || format!("requests lost: {stats:?}"));
        m.set("setup_s", median(&setup_s));
        // Under the schedule the achieved rate is the schedule's. The
        // preload runs unpaced, lap by lap the fastest of the set-ups.
        let preload_s: f64 = fastest_each(&preloads).iter().sum();
        m.set("ingest_eps", n as f64 / preload_s);
        // Process CPU of the slice that took least, serving included.
        let slice_cpu_s = watch.cpu_s.iter().copied().fold(f64::INFINITY, f64::min);
        m.set("ingest_cpu_ns_per_elem", slice_cpu_s * 1e9 / n as f64);
        m.set("query_p50_us", percentile(&lat_us, 50.0));
        m.set("query_p95_us", percentile(&lat_us, 95.0));
        drop(front);
        drop(server);
        m.set("rss_peak_mb", rss_peak_mb());
        return Outcome {
            metrics: m,
            ops,
            context,
        };
    }

    // ---- The traced run's ledger --------------------------------------
    m.set("streams.gen_s", input.gen_s);
    m.set("streams.oracle_sort_s", input.oracle_sort_s);
    m.set("sketches.quantile_err_over_eps", ratios.quantile);
    m.set("sketches.freq_undercount_over_eps", ratios.freq_undercount);
    m.set("obs.spans_dropped", recorder.dropped_spans() as f64);
    m.set("dsms.push_batch_s", tr.total_s("dsms.push_batch", 0));
    m.set("core.flush_ms", tr.total_s("core.flush", 0) * 1e3);
    m.set("dsms.checkpoint_ms", tr.total_s("dsms.checkpoint", 0) * 1e3);
    m.set("dsms.ckpt_bytes", checkpoint.len() as f64);
    m.set("serve.ingest_late_p99_ms", percentile(&late_ms, 99.0));
    m.set("serve.query_qps", median(&slice_qps));
    m.set("serve.epochs_published", registry.epoch() as f64);
    probes::recorder_ledger(&recorder, cfg.shards, &mut m);
    m.set(
        "serve.queue_depth_max",
        recorder
            .gauge("serve_queue_depth")
            .map_or(0.0, |g| g.highwater as f64),
    );
    for kind in Kind::ALL {
        let mut us: Vec<f64> = logs
            .iter()
            .flat_map(|l| &l.answered)
            .filter(|s| s.kind == kind)
            .map(|s| (s.done - s.sent).as_secs_f64() * 1e6)
            .collect();
        if !us.is_empty() {
            us.sort_by(f64::total_cmp);
            m.set(kind_metric(kind).1, percentile(&us, 50.0));
        }
    }
    if supports_percentile(lat_us.len(), 99.0) {
        m.set("serve.lat_p99_us", percentile(&lat_us, 99.0));
    }

    // The same mix through the in-process client (no socket), and the
    // bare socket round trip (`epoch`: framing only, no query).
    let span = tr.begin("serve.call_inproc");
    let mut inproc_us = Vec::new();
    for request in request_mix(args.seed, &cfg.kinds(), cfg.hh_support, 200) {
        let wire = Request::from_typed(cfg.index_of(request.kind), request.typed());
        let (secs, reply) = timed(|| client.call(wire));
        ops.check(matches!(reply, Reply::Answer { .. }), || {
            format!("in-process {:?}: {reply:?}", request.kind)
        });
        inproc_us.push(secs * 1e6);
    }
    tr.end(span);
    let span = tr.begin("serve.tcp_rtt");
    let mut conn = connect(addr).expect("connect to own front");
    let rtt_s = median_secs(20, 2.0, || {
        let reply = round_trip(&mut conn, "epoch\n").expect("epoch round trip");
        assert!(reply.starts_with("epoch "), "unexpected reply {reply}");
    });
    drop(conn);
    tr.end(span);
    m.set("serve.call_inproc_us", median(&inproc_us));
    m.set("serve.tcp_rtt_us", rtt_s * 1e6);
    m.set(
        "serve.tcp_overhead_us",
        percentile(&lat_us, 50.0) - median(&inproc_us),
    );

    probes::sorting_and_sketches(cfg, &input, built.eng.window(), total, &mut m, &mut tr);
    probes::route(&input, &mut m, &mut tr);
    probes::dsms_state(cfg, &mut built, &checkpoint, &mut m, &mut tr);
    m.set(
        "dsms.publishes",
        recorder.counter("dsms_snapshots_published") as f64,
    );

    let stats = server.stats();
    ops.check(stats.lost() == 0, || format!("requests lost: {stats:?}"));
    m.set("serve.overloaded", stats.overloaded as f64);
    m.set("serve.expired", stats.expired as f64);
    m.set("serve.not_ready", stats.not_ready as f64);
    m.set("serve.lost", stats.lost() as f64);
    drop(front);
    drop(server);
    tr.write(&crate::sys::out_dir().join(format!("trace_{}.json", cfg.name)));
    Outcome {
        metrics: m,
        ops,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }
        fn sleep_until(&mut self, at: Duration) {
            self.0 = self.0.max(at);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_operations_start_at_their_due_times() {
        let log = open_loop(4, 10 * MS, &mut FakeClock(Duration::ZERO), |_, clock| {
            clock.0 += 2 * MS;
        });
        assert_eq!(log.late, vec![Duration::ZERO; 4]);
        assert_eq!(log.from_due, vec![2 * MS; 4]);
        assert_eq!(log.end, 32 * MS);
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_it_delays() {
        // Operation 1 stalls for 35 ms; every operation otherwise takes 2.
        let log = open_loop(6, 10 * MS, &mut FakeClock(Duration::ZERO), |i, clock| {
            clock.0 += if i == 1 { 35 * MS } else { 2 * MS };
        });
        // Due at 0, 10, 20, 30, 40, 50. Operation 1 runs 10..45, so 2 (due
        // 20) starts at 45, 3 (due 30) at 47, 4 (due 40) at 49; 5 (due 50)
        // starts at 51, the schedule has almost caught up.
        assert_eq!(
            log.late,
            vec![Duration::ZERO, Duration::ZERO, 25 * MS, 17 * MS, 9 * MS, MS]
        );
        // Timed from the due time, the stall shows in four latencies — a
        // closed loop would have reported 2 ms for each of them.
        assert_eq!(
            log.from_due,
            vec![2 * MS, 35 * MS, 27 * MS, 19 * MS, 11 * MS, 3 * MS]
        );
        assert_eq!(log.end, 53 * MS);
    }

    #[test]
    fn a_system_slower_than_the_schedule_falls_ever_further_behind() {
        let log = open_loop(5, 10 * MS, &mut FakeClock(Duration::ZERO), |_, clock| {
            clock.0 += 15 * MS;
        });
        assert_eq!(
            log.late,
            vec![Duration::ZERO, 5 * MS, 10 * MS, 15 * MS, 20 * MS]
        );
        assert!(*log.late.last().unwrap() < MAX_BACKLOG);
    }

    #[test]
    fn request_lines_follow_the_wire_protocol() {
        let line = |kind, param| request_line(&SERVE_MIXED, MixRequest { kind, param });
        assert_eq!(line(Kind::Quantile, 0.5), "quantile 0 0.5\n");
        assert_eq!(line(Kind::Hh, 0.01), "hh 1 0.01\n");
        assert_eq!(line(Kind::Shh, 0.05), "shh 4 0.05\n");
    }
}
