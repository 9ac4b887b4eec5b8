//! The worker-pool query server: bounded admission queue, deadlines, and
//! structured replies.
//!
//! The shape follows `gsm-sort`'s `WorkerPool` (fixed threads, one shared
//! queue behind a mutex + condvar, panic isolation per task) with one
//! serving-specific difference: the queue is *bounded* and admission
//! control happens at submit time. A server that queues without bound
//! converts overload into unbounded latency; this one converts it into an
//! immediate [`Reply::Overloaded`], which is the load-shedding posture the
//! paper takes on the ingest side (§1) applied to the query side.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gsm_dsms::{EngineSnapshot, QueryAnswer, QueryRequest, SnapshotError, SnapshotRegistry};
use gsm_obs::{EngineEvent, Recorder, TraceCtx};

/// Sizing and timeout knobs for a [`QueryServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing queries. Queries are short and CPU-bound,
    /// so this should track available cores, not expected concurrency.
    pub workers: usize,
    /// Admission-queue bound. A submit that finds the queue at capacity is
    /// shed with [`Reply::Overloaded`] instead of waiting.
    pub queue_capacity: usize,
    /// Deadline applied by [`Client::call`]. A request still queued when
    /// its deadline passes is answered [`Reply::Expired`] without
    /// executing.
    pub default_deadline: Duration,
    /// Where to write a flight-recorder postmortem
    /// ([`Recorder::dump_postmortem`]) when a worker isolates a panic.
    /// `None` (the default) records the event without dumping.
    pub postmortem_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(1),
            postmortem_path: None,
        }
    }
}

/// A query request, addressed by the query's registration index
/// (`QueryId::index()` on the engine side).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Whole-stream φ-quantile.
    Quantile {
        /// Registration index of the target query.
        query: usize,
        /// Quantile fraction in `[0, 1]`.
        phi: f64,
    },
    /// Whole-stream heavy hitters at a support threshold.
    HeavyHitters {
        /// Registration index of the target query.
        query: usize,
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
    /// Hierarchical heavy hitters at a support threshold.
    Hhh {
        /// Registration index of the target query.
        query: usize,
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
    /// Sliding-window φ-quantile.
    SlidingQuantile {
        /// Registration index of the target query.
        query: usize,
        /// Quantile fraction in `[0, 1]`.
        phi: f64,
    },
    /// Sliding-window heavy hitters at a support threshold.
    SlidingHeavyHitters {
        /// Registration index of the target query.
        query: usize,
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
}

impl Request {
    /// Builds the wire request addressing query index `query` with the
    /// typed engine-side request `req` — the inverse of [`Self::typed`].
    pub fn from_typed(query: usize, req: QueryRequest) -> Self {
        match req {
            QueryRequest::Quantile { phi } => Request::Quantile { query, phi },
            QueryRequest::HeavyHitters { support } => Request::HeavyHitters { query, support },
            QueryRequest::Hhh { support } => Request::Hhh { query, support },
            QueryRequest::SlidingQuantile { phi } => Request::SlidingQuantile { query, phi },
            QueryRequest::SlidingFrequency { support } => {
                Request::SlidingHeavyHitters { query, support }
            }
        }
    }

    /// Registration index of the target query.
    pub fn query_index(&self) -> usize {
        match *self {
            Request::Quantile { query, .. }
            | Request::HeavyHitters { query, .. }
            | Request::Hhh { query, .. }
            | Request::SlidingQuantile { query, .. }
            | Request::SlidingHeavyHitters { query, .. } => query,
        }
    }

    /// The typed engine-side request this wire request carries.
    pub fn typed(&self) -> QueryRequest {
        match *self {
            Request::Quantile { phi, .. } => QueryRequest::Quantile { phi },
            Request::HeavyHitters { support, .. } => QueryRequest::HeavyHitters { support },
            Request::Hhh { support, .. } => QueryRequest::Hhh { support },
            Request::SlidingQuantile { phi, .. } => QueryRequest::SlidingQuantile { phi },
            Request::SlidingHeavyHitters { support, .. } => {
                QueryRequest::SlidingFrequency { support }
            }
        }
    }

    /// Stable label for latency attribution (`serve_latency{kind=...}`).
    pub fn kind_label(&self) -> &'static str {
        self.typed().kind().name()
    }

    /// Executes against a frozen snapshot. This is the *entire* read path —
    /// one typed [`EngineSnapshot::request`] call, byte-identical to
    /// calling the same snapshot method directly, which is what the verify
    /// harness asserts.
    fn execute(&self, snap: &EngineSnapshot) -> Result<QueryAnswer, SnapshotError> {
        snap.request(self.query_index(), self.typed())
    }
}

/// Every request gets exactly one of these — the zero-silent-drop
/// contract ([`ServerStats::lost`] proves it).
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The query executed against the snapshot of the given epoch.
    Answer {
        /// Publication epoch of the snapshot that answered.
        epoch: u64,
        /// The answer itself.
        answer: QueryAnswer,
    },
    /// Shed at admission: the queue was at capacity (or the server was
    /// shutting down). The caller should back off and retry.
    Overloaded {
        /// Queue depth observed at shed time.
        queue_depth: usize,
    },
    /// The request waited in the queue past its deadline and was not
    /// executed.
    Expired,
    /// No publishable data yet: either nothing has been published, or the
    /// target summary has no sealed window to answer from.
    NotReady,
    /// The request itself is invalid (unknown query index, kind mismatch,
    /// or an out-of-range parameter rejected by the summary).
    BadQuery(String),
}

/// Monotone reply accounting. `submitted` counts admissions *and* sheds;
/// the other fields partition replies by variant, so
/// [`ServerStats::lost`] == 0 is exactly the "no silent drops" invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests submitted (including those shed at admission).
    pub submitted: u64,
    /// [`Reply::Answer`] replies.
    pub answered: u64,
    /// [`Reply::Overloaded`] replies.
    pub overloaded: u64,
    /// [`Reply::Expired`] replies.
    pub expired: u64,
    /// [`Reply::NotReady`] replies.
    pub not_ready: u64,
    /// [`Reply::BadQuery`] replies.
    pub bad_query: u64,
}

impl ServerStats {
    /// Total structured replies produced.
    pub fn replied(&self) -> u64 {
        self.answered + self.overloaded + self.expired + self.not_ready + self.bad_query
    }

    /// Requests that got no reply — must be 0 for a drained server.
    pub fn lost(&self) -> u64 {
        self.submitted.saturating_sub(self.replied())
    }
}

#[derive(Default)]
struct StatsCells {
    submitted: AtomicU64,
    answered: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    not_ready: AtomicU64,
    bad_query: AtomicU64,
}

struct Pending {
    request: Request,
    enqueued: Instant,
    deadline: Instant,
    /// The request's trace, with the admission span as parent — workers
    /// continue the chain from here.
    trace: TraceCtx,
    reply_tx: mpsc::Sender<Reply>,
}

struct QueueState {
    jobs: VecDeque<Pending>,
    closed: bool,
}

struct Inner {
    registry: Arc<SnapshotRegistry>,
    queue: Mutex<QueueState>,
    available: Condvar,
    cfg: ServeConfig,
    stats: StatsCells,
    obs: Recorder,
}

impl Inner {
    /// Admission control: either enqueue and return the reply receiver, or
    /// shed immediately. Holds the queue lock only for the length check
    /// and push — workers contend on the same lock, so this must stay
    /// tiny.
    fn submit(
        &self,
        request: Request,
        deadline: Duration,
        trace: TraceCtx,
    ) -> Result<mpsc::Receiver<Reply>, Reply> {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.obs.count("serve_submitted", 1);
        let admit = self.obs.span_traced("serve_admit", trace);
        let mut q = self.queue.lock().expect("serve queue lock");
        if q.closed || q.jobs.len() >= self.cfg.queue_capacity {
            let depth = q.jobs.len();
            drop(q);
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            self.obs.count("serve_overloaded", 1);
            self.obs.record_event(EngineEvent::Shed {
                source: "serve_admission",
                dropped: 1,
            });
            return Err(Reply::Overloaded { queue_depth: depth });
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let now = Instant::now();
        q.jobs.push_back(Pending {
            request,
            enqueued: now,
            deadline: now + deadline,
            trace: admit.child_ctx(),
            reply_tx,
        });
        self.obs.gauge_add("serve_queue_depth", 1);
        drop(q);
        self.available.notify_one();
        Ok(reply_rx)
    }

    /// Current admission-queue depth (requests admitted but not yet
    /// dequeued by a worker).
    fn queue_depth(&self) -> usize {
        self.queue.lock().expect("serve queue lock").jobs.len()
    }

    fn record(&self, reply: &Reply) {
        let (cell, name) = match reply {
            Reply::Answer { .. } => (&self.stats.answered, "serve_answers"),
            Reply::Overloaded { .. } => (&self.stats.overloaded, "serve_overloaded"),
            Reply::Expired => (&self.stats.expired, "serve_expired"),
            Reply::NotReady => (&self.stats.not_ready, "serve_not_ready"),
            Reply::BadQuery(_) => (&self.stats.bad_query, "serve_bad_query"),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        self.obs.count(name, 1);
    }
}

/// Worker body: pop → deadline check → execute against the latest
/// snapshot → reply. Runs until the queue is closed *and* drained, so
/// shutdown never strands an admitted request without a reply.
fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("serve queue lock");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = inner.available.wait(q).expect("serve queue lock");
            }
        };
        let Some(job) = job else { return };
        inner.obs.gauge_add("serve_queue_depth", -1);
        let started = Instant::now();
        inner
            .obs
            .observe_ns("serve_wait", (started - job.enqueued).as_nanos() as u64);
        let exec = inner.obs.span_traced("serve_exec", job.trace);
        let reply = if started >= job.deadline {
            Reply::Expired
        } else {
            execute_one(inner, &job.request, exec.child_ctx())
        };
        exec.finish();
        inner.record(&reply);
        // A send error means the requester vanished (e.g. a TCP handler
        // whose connection dropped); the reply was still produced and
        // counted, so the zero-loss accounting holds.
        let _ = job.reply_tx.send(reply);
    }
}

fn execute_one(inner: &Inner, request: &Request, trace: TraceCtx) -> Reply {
    let Some(snap) = inner.registry.latest() else {
        return Reply::NotReady;
    };
    let started = Instant::now();
    let query_span = inner.obs.span_traced("serve_query", trace);
    // Summaries assert on out-of-range parameters (e.g. support ≤ ε);
    // catch the panic so one bad request answers BadQuery instead of
    // killing the worker.
    let outcome = catch_unwind(AssertUnwindSafe(|| request.execute(&snap)));
    query_span.finish();
    inner.obs.observe_ns_labeled(
        "serve_latency",
        ("kind", request.kind_label()),
        started.elapsed().as_nanos() as u64,
    );
    match outcome {
        Ok(Ok(answer)) => Reply::Answer {
            epoch: snap.epoch(),
            answer,
        },
        Ok(Err(SnapshotError::Empty)) => Reply::NotReady,
        Ok(Err(err)) => Reply::BadQuery(err.to_string()),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("query panicked");
            inner.obs.record_event(EngineEvent::WorkerPanic {
                worker: thread::current()
                    .name()
                    .unwrap_or("gsm-serve-worker")
                    .to_string(),
                message: msg.to_string(),
            });
            if let Some(path) = &inner.cfg.postmortem_path {
                // Best-effort: a failing dump must not take the reply with
                // it — the panic is already isolated and accounted.
                let _ = inner
                    .obs
                    .dump_postmortem(path, "worker panic isolated to one request");
            }
            Reply::BadQuery(msg.to_string())
        }
    }
}

/// The serving frontend: a fixed worker pool answering queries against the
/// registry's latest snapshot.
///
/// ```
/// use gsm_core::Engine;
/// use gsm_dsms::EngineBuilder;
/// use gsm_serve::{QueryServer, Request, Reply, ServeConfig};
///
/// let mut eng = EngineBuilder::new(Engine::Host).build().expect("valid configuration");
/// let q = eng.register_quantile(0.02);
/// let server = QueryServer::start(eng.serve(), ServeConfig::default());
/// let client = server.client();
/// let stream: Vec<f32> = (0..4096).map(|i| i as f32).collect();
/// eng.push_batch(&stream);
/// match client.call(Request::Quantile { query: q.index(), phi: 0.5 }) {
///     Reply::Answer { answer, .. } => println!("median ≈ {answer:?}"),
///     other => println!("{other:?}"),
/// }
/// ```
///
/// Dropping the server closes the queue, drains already-admitted requests
/// (each still gets its reply), and joins the workers. Clients that
/// submit during or after shutdown get [`Reply::Overloaded`].
pub struct QueryServer {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Starts `cfg.workers` worker threads over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` or `cfg.queue_capacity` is zero.
    pub fn start(registry: Arc<SnapshotRegistry>, cfg: ServeConfig) -> Self {
        Self::with_recorder(registry, cfg, Recorder::disabled())
    }

    /// [`Self::start`] with an observability recorder: emits `serve_*`
    /// counters for every reply variant, a `serve_queue_depth` gauge, and
    /// `serve_wait` / `serve_latency{kind=...}` histograms.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` or `cfg.queue_capacity` is zero.
    pub fn with_recorder(registry: Arc<SnapshotRegistry>, cfg: ServeConfig, obs: Recorder) -> Self {
        assert!(cfg.workers >= 1, "a server needs at least one worker");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be at least 1");
        let inner = Arc::new(Inner {
            registry,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cfg,
            stats: StatsCells::default(),
            obs,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("gsm-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        QueryServer { inner, workers }
    }

    /// A cloneable, thread-safe handle for submitting requests.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The snapshot registry this server reads from.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.inner.registry
    }

    /// A consistent point-in-time read of the reply accounting.
    ///
    /// `lost()` can transiently exceed 0 while requests are in flight; on
    /// a drained (or dropped-and-joined) server it must be exactly 0.
    pub fn stats(&self) -> ServerStats {
        stats_snapshot(&self.inner.stats)
    }

    /// Current admission-queue depth (admitted, not yet dequeued).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
}

fn stats_snapshot(cells: &StatsCells) -> ServerStats {
    ServerStats {
        submitted: cells.submitted.load(Ordering::Relaxed),
        answered: cells.answered.load(Ordering::Relaxed),
        overloaded: cells.overloaded.load(Ordering::Relaxed),
        expired: cells.expired.load(Ordering::Relaxed),
        not_ready: cells.not_ready.load(Ordering::Relaxed),
        bad_query: cells.bad_query.load(Ordering::Relaxed),
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.inner.queue.lock().expect("serve queue lock").closed = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// In-process request handle. Cloning is cheap (one `Arc` bump); clones
/// share the server's queue, stats, and lifetime.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Submits a request under the server's default deadline and blocks
    /// for its structured reply. A fresh [`TraceCtx`] is generated at
    /// admission; use [`Client::call_traced`] to keep the id.
    pub fn call(&self, request: Request) -> Reply {
        let deadline = self.inner.cfg.default_deadline;
        self.call_traced(request, deadline, TraceCtx::fresh())
    }

    /// Submits a request with an explicit deadline. The deadline bounds
    /// *queue wait*: a request still queued when it passes is answered
    /// [`Reply::Expired`]; once execution starts it runs to completion
    /// (snapshot queries are short and never block on ingestion).
    pub fn call_within(&self, request: Request, deadline: Duration) -> Reply {
        self.call_traced(request, deadline, TraceCtx::fresh())
    }

    /// [`Client::call_within`] under a caller-supplied trace context —
    /// the id that admission, dequeue, and query-execution spans all
    /// record, linking one request's hops in `chrome_trace_json`. Callers
    /// that surface replies elsewhere (e.g. the TCP front) echo
    /// `ctx.trace_id` alongside the reply.
    pub fn call_traced(&self, request: Request, deadline: Duration, ctx: TraceCtx) -> Reply {
        match self.inner.submit(request, deadline, ctx) {
            Err(shed) => shed,
            Ok(reply_rx) => match reply_rx.recv() {
                Ok(reply) => reply,
                // Unreachable in practice: workers reply before dropping
                // the sender, and drain the queue on shutdown. Account it
                // so `lost()` stays honest even if that ever regresses.
                Err(_) => {
                    let reply = Reply::BadQuery("server dropped the request".to_string());
                    self.inner.record(&reply);
                    reply
                }
            },
        }
    }

    /// Epoch of the latest published snapshot (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.inner.registry.epoch()
    }

    /// The deadline [`Client::call`] applies ([`ServeConfig::default_deadline`]).
    pub fn default_deadline(&self) -> Duration {
        self.inner.cfg.default_deadline
    }

    /// A consistent point-in-time read of the reply accounting.
    pub fn stats(&self) -> ServerStats {
        stats_snapshot(&self.inner.stats)
    }

    /// Current admission-queue depth (admitted, not yet dequeued).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::Engine;
    use gsm_dsms::{EngineBuilder, StreamEngine};

    fn serving_engine(n: usize) -> (StreamEngine, usize, usize, Arc<SnapshotRegistry>) {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(n as u64)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.001);
        let reg = eng.serve();
        let stream: Vec<f32> = (0..n).map(|i| (i % 100) as f32).collect();
        eng.push_batch(&stream);
        eng.flush();
        eng.publish_now();
        (eng, q.index(), f.index(), reg)
    }

    #[test]
    fn answers_match_direct_snapshot_queries() {
        let (_eng, q, f, reg) = serving_engine(20_000);
        let server = QueryServer::start(Arc::clone(&reg), ServeConfig::default());
        let client = server.client();
        let snap = reg.latest().expect("published");
        match client.call(Request::Quantile { query: q, phi: 0.5 }) {
            Reply::Answer { epoch, answer } => {
                assert_eq!(epoch, snap.epoch());
                let direct = snap.request(q, QueryRequest::Quantile { phi: 0.5 });
                assert_eq!(answer, direct.unwrap());
            }
            other => panic!("expected an answer, got {other:?}"),
        }
        match client.call(Request::HeavyHitters {
            query: f,
            support: 0.009,
        }) {
            Reply::Answer { answer, .. } => {
                let direct = snap.request(f, QueryRequest::HeavyHitters { support: 0.009 });
                assert_eq!(answer, direct.unwrap());
            }
            other => panic!("expected an answer, got {other:?}"),
        }
        drop(server);
    }

    #[test]
    fn bad_requests_get_structured_replies_and_workers_survive() {
        let (_eng, q, f, reg) = serving_engine(5_000);
        let server = QueryServer::start(reg, ServeConfig::default());
        let client = server.client();
        // Unknown index.
        assert!(matches!(
            client.call(Request::Quantile {
                query: 99,
                phi: 0.5
            }),
            Reply::BadQuery(_)
        ));
        // Kind mismatch.
        assert!(matches!(
            client.call(Request::HeavyHitters {
                query: q,
                support: 0.01
            }),
            Reply::BadQuery(_)
        ));
        // Out-of-range support panics inside the summary → caught.
        assert!(matches!(
            client.call(Request::HeavyHitters {
                query: f,
                support: 0.0
            }),
            Reply::BadQuery(_)
        ));
        // The pool must still answer after all that.
        assert!(matches!(
            client.call(Request::Quantile { query: q, phi: 0.5 }),
            Reply::Answer { .. }
        ));
        let stats = server.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.bad_query, 3);
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn unpublished_registry_answers_not_ready() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let reg = eng.serve();
        // Published, but nothing sealed: quantiles have no data.
        let server = QueryServer::start(reg, ServeConfig::default());
        assert_eq!(
            server.client().call(Request::Quantile {
                query: q.index(),
                phi: 0.5
            }),
            Reply::NotReady
        );
    }

    #[test]
    fn saturation_sheds_with_overloaded_not_blocking() {
        let (_eng, q, _f, reg) = serving_engine(5_000);
        // One worker, capacity 1: park the worker on a job, fill the one
        // slot, and every further submit must shed immediately.
        let server = QueryServer::start(
            reg,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                default_deadline: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let blocker = {
            let c = client.clone();
            thread::spawn(move || {
                // Saturate: issue enough calls that some must overlap.
                (0..64)
                    .map(|_| c.call(Request::Quantile { query: q, phi: 0.5 }))
                    .collect::<Vec<_>>()
            })
        };
        let mine: Vec<Reply> = (0..64)
            .map(|_| client.call(Request::Quantile { query: q, phi: 0.5 }))
            .collect();
        let theirs = blocker.join().expect("client thread");
        drop(server);
        let all: Vec<&Reply> = mine.iter().chain(theirs.iter()).collect();
        assert!(all
            .iter()
            .all(|r| matches!(r, Reply::Answer { .. } | Reply::Overloaded { .. })));
    }

    #[test]
    fn queued_requests_expire_past_their_deadline() {
        let (_eng, q, _f, reg) = serving_engine(5_000);
        let server = QueryServer::start(
            reg,
            ServeConfig {
                workers: 1,
                queue_capacity: 8,
                default_deadline: Duration::from_secs(1),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        // A zero deadline expires at dequeue time, deterministically.
        let reply = client.call_within(Request::Quantile { query: q, phi: 0.5 }, Duration::ZERO);
        assert_eq!(reply, Reply::Expired);
        let stats = server.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_sheds_new_ones() {
        let (_eng, q, _f, reg) = serving_engine(5_000);
        let server = QueryServer::start(reg, ServeConfig::default());
        let client = server.client();
        assert!(matches!(
            client.call(Request::Quantile { query: q, phi: 0.5 }),
            Reply::Answer { .. }
        ));
        drop(server);
        assert!(matches!(
            client.call(Request::Quantile { query: q, phi: 0.5 }),
            Reply::Overloaded { .. }
        ));
        let stats = client.stats();
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn traced_calls_link_admit_exec_and_query_spans() {
        let rec = Recorder::enabled();
        let (_eng, q, _f, reg) = serving_engine(5_000);
        let server = QueryServer::with_recorder(reg, ServeConfig::default(), rec.clone());
        let client = server.client();
        let ctx = TraceCtx::fresh();
        let reply = client.call_traced(
            Request::Quantile { query: q, phi: 0.5 },
            Duration::from_secs(5),
            ctx,
        );
        assert!(matches!(reply, Reply::Answer { .. }));
        drop(server);
        let spans = rec.spans();
        let of = |name: &str| {
            spans
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("span {name} recorded"))
        };
        let (admit, exec, query) = (of("serve_admit"), of("serve_exec"), of("serve_query"));
        for e in [admit, exec, query] {
            assert_eq!(e.trace.map(|t| t.trace_id), Some(ctx.trace_id));
        }
        // The chain: root → admit → exec → query, linked by span ids.
        assert_eq!(admit.trace.unwrap().parent, 0);
        assert_eq!(exec.trace.unwrap().parent, admit.span_id);
        assert_eq!(query.trace.unwrap().parent, exec.span_id);
        let trace = rec.chrome_trace_json();
        assert!(trace.contains(&format!("\"id\":\"{}\"", ctx.hex())));
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\""));
    }

    #[test]
    fn worker_panic_records_event_and_dumps_postmortem() {
        let rec = Recorder::enabled();
        let (_eng, _q, f, reg) = serving_engine(5_000);
        let path = std::env::temp_dir().join(format!(
            "gsm-serve-postmortem-{}-{:x}.json",
            std::process::id(),
            TraceCtx::fresh().trace_id
        ));
        let server = QueryServer::with_recorder(
            reg,
            ServeConfig {
                postmortem_path: Some(path.clone()),
                ..ServeConfig::default()
            },
            rec.clone(),
        );
        // Out-of-range support panics inside the summary: isolated to one
        // BadQuery reply, logged, and dumped.
        let reply = server.client().call(Request::HeavyHitters {
            query: f,
            support: 0.0,
        });
        assert!(matches!(reply, Reply::BadQuery(_)));
        drop(server);
        let events = rec.flight_events();
        let panic_event = events
            .iter()
            .find(|e| e.event.kind() == "worker_panic")
            .expect("panic recorded in the flight ring");
        assert!(matches!(
            &panic_event.event,
            EngineEvent::WorkerPanic { worker, .. } if worker.starts_with("gsm-serve-")
        ));
        let doc = std::fs::read_to_string(&path).expect("postmortem written");
        assert!(doc.starts_with("{\"schema\":1,\"created_by\":\"gsm-obs/flight-recorder\""));
        assert!(doc.contains("\"kind\":\"worker_panic\""));
        assert!(doc.contains("worker panic isolated"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recorder_sees_the_serve_metrics() {
        let rec = Recorder::enabled();
        let (_eng, q, _f, reg) = serving_engine(5_000);
        let server = QueryServer::with_recorder(reg, ServeConfig::default(), rec.clone());
        let client = server.client();
        for _ in 0..5 {
            let _ = client.call(Request::Quantile { query: q, phi: 0.5 });
        }
        drop(server);
        assert_eq!(rec.counter("serve_submitted"), 5);
        assert_eq!(rec.counter("serve_answers"), 5);
        assert_eq!(
            rec.histogram_labeled("serve_latency", ("kind", "quantile"))
                .unwrap()
                .count,
            5
        );
        assert_eq!(rec.histogram("serve_wait").unwrap().count, 5);
        assert_eq!(rec.gauge("serve_queue_depth").unwrap().current, 0);
    }
}
