//! The analysis daemon: admission control, the worker pool and connection
//! handling.
//!
//! Architecture (one process):
//!
//! ```text
//! client ──TCP/stdio/pipe──► connection reader thread
//!            │ load_model / edit_model / cancel / stats / shutdown: inline
//!            ├ query / query_batch the cache answers in full: inline
//!            └ any other query / query_batch ──► bounded admission queue ──► workers
//!                                                  │ (queue full → typed `overloaded`)
//!                                                  ▼
//!                                        AnalysisDb::run  (one shared db per config)
//! ```
//!
//! Invariants:
//!
//! * **Admission.**  A request whose every query the database already holds
//!   a complete answer for ([`AnalysisDb::is_cached`]) is answered on its
//!   connection's reader thread: it cannot explore, so it never waits
//!   behind explorations and is never refused as `overloaded`.  Every other
//!   request goes through the queue: at most `workers` explorations run
//!   concurrently and at most `queue_cap` wait; a request arriving beyond
//!   that is answered immediately with a typed `overloaded` error instead of
//!   queueing unboundedly.  Cancelling a queued request frees its slot
//!   without running it; cancelling an in-flight request trips the
//!   cooperative cancellation flag threaded into the explorer, which aborts
//!   at the next state pop.  An inline answer is complete before its reader
//!   reads the next frame, so there is nothing left to cancel.
//! * **Isolation.**  Each job runs behind an unwind barrier: a panic inside
//!   an engine becomes a typed `panicked` response and the worker (or the
//!   reader thread, for an inline answer) survives (the robustness contract
//!   — never wrong, only slower, looser, or explicitly declined — holds
//!   over the wire).
//! * **One `AnalysisDb` per config.**  Models loaded with the same cap-factor
//!   overrides share one content-addressed database, so identical input
//!   cones hit across models and across connections; `edit_model` re-keys
//!   the cone index and untouched cones stay warm.

use crate::json::{self, JsonValue};
use crate::protocol::{self, Request, RequestOpts};
use crate::wire::{self, WireError};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tempo_arch::engine::{Query, RunContext};
use tempo_arch::incremental::AnalysisDb;
use tempo_arch::model::ArchitectureModel;
use tempo_arch::AnalysisConfig;
use tempo_check::{panic_message, FaultPlan};
use tempo_obs::MetricsRegistry;

/// Largest request frame, in bytes without its newline.  A longer frame is
/// refused with a `bad_request` error and the connection is closed, so a
/// newline-free stream cannot grow the reader's buffer without limit.
const MAX_FRAME_BYTES: usize = 16 << 20;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing the queries the cache cannot answer.
    pub workers: usize,
    /// Maximum queries waiting for a worker; a request beyond this is
    /// answered with a typed `overloaded` error.
    pub queue_cap: usize,
    /// Wall-clock budget of a request that names none (`budget_ms`).
    pub default_wall_budget: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_cap: 16,
            default_wall_budget: None,
        }
    }
}

/// A line sink shared between the connection reader (inline responses), the
/// workers (query responses) and the progress callbacks.
#[derive(Clone)]
pub(crate) struct SharedWriter {
    inner: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl SharedWriter {
    fn new(w: impl Write + Send + 'static) -> SharedWriter {
        SharedWriter {
            inner: Arc::new(Mutex::new(Box::new(w))),
        }
    }

    /// Writes one line + flush; errors are ignored (a disconnected client
    /// cannot be answered, and the reader side will see EOF and wind down).
    fn write_line(&self, line: &str) {
        // One write per frame: splitting the newline into its own write
        // triggers the Nagle/delayed-ACK stall (~40 ms per round trip) on
        // TCP transports.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        let mut w = self.inner.lock().expect("writer lock");
        let _ = w.write_all(frame.as_bytes());
        let _ = w.flush();
    }
}

/// One admitted unit of work.
struct Job {
    id: u64,
    model: String,
    queries: Vec<Query>,
    batch: bool,
    opts: RequestOpts,
    cancel: Arc<AtomicBool>,
    out: SharedWriter,
    /// The owning connection's cancel registry, for deregistration.
    registry: Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>,
}

/// The bounded admission queue and its counters.
struct Admission {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    active: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled_before_start: AtomicU64,
}

/// A loaded model and the shared database serving it.
#[derive(Clone)]
struct ModelEntry {
    model: Arc<ArchitectureModel>,
    db: Arc<AnalysisDb>,
    config_label: String,
}

pub(crate) struct ServerState {
    cfg: ServerConfig,
    started: Instant,
    models: Mutex<HashMap<String, ModelEntry>>,
    /// One shared `AnalysisDb` per (initial_cap_factor, max_cap_factor).
    dbs: Mutex<HashMap<(i64, i64), Arc<AnalysisDb>>>,
    registry: Arc<MetricsRegistry>,
    admission: Admission,
    shutdown: AtomicBool,
    /// Local address of the TCP listener, used to wake its accept loop on
    /// shutdown.
    listen_addr: Mutex<Option<SocketAddr>>,
}

/// The analysis daemon.  Construct with [`Server::new`] (spawns the worker
/// pool), serve clients with [`Server::listen`] /
/// [`ServerHandle::serve_connection`], and reclaim the workers with
/// [`Server::join`] after shutdown.
pub struct Server {
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheaply cloneable handle for driving connections from other threads.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl Server {
    /// Starts the worker pool and installs the metrics registry.
    pub fn new(cfg: ServerConfig) -> Server {
        let registry = Arc::new(MetricsRegistry::new());
        tempo_obs::install(registry.clone());
        let worker_count = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            cfg,
            started: Instant::now(),
            models: Mutex::new(HashMap::new()),
            dbs: Mutex::new(HashMap::new()),
            registry,
            admission: Admission {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                active: AtomicUsize::new(0),
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                cancelled_before_start: AtomicU64::new(0),
            },
            shutdown: AtomicBool::new(false),
            listen_addr: Mutex::new(None),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let state = state.clone();
                thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Server { state, workers }
    }

    /// A handle for serving connections from spawned threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// Serves one connection on the calling thread (see
    /// [`ServerHandle::serve_connection`]).
    pub fn serve_connection(&self, reader: impl BufRead, writer: impl Write + Send + 'static) {
        self.handle().serve_connection(reader, writer);
    }

    /// Accept loop: serves each TCP connection on its own thread until a
    /// client requests shutdown.
    pub fn listen(&self, listener: TcpListener) -> std::io::Result<()> {
        if let Ok(addr) = listener.local_addr() {
            *self.state.listen_addr.lock().expect("addr lock") = Some(addr);
        }
        for conn in listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Response frames are single small writes; without this the
            // request/response round trip eats the delayed-ACK penalty.
            let _ = stream.set_nodelay(true);
            let handle = self.handle();
            thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(r) => BufReader::new(r),
                    Err(_) => return,
                };
                handle.serve_connection(reader, stream);
            });
        }
        Ok(())
    }

    /// Binds a loopback listener, runs the accept loop on a new thread, and
    /// returns the bound address — the one-liner tests and benches use.
    pub fn spawn_local(self) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let handle = thread::spawn(move || {
            let _ = self.listen(listener);
            self.join();
        });
        Ok((addr, handle))
    }

    /// `true` once a client has requested shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the worker pool to drain and exit.  Call after shutdown has
    /// been requested (by a client, or via [`Server::begin_shutdown`]).
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Initiates shutdown without a client request.
    pub fn begin_shutdown(&self) {
        self.state.begin_shutdown();
    }
}

impl ServerHandle {
    /// Serves one connection on the calling thread: reads one request per
    /// line, answers management operations and fully cached queries inline,
    /// and submits every other query to the admission queue.  Returns when
    /// the client disconnects, a shutdown is requested, or a frame exceeds
    /// `MAX_FRAME_BYTES` (16 MiB).
    pub fn serve_connection(&self, mut reader: impl BufRead, writer: impl Write + Send + 'static) {
        let out = SharedWriter::new(writer);
        let cancels: Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let mut frame = Vec::new();
        loop {
            frame.clear();
            let limit = MAX_FRAME_BYTES as u64 + 1;
            match (&mut reader).take(limit).read_until(b'\n', &mut frame) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if frame.len() > MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
                out.write_line(&protocol::response_err(
                    None,
                    &WireError::bad_request(format!(
                        "frame exceeds {MAX_FRAME_BYTES} bytes without a newline"
                    )),
                ));
                break;
            }
            let Ok(line) = std::str::from_utf8(&frame) else {
                break;
            };
            if line.trim().is_empty() {
                continue;
            }
            let req = match protocol::parse_request(line.trim_end()) {
                Ok(r) => r,
                Err((id, e)) => {
                    out.write_line(&protocol::response_err(id, &e));
                    continue;
                }
            };
            match req {
                Request::LoadModel {
                    id,
                    model,
                    initial_cap_factor,
                    max_cap_factor,
                } => {
                    let line = match self.state.load_model(model, initial_cap_factor, max_cap_factor)
                    {
                        Ok(result) => protocol::response_ok(id, result),
                        Err(e) => protocol::response_err(Some(id), &e),
                    };
                    out.write_line(&line);
                }
                Request::EditModel { id, model } => {
                    let line = match self.state.edit_model(model) {
                        Ok(result) => protocol::response_ok(id, result),
                        Err(e) => protocol::response_err(Some(id), &e),
                    };
                    out.write_line(&line);
                }
                Request::Cancel { id, target } => {
                    let found = cancels.lock().expect("cancel lock").get(&target).cloned();
                    let state = match found {
                        Some(flag) => {
                            flag.store(true, Ordering::SeqCst);
                            "signalled"
                        }
                        None => "unknown",
                    };
                    out.write_line(&protocol::response_ok(
                        id,
                        JsonValue::obj([
                            ("cancelled", target.into()),
                            ("state", state.into()),
                        ]),
                    ));
                }
                Request::Stats { id } => {
                    out.write_line(&protocol::response_ok(id, self.state.stats_json()));
                }
                Request::Shutdown { id } => {
                    out.write_line(&protocol::response_ok(
                        id,
                        JsonValue::obj([("shutdown", true.into())]),
                    ));
                    self.state.begin_shutdown();
                    break;
                }
                Request::Query { id, model, query, opts } => {
                    self.submit(&out, &cancels, id, model, vec![query], false, opts);
                }
                Request::QueryBatch {
                    id,
                    model,
                    queries,
                    opts,
                } => {
                    self.submit(&out, &cancels, id, model, queries, true, opts);
                }
            }
        }
        // The reader is gone: any still-queued request of this connection
        // would write into a dead socket; cancelling them frees their slots.
        for flag in cancels.lock().expect("cancel lock").values() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        out: &SharedWriter,
        cancels: &Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>,
        id: u64,
        model: String,
        queries: Vec<Query>,
        batch: bool,
        opts: RequestOpts,
    ) {
        if self.state.shutdown.load(Ordering::SeqCst) {
            out.write_line(&protocol::response_err(
                Some(id),
                &WireError::new("shutting_down", "server is shutting down"),
            ));
            return;
        }
        let job = Job {
            id,
            model,
            queries,
            batch,
            opts,
            cancel: Arc::new(AtomicBool::new(false)),
            out: out.clone(),
            registry: cancels.clone(),
        };
        // A request the cache answers in full is answered here, on the
        // reader thread, instead of waking a worker.  The database only ever
        // inserts answers, so a query probed as cached stays cached and this
        // run can never explore; the probe and the run share one model
        // snapshot, so a concurrent `edit_model` cannot slip in between.  The
        // answer is complete before this thread reads another frame, so it
        // registers no cancel flag.
        if let Some(entry) = self.state.entry(&job.model) {
            if job.queries.iter().all(|q| entry.db.is_cached(&entry.model, q)) {
                self.state
                    .admission
                    .admitted
                    .fetch_add(1, Ordering::Relaxed);
                out.write_line(&self.state.answer(&job, Some(&entry)));
                return;
            }
        }
        cancels
            .lock()
            .expect("cancel lock")
            .insert(id, job.cancel.clone());
        if let Err(depth) = self.state.admit(job) {
            cancels.lock().expect("cancel lock").remove(&id);
            self.state
                .admission
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            out.write_line(&protocol::response_err(
                Some(id),
                &WireError::new(
                    "overloaded",
                    format!("admission queue full ({depth} waiting)"),
                ),
            ));
        }
    }
}

impl ServerState {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Flush queued jobs with a typed response and wake the workers so
        // they can observe the flag and exit.
        let drained: Vec<Job> = {
            let mut q = self.admission.queue.lock().expect("queue lock");
            q.drain(..).collect()
        };
        for job in drained {
            job.out.write_line(&protocol::response_err(
                Some(job.id),
                &WireError::new("shutting_down", "server is shutting down"),
            ));
            job.registry.lock().expect("cancel lock").remove(&job.id);
        }
        self.admission.available.notify_all();
        // Wake the accept loop with a no-op connection so `listen` returns.
        let addr = *self.listen_addr.lock().expect("addr lock");
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    fn admit(&self, job: Job) -> Result<(), usize> {
        let mut q = self.admission.queue.lock().expect("queue lock");
        if q.len() >= self.cfg.queue_cap {
            return Err(q.len());
        }
        q.push_back(job);
        self.admission.admitted.fetch_add(1, Ordering::Relaxed);
        self.admission.available.notify_one();
        Ok(())
    }

    fn config_for(&self, icf: Option<i64>, mcf: Option<i64>) -> (AnalysisConfig, (i64, i64), String) {
        let mut cfg = AnalysisConfig::default();
        if let Some(f) = icf {
            cfg.initial_cap_factor = f;
        }
        if let Some(f) = mcf {
            cfg.max_cap_factor = f;
        }
        let key = (cfg.initial_cap_factor, cfg.max_cap_factor);
        let label = format!("icf={},mcf={}", key.0, key.1);
        (cfg, key, label)
    }

    fn load_model(
        &self,
        model: ArchitectureModel,
        icf: Option<i64>,
        mcf: Option<i64>,
    ) -> Result<JsonValue, WireError> {
        model
            .validate()
            .map_err(|e| WireError::new("model", e.to_string()))?;
        let (cfg, key, label) = self.config_for(icf, mcf);
        let db = {
            let mut dbs = self.dbs.lock().expect("dbs lock");
            dbs.entry(key)
                .or_insert_with(|| Arc::new(AnalysisDb::new(cfg)))
                .clone()
        };
        let name = model.name.clone();
        let requirements = model.requirements.len();
        self.models.lock().expect("models lock").insert(
            name.clone(),
            ModelEntry {
                model: Arc::new(model),
                db,
                config_label: label.clone(),
            },
        );
        Ok(JsonValue::obj([
            ("loaded", name.as_str().into()),
            ("requirements", requirements.into()),
            ("config", label.as_str().into()),
        ]))
    }

    fn edit_model(&self, model: ArchitectureModel) -> Result<JsonValue, WireError> {
        model
            .validate()
            .map_err(|e| WireError::new("model", e.to_string()))?;
        let mut models = self.models.lock().expect("models lock");
        let entry = models.get_mut(&model.name).ok_or_else(|| {
            WireError::new(
                "unknown_model",
                format!("no loaded model named `{}`", model.name),
            )
        })?;
        // Same entry, same shared db: the content-addressed cone index
        // re-keys itself on the next query; untouched cones stay warm.
        let name = model.name.clone();
        entry.model = Arc::new(model);
        Ok(JsonValue::obj([("reloaded", name.as_str().into())]))
    }

    fn stats_json(&self) -> JsonValue {
        let models: Vec<JsonValue> = {
            let models = self.models.lock().expect("models lock");
            let mut rows: Vec<_> = models
                .iter()
                .map(|(name, e)| {
                    JsonValue::obj([
                        ("name", name.as_str().into()),
                        ("requirements", e.model.requirements.len().into()),
                        ("config", e.config_label.as_str().into()),
                    ])
                })
                .collect();
            rows.sort_by_key(|v| v.print());
            rows
        };
        let dbs: Vec<JsonValue> = {
            let dbs = self.dbs.lock().expect("dbs lock");
            let mut rows: Vec<_> = dbs
                .iter()
                .map(|((icf, mcf), db)| {
                    JsonValue::obj([
                        ("config", format!("icf={icf},mcf={mcf}").into()),
                        ("stats", wire::db_stats_to_json(&db.stats())),
                    ])
                })
                .collect();
            rows.sort_by_key(|v| v.print());
            rows
        };
        let queued = self.admission.queue.lock().expect("queue lock").len();
        let admission = JsonValue::obj([
            ("workers", self.cfg.workers.max(1).into()),
            ("queue_cap", self.cfg.queue_cap.into()),
            ("active", self.admission.active.load(Ordering::Relaxed).into()),
            ("queued", queued.into()),
            (
                "admitted",
                self.admission.admitted.load(Ordering::Relaxed).into(),
            ),
            (
                "rejected",
                self.admission.rejected.load(Ordering::Relaxed).into(),
            ),
            (
                "completed",
                self.admission.completed.load(Ordering::Relaxed).into(),
            ),
            (
                "cancelled_before_start",
                self.admission
                    .cancelled_before_start
                    .load(Ordering::Relaxed)
                    .into(),
            ),
        ]);
        // The registry snapshot renders its own JSON; re-parse it so the
        // stats response is one well-formed object (dogfooding the parser).
        let metrics = json::parse(&self.registry.snapshot().to_json())
            .unwrap_or(JsonValue::Null);
        JsonValue::obj([
            (
                "uptime_us",
                (self.started.elapsed().as_micros() as i128).into(),
            ),
            ("models", models.into()),
            ("dbs", dbs.into()),
            ("admission", admission),
            ("metrics", metrics),
        ])
    }

    /// Builds the run context of one job from its options alone, when the
    /// job starts: its `budget_ms` (or the server's default) fixes the
    /// deadline that every query of the job, each batch element included,
    /// must meet.
    fn run_context(&self, job: &Job) -> RunContext {
        let budget = job
            .opts
            .budget_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_wall_budget);
        let progress = job.opts.progress.then(|| {
            let out = job.out.clone();
            let id = job.id;
            let f: Arc<tempo_check::ProgressFn> = Arc::new(move |p| {
                out.write_line(&protocol::progress_frame(id, p));
            });
            f
        });
        RunContext {
            max_states: job.opts.max_states,
            cancel: Some(job.cancel.clone()),
            progress,
            faults: job
                .opts
                .fault_seed
                .map(|s| Arc::new(FaultPlan::from_seed(s))),
            ..budget.map_or_else(RunContext::default, RunContext::with_wall_clock)
        }
    }

    /// The loaded model named `name` and its database.
    fn entry(&self, name: &str) -> Option<ModelEntry> {
        self.models.lock().expect("models lock").get(name).cloned()
    }

    /// Answers one admitted job against `entry` (`None`: no such model)
    /// behind the unwind barrier, counts it completed and returns the
    /// response line — the one place a job executes, for the workers and
    /// for the reader thread's cache hits alike.  A panic inside an engine
    /// becomes a typed `panicked` response and the calling thread survives.
    fn answer(&self, job: &Job, entry: Option<&ModelEntry>) -> String {
        let line = match catch_unwind(AssertUnwindSafe(|| self.execute(job, entry))) {
            Ok(line) => line,
            Err(payload) => protocol::response_err(
                Some(job.id),
                &WireError::new("panicked", panic_message(payload)),
            ),
        };
        self.admission.completed.fetch_add(1, Ordering::Relaxed);
        line
    }

    /// Executes one admitted job and returns the response line.
    fn execute(&self, job: &Job, entry: Option<&ModelEntry>) -> String {
        let Some(entry) = entry else {
            return protocol::response_err(
                Some(job.id),
                &WireError::new(
                    "unknown_model",
                    format!("no loaded model named `{}`", job.model),
                ),
            );
        };
        let ctx = self.run_context(job);
        if !job.batch {
            return match entry.db.run(&entry.model, &job.queries[0], &ctx) {
                Ok(report) => protocol::response_ok(job.id, wire::report_to_json(&report)),
                Err(e) => protocol::response_err(Some(job.id), &WireError::from_engine(&e)),
            };
        }
        let (batched, results) = self.run_batch(entry, &job.queries, &ctx);
        protocol::response_ok(
            job.id,
            JsonValue::obj([("batched", batched.into()), ("results", results.into())]),
        )
    }

    /// Runs a batch: every query is answered as its own [`AnalysisDb::run`]
    /// call, so each element is byte-identical to a dedicated query.  The
    /// batch is reported as `batched` when its queries are all `wcrt` and
    /// together cover the model's requirement set exactly.
    fn run_batch(
        &self,
        entry: &ModelEntry,
        queries: &[Query],
        ctx: &RunContext,
    ) -> (bool, Vec<JsonValue>) {
        let results = queries
            .iter()
            .map(|q| match entry.db.run(&entry.model, q, ctx) {
                Ok(report) => JsonValue::obj([
                    ("ok", true.into()),
                    ("report", wire::report_to_json(&report)),
                ]),
                Err(e) => JsonValue::obj([
                    ("ok", false.into()),
                    ("error", WireError::from_engine(&e).to_json()),
                ]),
            })
            .collect();
        (covers_requirements(&entry.model, queries), results)
    }
}

/// `true` iff `queries` are all `wcrt` and name every requirement of `model`
/// exactly once (requirement names are unique in a valid model).
fn covers_requirements(model: &ArchitectureModel, queries: &[Query]) -> bool {
    let mut names = Vec::with_capacity(queries.len());
    for q in queries {
        let Query::Wcrt { requirement } = q else {
            return false;
        };
        names.push(requirement.as_str());
    }
    let mut required: Vec<&str> = model.requirements.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    required.sort_unstable();
    names == required
}

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut q = state.admission.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = state
                    .admission
                    .available
                    .wait(q)
                    .expect("queue lock poisoned");
            }
        };
        state.admission.active.fetch_add(1, Ordering::SeqCst);
        let line = if job.cancel.load(Ordering::SeqCst) {
            // Cancelled while queued: the slot is freed without running.
            state
                .admission
                .cancelled_before_start
                .fetch_add(1, Ordering::Relaxed);
            protocol::response_err(
                Some(job.id),
                &WireError::new("cancelled", "cancelled before execution"),
            )
        } else {
            state.answer(&job, state.entry(&job.model).as_ref())
        };
        // Release the slot *before* the response frame goes out: a client
        // that has seen a request's response may rely on its slot being free
        // (the cancellation contract), so the books must already balance.
        job.registry.lock().expect("cancel lock").remove(&job.id);
        state.admission.active.fetch_sub(1, Ordering::SeqCst);
        job.out.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A writer whose bytes the test reads back after the connection ends.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("capture lock").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_newline_free_stream_is_refused_once_and_the_connection_closes() {
        let server = Server::new(ServerConfig::default());
        let out = Captured::default();
        let total = 64u64 << 20;
        let mut stream = io::repeat(b'x').take(total);
        server
            .handle()
            .serve_connection(BufReader::new(&mut stream), out.clone());
        server.begin_shutdown();
        server.join();

        // The reader stopped at the frame cap instead of buffering the whole
        // stream (plus at most one `BufReader` fill beyond it).
        let consumed = total - stream.limit();
        assert!(
            consumed > MAX_FRAME_BYTES as u64 && consumed <= MAX_FRAME_BYTES as u64 + 1 + 64 * 1024,
            "read {consumed} bytes of a {total}-byte newline-free stream"
        );
        let text = String::from_utf8(out.0.lock().expect("capture lock").clone()).unwrap();
        let frames: Vec<&str> = text.lines().collect();
        assert_eq!(frames.len(), 1, "expected exactly one frame, got {text:?}");
        let frame = json::parse(frames[0]).unwrap();
        assert_eq!(frame.get("frame").and_then(JsonValue::as_str), Some("response"));
        assert!(frame.get("id").is_some_and(JsonValue::is_null));
        assert_eq!(frame.get("ok").and_then(JsonValue::as_bool), Some(false));
        let kind = frame
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str);
        assert_eq!(kind, Some("bad_request"));
    }
}
