//! A closed-loop TPC-C benchmark of the executable engine in `tpcc-db`.
//!
//! The benchmark drives the engine only through its public calls:
//! `loader::load`, `ParallelDriver::run`, `Cluster::new`/`run`/
//! `node_db_mut`, `CdcPipeline::poll`, `TpccDb::flush_log`,
//! `verify_consistency` and `MemoryRecorder`/`install_trace`. Each
//! terminal waits for its reply before it sends the next transaction
//! (a closed loop, no think time), and no workload runs more than two
//! terminals. A workload whose threads hand work to each other runs on
//! one core (see [`Spec::one_core`]).
//!
//! A run sets its system up [`SETUP_REPS`] times, warms it with a fixed
//! number of driver calls, and then measures for a given time. With
//! tracing on, an untraced half of that time is followed by a traced
//! half, and the per-layer ledger is read from the traced half. Every
//! driver call draws its inputs from a seed of its own (see
//! [`derive_seed`]), so no phase replays another's stream. See README.md
//! for why each workload exists.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpcc_db::{
    loader, CdcPipeline, Cluster, ClusterConfig, ClusterReport, DbConfig, DriverConfig,
    GroupCommitConfig, ItemPlacement, MaterializedViews, ParallelDriver, ParallelReport, TpccDb,
};
use tpcc_obs::{Label, MemoryRecorder, Obs, QuantileSketch, TraceCollector};

/// Times the system is set up in one run; `setup_s` is the fastest, the
/// one least slowed by the rest of the shared host.
pub const SETUP_REPS: usize = 5;

/// The tail each transaction type reports beside its median: p99 for the
/// two frequent types (43% and 44% of the mix), p95 for the three that
/// make up 4–5% each, the highest tail a measured phase supports.
pub const TAIL_Q: [f64; 5] = [0.99, 0.99, 0.95, 0.95, 0.95];

/// Samples a tail needs beyond it; a window runs on past its time until
/// every type's tail has them.
pub const MIN_BEYOND_TAIL: u64 = 10;

/// Windows a measured phase is cut into. Throughput and each median are
/// their best per-window value: the host's CPU speed swings by some 15%
/// from window to window, and the best window is the one it slowed
/// least. A tail is read from the whole phase, whose samples beyond it
/// are five times a window's.
pub const WINDOWS: usize = 5;

/// Events each trace ring keeps. Every driver call runs on fresh threads,
/// so a ring holds one call's events; a run that overflows one anyway
/// fails its verdict.
const TRACE_RING: usize = 1 << 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One warehouse three times the size of the buffer pool, simulated
    /// read I/O, synchronous log, one terminal.
    DiskSerial,
    /// One warehouse that fits the pool, group commit, MVCC and a CDC
    /// consumer polled between driver calls, two terminals on the one
    /// warehouse.
    LogContended,
    /// Two in-memory nodes of one warehouse each, 2PC for remote work,
    /// one terminal.
    Cluster2pc,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DiskSerial,
        Workload::LogContended,
        Workload::Cluster2pc,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiskSerial => "disk-serial",
            Workload::LogContended => "log-contended",
            Workload::Cluster2pc => "cluster-2pc",
        }
    }

    /// The workload with this name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system and load the workload runs.
    #[must_use]
    pub fn spec(self) -> Spec {
        let mix = DriverConfig::default();
        match self {
            // 24,257 pages after load against 8,192 frames: the only
            // workload larger than its cache, so buffer misses and their
            // I/O sit on the critical path. One terminal takes no lock
            // waits, so its work counts repeat exactly for a seed.
            Workload::DiskSerial => Spec {
                db: DbConfig {
                    io_delay_us: 100,
                    enable_wal: true,
                    ..DbConfig::paper(1, 8_192)
                },
                cluster: None,
                cdc: false,
                terminals: 1,
                one_core: false,
                driver: mix.with_spec_rollbacks(),
                batch: 1_000,
                warmup_batches: 4,
            },
            // The pool holds the whole database, so the same layers are
            // exercised another way: commits wait for group commit, the
            // two terminals contend for locks and frame latches on one
            // warehouse, reads go through snapshots, and CDC polls block
            // the driver between batches.
            Workload::LogContended => Spec {
                db: DbConfig {
                    enable_wal: true,
                    group_commit: Some(GroupCommitConfig::new(200, 32, 50)),
                    mvcc: true,
                    ..DbConfig::paper(1, 65_536)
                },
                cluster: None,
                cdc: true,
                terminals: 2,
                one_core: true,
                driver: mix.with_spec_rollbacks(),
                batch: 1_000,
                warmup_batches: 2,
            },
            // CPU-bound: no I/O and no log, so transaction logic, B+Tree
            // and buffer-hit self time, messaging and 2PC set the
            // result. The only workload that exercises `cluster`. One
            // terminal: with two, a terminal preempted by the shared host
            // while it holds locks stalls the other, and the p99s swung
            // by up to 45% between runs; pinned to one core, the second
            // terminal spin-waits for the first's locks, and every p99
            // read the scheduler's time slice (about 4.2 ms).
            Workload::Cluster2pc => Spec {
                db: DbConfig::paper(1, 65_536),
                cluster: Some(ClusterShape {
                    nodes: 2,
                    network_delay_us: 20,
                }),
                cdc: false,
                terminals: 1,
                one_core: false,
                driver: mix,
                batch: 2_000,
                warmup_batches: 2,
            },
        }
    }
}

/// Everything that defines a workload's system and load.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The database, or each node's database under `cluster`.
    pub db: DbConfig,
    /// Nodes and network delay; `None` runs one database.
    pub cluster: Option<ClusterShape>,
    /// Whether a CDC pipeline is polled after every driver call.
    pub cdc: bool,
    /// Closed-loop terminals.
    pub terminals: u64,
    /// Whether the command-line run pins itself to one core (see
    /// [`pin_to_one_core`]). On the shared 2-core host the benchmark was
    /// tuned on, a wake-up across cores (a commit waiting for the
    /// group-commit flusher, a lock waiter woken by its holder) was
    /// delayed by whatever else ran on the other core, and the p99s of
    /// such a workload swung by over 100% between runs; on one core the
    /// same hand-offs are steady. A workload of one terminal and no
    /// flusher hands nothing over, and runs unpinned so that it can
    /// move away from a busy core.
    pub one_core: bool,
    /// Transaction mix and clause probabilities.
    pub driver: DriverConfig,
    /// Transactions per driver call.
    pub batch: u64,
    /// Driver calls in the warm-up.
    pub warmup_batches: u64,
}

/// The shape of a cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Nodes, one warehouse each.
    pub nodes: u64,
    /// One-way delay per message, in microseconds.
    pub network_delay_us: u64,
}

/// The input streams of a run; each driver call's seed is derived from
/// the workload seed, its stream and its index in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The database population.
    Load = 0,
    /// Warm-up driver calls, whose numbers are discarded.
    Warmup = 1,
    /// The untraced measured phase.
    Measured = 2,
    /// The traced phase of a traced run.
    Traced = 3,
}

fn splitmix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of call `call` in `stream` under workload seed `seed`.
/// Distinct calls get distinct, well-mixed seeds, so consecutive driver
/// calls issue fresh inputs, and the same workload seed reproduces them.
#[must_use]
pub fn derive_seed(seed: u64, stream: Stream, call: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream as u64) ^ call)
}

/// The engine a workload runs on. A process holds one, so the size
/// difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// One database, with its CDC pipeline when the workload polls one.
    Db {
        /// The database.
        db: TpccDb,
        /// The CDC consumer.
        cdc: Option<CdcPipeline>,
    },
    /// A partitioned cluster.
    Cluster(Cluster),
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many driver calls.
    Batches(u64),
    /// At the first call boundary after this many seconds, once every
    /// tail has [`MIN_BEYOND_TAIL`] samples beyond it.
    Seconds(f64),
}

impl Stop {
    /// One of `parts` equal shares of this stop (at least one call).
    fn share(self, parts: u64) -> Stop {
        match self {
            Stop::Batches(n) => Stop::Batches((n / parts).max(1)),
            Stop::Seconds(s) => Stop::Seconds(s / parts as f64),
        }
    }
}

/// What one phase did, merged over its driver calls.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Driver calls made.
    pub batches: u64,
    /// Transactions requested from the driver.
    pub requested: u64,
    /// Transactions completed, per type: those whose latency was
    /// recorded, which happens only once a transaction has returned.
    pub executed: [u64; 5],
    /// New-Orders rolled back on purpose (clause 2.4.1.4) and
    /// cross-node transactions aborted by 2PC.
    pub rollbacks: u64,
    /// Wound retries, per type.
    pub retries: [u64; 5],
    /// Latency per type, in nanoseconds.
    pub latency_ns: [QuantileSketch; 5],
    /// Latency of transactions that touched a remote node.
    pub remote_latency_ns: QuantileSketch,
    /// Transactions that touched a remote node.
    pub remote_txns: u64,
    /// Messages between nodes.
    pub msgs: u64,
    /// 2PC prepares.
    pub prepares: u64,
    /// Cross-node transactions aborted by 2PC.
    pub two_pc_aborts: u64,
    /// Wall time, polls included.
    pub wall: Duration,
    /// Failures met while running (a CDC poll that errs, a driver call
    /// that panics).
    pub errors: Vec<String>,
}

impl Phase {
    /// All of `windows` as one phase.
    #[must_use]
    fn merged(windows: &[Phase]) -> Phase {
        let mut all = Phase::default();
        for w in windows {
            all.batches += w.batches;
            all.requested += w.requested;
            all.absorb_common(w.rollbacks, &w.retries, &w.latency_ns);
            all.remote_latency_ns.merge(&w.remote_latency_ns);
            all.remote_txns += w.remote_txns;
            all.msgs += w.msgs;
            all.prepares += w.prepares;
            all.two_pc_aborts += w.two_pc_aborts;
            all.wall += w.wall;
            all.errors.extend(w.errors.iter().cloned());
        }
        all
    }

    /// Transactions completed.
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Committed transactions per wall second.
    #[must_use]
    pub fn txn_per_s(&self) -> f64 {
        (self.executed_total() - self.rollbacks) as f64 / self.wall.as_secs_f64()
    }

    fn tails_supported(&self) -> bool {
        (0..5).all(|t| beyond_tail(self.latency_ns[t].count(), TAIL_Q[t]) >= MIN_BEYOND_TAIL)
    }

    fn absorb_parallel(&mut self, r: &ParallelReport) {
        self.absorb_common(r.rollbacks, &r.retries, &r.latency_ns);
    }

    fn absorb_cluster(&mut self, r: &ClusterReport) {
        self.absorb_common(r.rollbacks + r.two_pc_aborts, &r.retries, &r.latency_ns);
        self.remote_latency_ns.merge(&r.remote_latency_ns);
        self.remote_txns += r.remote_new_orders + r.remote_payments;
        self.msgs += r.messages();
        self.prepares += r.prepares;
        self.two_pc_aborts += r.two_pc_aborts;
    }

    fn absorb_common(
        &mut self,
        rollbacks: u64,
        retries: &[u64; 5],
        latency_ns: &[QuantileSketch; 5],
    ) {
        for t in 0..5 {
            self.executed[t] += latency_ns[t].count();
            self.retries[t] += retries[t];
            self.latency_ns[t].merge(&latency_ns[t]);
        }
        self.rollbacks += rollbacks;
    }
}

/// Samples above the `q` quantile of `count` samples.
#[must_use]
fn beyond_tail(count: u64, q: f64) -> u64 {
    count - ((q * count as f64).ceil() as u64).min(count)
}

/// The `q` quantile of a nanosecond sketch, in microseconds.
#[must_use]
fn quantile_us(s: &QuantileSketch, q: f64) -> f64 {
    quantile(s, q) / 1e3
}

/// The `q` quantile of a sketch, or 0 when it is empty: a layer that
/// did no work on a workload reads 0 there.
#[must_use]
fn quantile(s: &QuantileSketch, q: f64) -> f64 {
    if s.count() == 0 {
        0.0
    } else {
        s.quantile(q)
    }
}

/// A loaded system under test.
pub struct System {
    spec: Spec,
    seed: u64,
    engine: Engine,
    /// Where the benchmark's own spans go; set only while tracing.
    trace: Option<Arc<TraceCollector>>,
    /// Driver calls made so far on each [`Stream`].
    calls: [u64; 4],
    /// Set once a driver call has panicked. The engine may then hold
    /// poisoned locks, so no further call or check runs on it.
    panicked: bool,
}

impl System {
    /// Loads the workload's system from the workload seed.
    #[must_use]
    pub fn setup(spec: Spec, seed: u64) -> Self {
        let load_seed = derive_seed(seed, Stream::Load, 0);
        let engine = match spec.cluster {
            None => {
                let db = loader::load(spec.db, load_seed);
                let cdc = spec.cdc.then(|| CdcPipeline::new(&db));
                Engine::Db { db, cdc }
            }
            Some(shape) => Engine::Cluster(Cluster::new(
                ClusterConfig {
                    nodes: shape.nodes,
                    warehouses_per_node: spec.db.warehouses,
                    node_db: spec.db,
                    driver: spec.driver,
                    placement: ItemPlacement::Replicated,
                    network_delay_us: shape.network_delay_us,
                },
                load_seed,
            )),
        };
        Self {
            spec,
            seed,
            engine,
            trace: None,
            calls: [0; 4],
            panicked: false,
        }
    }

    /// Every database of the system: the one database, or each node's.
    #[must_use]
    pub fn dbs(&self) -> Vec<&TpccDb> {
        match &self.engine {
            Engine::Db { db, .. } => vec![db],
            Engine::Cluster(cl) => (0..cl.config().nodes as usize)
                .map(|n| cl.node_db(n))
                .collect(),
        }
    }

    /// Attaches `recorder` to every database, and sends the benchmark's
    /// own spans to `trace` from here on.
    pub fn attach(&mut self, recorder: &Arc<MemoryRecorder>, trace: Option<Arc<TraceCollector>>) {
        let obs = Obs::new(recorder.clone());
        match &mut self.engine {
            Engine::Db { db, .. } => db.set_obs(obs),
            Engine::Cluster(cl) => {
                for n in 0..cl.config().nodes as usize {
                    cl.node_db_mut(n).set_obs(obs.clone());
                }
            }
        }
        self.trace = trace;
    }

    /// Runs driver calls on `stream` until `stop`, or until a call
    /// panics.
    pub fn run_phase(&mut self, stream: Stream, stop: Stop) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        loop {
            let done = self.panicked
                || match stop {
                    Stop::Batches(n) => phase.batches >= n,
                    Stop::Seconds(s) => {
                        start.elapsed().as_secs_f64() >= s && phase.tails_supported()
                    }
                };
            if done {
                break;
            }
            let call = &mut self.calls[stream as usize];
            let seed = derive_seed(self.seed, stream, *call);
            *call += 1;
            self.run_batch(seed, &mut phase);
        }
        phase.wall = start.elapsed();
        phase
    }

    /// Runs [`WINDOWS`] phases on `stream`, each until `stop`.
    fn run_windows(&mut self, stream: Stream, stop: Stop) -> Vec<Phase> {
        (0..WINDOWS).map(|_| self.run_phase(stream, stop)).collect()
    }

    /// One driver call, then the CDC poll where the workload has one. A
    /// transaction that panics its terminal thread panics the call; the
    /// panic is caught and recorded as a failure of `phase`.
    fn run_batch(&mut self, seed: u64, phase: &mut Phase) {
        let spec = self.spec;
        phase.batches += 1;
        phase.requested += spec.batch;
        let t0 = Instant::now();
        match &mut self.engine {
            Engine::Db { db, cdc } => {
                let driver = ParallelDriver::new(spec.driver, spec.terminals, seed);
                let Some(report) =
                    guarded(&mut self.panicked, phase, || driver.run(db, spec.batch))
                else {
                    return;
                };
                phase.absorb_parallel(&report);
                record(&self.trace, "batch", t0);
                if let Some(pipeline) = cdc {
                    let t1 = Instant::now();
                    db.flush_log();
                    record(&self.trace, "flush_log", t1);
                    let t2 = Instant::now();
                    if let Err(lag) = pipeline.poll(db) {
                        phase.errors.push(format!("CDC poll failed: {lag:?}"));
                    }
                    record(&self.trace, "poll", t2);
                }
            }
            Engine::Cluster(cl) => {
                let Some(report) = guarded(&mut self.panicked, phase, || {
                    cl.run(spec.terminals, spec.batch, seed)
                }) else {
                    return;
                };
                phase.absorb_cluster(&report);
                record(&self.trace, "batch", t0);
            }
        }
    }

    /// The correctness verdict over `phases`: no driver call panicked,
    /// every requested transaction completed, every database passes
    /// `verify_consistency` (§3.3.2), the CDC views equal a rescan of the
    /// live database, and the trace dropped no event. Returns one line
    /// per failed check.
    fn verdict(&mut self, phases: &[&Phase]) -> Vec<String> {
        let mut failures = Vec::new();
        if self.panicked {
            // the engine may hold poisoned locks: checking it could panic
            // in turn, so the panic is the verdict
            return phases
                .iter()
                .flat_map(|p| p.errors.iter().cloned())
                .collect();
        }
        for p in phases {
            if p.executed_total() != p.requested {
                failures.push(format!(
                    "{} of {} requested transactions completed",
                    p.executed_total(),
                    p.requested
                ));
            }
            failures.extend(p.errors.iter().cloned());
        }
        for (n, db) in self.dbs().into_iter().enumerate() {
            let report = db.verify_consistency();
            if let Some(first) = report.violations.first() {
                failures.push(format!(
                    "database {n}: {} consistency violations, first: {first}",
                    report.violations.len()
                ));
            }
        }
        if let Engine::Db {
            db,
            cdc: Some(pipeline),
        } = &mut self.engine
        {
            db.flush_log();
            if let Err(lag) = pipeline.poll(db) {
                failures.push(format!("final CDC poll failed: {lag:?}"));
            }
            let live = MaterializedViews::rescan_live(db, pipeline.registry());
            if pipeline.views().encode() != live.encode() {
                failures.push("CDC views differ from a rescan of the live database".into());
            }
        }
        if let Some(trace) = &self.trace {
            let dropped = trace.dropped();
            if dropped > 0 {
                failures.push(format!("the trace dropped {dropped} events"));
            }
        }
        failures
    }
}

/// Runs the driver call `call`. When it panics, records the panic in
/// `phase`, sets `panicked` and returns `None`.
fn guarded<T>(panicked: &mut bool, phase: &mut Phase, call: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(report) => Some(report),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a panic".into());
            phase.errors.push(format!("a driver call panicked: {msg}"));
            *panicked = true;
            None
        }
    }
}

fn record(trace: &Option<Arc<TraceCollector>>, name: &'static str, start: Instant) {
    if let Some(trace) = trace {
        trace.record(name, "bench", start);
    }
}

/// Sets the system up [`SETUP_REPS`] times, dropping each before the
/// next, and returns the last with every set-up time in seconds. Each
/// set-up is one `load` span in `trace`.
fn timed_setup(spec: Spec, seed: u64, trace: Option<&Arc<TraceCollector>>) -> (System, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        drop(sys.take());
        let t0 = Instant::now();
        sys = Some(System::setup(spec, seed));
        times.push(t0.elapsed().as_secs_f64());
        if let Some(trace) = trace {
            trace.record("load", "bench", t0);
        }
    }
    (sys.expect("at least one set-up"), times)
}

/// Pins the calling thread, and with it every thread it starts later, to
/// the last core it may run on. Returns that core, or `None` where the
/// host does not allow it (or is not Linux); the run then goes on
/// unpinned.
#[must_use]
pub fn pin_to_one_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // a glibc `cpu_set_t`: 1,024 bits
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a `cpu_set_t`-sized buffer that outlives the
        // call; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let core = (0..1024)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[core / 64] = 1 << (core % 64);
        // SAFETY: as above, with a mask that names one allowed core.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(core)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample counts and bases, for the text report.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        note,
    }
}

/// Median of a non-empty list.
#[must_use]
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// End-to-end metric names, in report order.
pub const END_TO_END: [&str; 13] = [
    "txn_per_s",
    "new_order_p50_us",
    "new_order_p99_us",
    "payment_p50_us",
    "payment_p99_us",
    "order_status_p50_us",
    "order_status_p95_us",
    "delivery_p50_us",
    "delivery_p95_us",
    "stock_level_p50_us",
    "stock_level_p95_us",
    "setup_s",
    "peak_rss_mb",
];

/// The smallest of `xs`.
fn lowest(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// The untraced run's metrics: throughput and each type's median, each
/// its best value over the windows (highest throughput, lowest latency),
/// each type's tail over the whole phase, then set-up time and peak
/// memory. Whether every request completed is part of the verdict, not a
/// metric: a run that prints metrics completed all of them.
#[must_use]
fn end_to_end(windows: &[Phase], setup_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let all = Phase::merged(windows);
    let median_us = |t: usize| lowest(windows.iter().map(|w| quantile_us(&w.latency_ns[t], 0.5)));
    let counts = |t: usize| {
        let n: Vec<u64> = windows.iter().map(|w| w.latency_ns[t].count()).collect();
        format!("lowest of {} windows, n={n:?}", windows.len())
    };
    let beyond = |t: usize| {
        let n = all.latency_ns[t].count();
        format!("whole phase, n={n}, {} beyond", beyond_tail(n, TAIL_Q[t]))
    };
    let mut out = vec![metric(
        "txn_per_s",
        "1/s",
        -lowest(windows.iter().map(|w| -w.txn_per_s())),
        format!(
            "highest of {:.0?}; {} committed of {} in {:.3} s",
            windows.iter().map(Phase::txn_per_s).collect::<Vec<_>>(),
            all.executed_total() - all.rollbacks,
            all.executed_total(),
            all.wall.as_secs_f64()
        ),
    )];
    for t in 0..5 {
        out.push(metric(END_TO_END[1 + 2 * t], "us", median_us(t), counts(t)));
        out.push(metric(
            END_TO_END[2 + 2 * t],
            "us",
            quantile_us(&all.latency_ns[t], TAIL_Q[t]),
            beyond(t),
        ));
    }
    out.push(metric(
        "setup_s",
        "s",
        lowest(setup_s.iter().copied()),
        format!("fastest of {setup_s:.3?}"),
    ));
    out.push(metric("peak_rss_mb", "MiB", peak_rss_mb, "VmHWM".into()));
    out
}

/// Per-layer metric names, in report order.
pub const PER_LAYER: [&str; 36] = [
    "bufmgr.fixes_per_txn",
    "bufmgr.miss_ratio",
    "bufmgr.evictions_per_txn",
    "bufmgr.writebacks_per_txn",
    "bufmgr.io_wait_us_per_txn",
    "bufmgr.latch_contended_ratio",
    "btree.node_visits_per_txn",
    "btree.splits_per_txn",
    "btree.restarts_per_txn",
    "lock.acquires_per_txn",
    "lock.waits_per_txn",
    "lock.wait_us_per_txn",
    "lock.wait_p99_us",
    "lock.retry_ratio",
    "wal.bytes_per_txn",
    "wal.records_per_txn",
    "logmgr.flushes_per_txn",
    "logmgr.commits_per_flush",
    "logmgr.commit_wait_us_per_txn",
    "logmgr.commit_wait_p99_us",
    "undo.snapshot_reads_per_txn",
    "undo.versions_per_snapshot_read",
    "undo.bytes_per_txn",
    "undo.aborts_per_txn",
    "cdc.poll_ms_p50",
    "cdc.poll_share",
    "cdc.events_per_txn",
    "cdc.events_per_poll_s",
    "cdc.lag_entries_p95",
    "cluster.msgs_per_txn",
    "cluster.remote_txn_ratio",
    "cluster.prepares_per_txn",
    "cluster.abort_ratio",
    "cluster.remote_p99_us",
    "txns.self_us_per_txn",
    "trace.overhead_ratio",
];

/// `a / b`, or 0 when nothing was counted in `b`: a layer that did no
/// work on a workload reads 0 there.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Raw work counts of the traced phase, read from the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    /// Buffer fixes (hits plus misses).
    pub fixes: u64,
    /// Buffer misses.
    pub misses: u64,
    /// B+Tree nodes visited.
    pub node_visits: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Logical locks granted.
    pub lock_acquires: u64,
}

/// The work counts `recorder` holds.
#[must_use]
pub fn work_counts(recorder: &MemoryRecorder) -> WorkCounts {
    let c = |name| recorder.counter_total(name);
    WorkCounts {
        fixes: c("buf_hits") + c("buf_misses"),
        misses: c("buf_misses"),
        node_visits: c("btree_node_visits"),
        wal_bytes: c("wal_bytes_appended"),
        lock_acquires: c("lock_acquires"),
    }
}

/// The per-layer ledger of a traced phase, from the recorder's counters
/// and sketches, the engine's `io` trace events and the benchmark's own
/// `poll` spans. `untraced` is the phase before it, of the same length,
/// for `trace.overhead_ratio`.
#[must_use]
fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    recorder: &MemoryRecorder,
    trace: &TraceCollector,
) -> Vec<Metric> {
    let txns = traced.executed_total() as f64;
    let base = format!("per {} txns", traced.executed_total());
    let c = |name| recorder.counter_total(name) as f64;
    let hist = |name| recorder.histogram(name, Label::None).unwrap_or_default();
    let events: Vec<_> = trace
        .timelines()
        .into_iter()
        .flat_map(|(_, evs)| evs)
        .collect();
    let dur_ns = |cat: &str, name: &str| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .map(|e| e.dur_ns as f64)
            .collect()
    };
    // folded from +0.0: an empty f64 `sum` is -0.0, which prints as -0
    let total = |xs: &[f64]| xs.iter().fold(0.0, |a, x| a + x);
    let polls_ns = dur_ns("bench", "poll");
    let poll_ns = total(&polls_ns);

    let fixes = c("buf_hits") + c("buf_misses");
    let io_ns = total(&dur_ns("io", "miss_load")) + total(&dur_ns("io", "write_back"));
    let lock_wait = hist("lock_wait_ns");
    let commit_wait = hist("commit_wait_ns");
    let retries: u64 = traced.retries.iter().sum();
    let txn_ns: f64 = traced.latency_ns.iter().map(|s| s.sum() as f64).sum();
    let self_ns = txn_ns - io_ns - lock_wait.sum() as f64 - commit_wait.sum() as f64;
    let flushes = c("wal_flushes");
    let snapshot_reads = c("snapshot_reads");
    let lag = hist("cdc_lag_entries");
    let polls = polls_ns.len();

    let m = |name, unit, value| metric(name, unit, value, base.clone());
    vec![
        m("bufmgr.fixes_per_txn", "count", fixes / txns),
        metric(
            "bufmgr.miss_ratio",
            "ratio",
            ratio(c("buf_misses"), fixes),
            format!("{} misses of {fixes} fixes", c("buf_misses")),
        ),
        m(
            "bufmgr.evictions_per_txn",
            "count",
            c("buf_evictions") / txns,
        ),
        m(
            "bufmgr.writebacks_per_txn",
            "count",
            c("buf_writebacks") / txns,
        ),
        m("bufmgr.io_wait_us_per_txn", "us", io_ns / 1e3 / txns),
        metric(
            "bufmgr.latch_contended_ratio",
            "ratio",
            ratio(c("latch_contended"), c("latch_acquisitions")),
            format!("of {} latch acquisitions", c("latch_acquisitions")),
        ),
        m(
            "btree.node_visits_per_txn",
            "count",
            c("btree_node_visits") / txns,
        ),
        m("btree.splits_per_txn", "count", c("btree_splits") / txns),
        m(
            "btree.restarts_per_txn",
            "count",
            c("btree_restarts") / txns,
        ),
        m("lock.acquires_per_txn", "count", c("lock_acquires") / txns),
        m("lock.waits_per_txn", "count", c("lock_waits") / txns),
        m(
            "lock.wait_us_per_txn",
            "us",
            lock_wait.sum() as f64 / 1e3 / txns,
        ),
        metric(
            "lock.wait_p99_us",
            "us",
            quantile_us(&lock_wait, 0.99),
            format!("n={}", lock_wait.count()),
        ),
        metric(
            "lock.retry_ratio",
            "ratio",
            ratio(retries as f64, txns + retries as f64),
            format!("{retries} retries"),
        ),
        m("wal.bytes_per_txn", "B", c("wal_bytes_appended") / txns),
        m("wal.records_per_txn", "count", c("wal_records") / txns),
        m("logmgr.flushes_per_txn", "count", flushes / txns),
        metric(
            "logmgr.commits_per_flush",
            "count",
            ratio(c("group_commits"), flushes),
            format!("of {flushes} group flushes"),
        ),
        m(
            "logmgr.commit_wait_us_per_txn",
            "us",
            commit_wait.sum() as f64 / 1e3 / txns,
        ),
        metric(
            "logmgr.commit_wait_p99_us",
            "us",
            quantile_us(&commit_wait, 0.99),
            format!("n={}", commit_wait.count()),
        ),
        m(
            "undo.snapshot_reads_per_txn",
            "count",
            snapshot_reads / txns,
        ),
        metric(
            "undo.versions_per_snapshot_read",
            "count",
            ratio(c("versions_traversed"), snapshot_reads),
            format!("of {snapshot_reads} snapshot reads"),
        ),
        m("undo.bytes_per_txn", "B", c("undo_bytes") / txns),
        m("undo.aborts_per_txn", "count", c("aborts") / txns),
        metric(
            "cdc.poll_ms_p50",
            "ms",
            if polls == 0 {
                0.0
            } else {
                median(&polls_ns) / 1e6
            },
            format!("n={polls}"),
        ),
        metric(
            "cdc.poll_share",
            "ratio",
            poll_ns / 1e9 / traced.wall.as_secs_f64(),
            format!("of {:.3} s wall", traced.wall.as_secs_f64()),
        ),
        m("cdc.events_per_txn", "count", c("cdc_events") / txns),
        metric(
            "cdc.events_per_poll_s",
            "1/s",
            ratio(c("cdc_events"), poll_ns / 1e9),
            format!("{} events", c("cdc_events")),
        ),
        metric(
            "cdc.lag_entries_p95",
            "count",
            quantile(&lag, 0.95),
            format!("n={}", lag.count()),
        ),
        m("cluster.msgs_per_txn", "count", traced.msgs as f64 / txns),
        m(
            "cluster.remote_txn_ratio",
            "ratio",
            traced.remote_txns as f64 / txns,
        ),
        m(
            "cluster.prepares_per_txn",
            "count",
            traced.prepares as f64 / txns,
        ),
        metric(
            "cluster.abort_ratio",
            "ratio",
            ratio(traced.two_pc_aborts as f64, traced.remote_txns as f64),
            format!("of {} remote txns", traced.remote_txns),
        ),
        metric(
            "cluster.remote_p99_us",
            "us",
            quantile_us(&traced.remote_latency_ns, 0.99),
            format!("n={}", traced.remote_latency_ns.count()),
        ),
        m("txns.self_us_per_txn", "us", self_ns / 1e3 / txns),
        metric(
            "trace.overhead_ratio",
            "ratio",
            traced.txn_per_s() / untraced.txn_per_s(),
            format!(
                "{:.1} traced / {:.1} untraced txn/s",
                traced.txn_per_s(),
                untraced.txn_per_s()
            ),
        ),
    ]
}

/// The peak resident set of this process (`VmHWM`), in MiB.
///
/// # Panics
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Transactions requested in the measured phases.
    pub attempted: u64,
    /// 0, or all of `attempted` when a check failed.
    pub failed: u64,
    /// The metrics; empty when a check failed.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Runs `spec` from workload seed `seed`: set-up, warm-up, then the
/// measured time `stop`. Without `trace`, that time is cut into
/// [`WINDOWS`] windows and the metrics are the end-to-end ones. With it,
/// an untraced half is followed by a traced half, and the metrics are
/// the traced half's per-layer ledger. `before_verdict` sees the system
/// just before the correctness checks run.
pub fn run_spec(
    spec: Spec,
    seed: u64,
    stop: Stop,
    trace: bool,
    before_verdict: impl FnOnce(&System),
) -> Report {
    let tracing = trace.then(|| {
        let recorder = Arc::new(MemoryRecorder::new());
        let collector = recorder.install_trace(TRACE_RING);
        (recorder, collector)
    });
    let (mut sys, setup_s) = timed_setup(spec, seed, tracing.as_ref().map(|(_, t)| t));
    let warmup = sys.run_phase(Stream::Warmup, Stop::Batches(spec.warmup_batches));
    let (metrics, measured, traced) = match &tracing {
        None => {
            let windows = sys.run_windows(Stream::Measured, stop.share(WINDOWS as u64));
            let metrics = end_to_end(&windows, &setup_s, peak_rss_mb());
            (metrics, Phase::merged(&windows), None)
        }
        Some((recorder, collector)) => {
            let measured = sys.run_phase(Stream::Measured, stop.share(2));
            if !sys.panicked {
                sys.attach(recorder, Some(collector.clone()));
            }
            let traced = sys.run_phase(Stream::Traced, stop.share(2));
            let metrics = per_layer(&measured, &traced, recorder, collector);
            (metrics, measured, Some(traced))
        }
    };
    before_verdict(&sys);
    let mut phases = vec![&warmup, &measured];
    phases.extend(traced.as_ref());
    let failures = sys.verdict(&phases);
    let attempted = measured.requested + traced.as_ref().map_or(0, |p| p.requested);
    let correct = failures.is_empty();
    Report {
        correct,
        attempted: attempted.max(1),
        failed: if correct { 0 } else { attempted.max(1) },
        metrics: if correct { metrics } else { Vec::new() },
        failures,
    }
}

/// Runs `workload`, measuring for `seconds`.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    run_spec(workload.spec(), seed, Stop::Seconds(seconds), trace, |_| {})
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
