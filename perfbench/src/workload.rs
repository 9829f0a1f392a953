//! The three workloads: their load shapes, generated inputs, set-up, and
//! one measured episode each (set-up, timed phase, final read, counters).

use crate::measure::{children_cpu_secs, ms_between, self_cpu_secs, Spans};
use hotdog::distributed::PipelineStats;
use hotdog::net::TcpTransport;
use hotdog::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker processes of every workload's TCP cluster.
pub const WORKERS: usize = 2;

/// One named workload: a query, its generated stream and its load shape.
pub struct Spec {
    pub name: &'static str,
    pub query: &'static str,
    /// Insert events generated before deletions are added.
    pub inserts: usize,
    /// Stream events per round (one round is grouped per relation).
    pub batch: usize,
    /// Fraction of inserts later deleted.
    pub deletions: f64,
    /// Rounds due per second (open loop); `None` is a closed loop.
    pub rate: Option<f64>,
    /// Subscribers registered through a `SubscriptionHub` (0: no hub).
    pub subscribers: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "bulk-q3",
        query: "Q3",
        inserts: 300_000,
        batch: 1000,
        deletions: 0.0,
        rate: None,
        subscribers: 0,
    },
    Spec {
        name: "shuffle-q7",
        query: "Q7",
        inserts: 40_000,
        batch: 1000,
        deletions: 0.0,
        rate: None,
        subscribers: 0,
    },
    Spec {
        name: "trickle-q3",
        query: "Q3",
        inserts: 15_000,
        batch: 16,
        deletions: 0.1,
        rate: Some(80.0),
        subscribers: 1000,
    },
];

/// A workload's generated input: the program only ever sees `rounds`.
pub struct Input {
    pub spec: &'static Spec,
    pub query: CatalogQuery,
    pub rounds: Vec<Vec<(&'static str, Relation)>>,
    pub tuples: usize,
}

impl Input {
    pub fn generate(spec: &'static Spec, seed: u64) -> Input {
        let query = hotdog::workload::query(spec.query).expect("catalog query");
        let mut stream = generate_tpch(seed, spec.inserts);
        if spec.deletions > 0.0 {
            stream = stream.with_deletions(seed, spec.deletions);
        }
        Input {
            spec,
            query,
            tuples: stream.len(),
            rounds: stream.batches(spec.batch),
        }
    }

    pub fn batches(&self) -> impl Iterator<Item = (&'static str, &Relation)> {
        self.rounds.iter().flatten().map(|(r, b)| (*r, b))
    }

    pub fn shape(&self) -> QueryShape {
        let q = &self.query;
        QueryShape::new(q.id, q.expr.clone(), q.partition_keys.iter().copied())
    }
}

/// Why an episode stopped early.
pub enum Failure {
    /// A typed error from the program.
    Dead(WorkerDead),
    /// Cluster construction failed (sockets, subprocesses, handshake).
    Io(std::io::Error),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Dead(d) => write!(f, "{d}"),
            Failure::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<WorkerDead> for Failure {
    fn from(d: WorkerDead) -> Self {
        Failure::Dead(d)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Io(e)
    }
}

/// Everything one episode measured.
#[derive(Default)]
pub struct Episode {
    pub traced: bool,
    pub setup_s: f64,
    /// First admission (or first due time) until the final read returned.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub freshness_ms: Vec<f64>,
    pub apply_us: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub pump_ms: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub subscribe_ms: f64,
    pub deltas_pushed: u64,
    /// Counters and stage-histogram sums read after the timed phase.
    pub counters: BTreeMap<&'static str, f64>,
    /// Final view read through the backend.
    pub view: Relation,
    /// Final view rebuilt from pushed deltas (hub workloads only).
    pub subscriber_view: Option<Relation>,
    /// Calls made into the program (admissions, flushes, pumps, reads).
    pub calls: u64,
}

impl Episode {
    /// `runtime.flush_growth`: per-batch commit cost in the last tenth of
    /// the stream over the first tenth.  Open loops commit every round
    /// (median flush); closed loops commit inside admissions (mean
    /// `apply_batch`, which includes the triggers admissions drive).
    pub fn growth(&self) -> f64 {
        fn tenths(v: &[f64], f: fn(&[f64]) -> f64) -> f64 {
            let n = (v.len() / 10).max(1);
            let first = f(&v[..n.min(v.len())]);
            let last = f(&v[v.len().saturating_sub(n)..]);
            if first > 0.0 {
                last / first
            } else {
                0.0
            }
        }
        if self.flush_ms.len() > 1 {
            tenths(&self.flush_ms, crate::measure::median)
        } else {
            tenths(&self.apply_us, |s| s.iter().sum::<f64>() / s.len() as f64)
        }
    }
}

/// The cluster configuration: `WORKERS` subprocesses of `worker_bin`.
pub fn tcp_config(worker_bin: &Path) -> TcpConfig {
    TcpConfig {
        worker_bin: Some(worker_bin.to_path_buf()),
        ..TcpConfig::with_workers(WORKERS)
    }
}

/// Compile the workload's plan the way `QueryShape::compile` does,
/// returning the plan and the time spent in each compiler.
pub fn compile_timed(input: &Input, spans: &mut Spans) -> (DistributedPlan, f64, f64) {
    let shape = input.shape();
    let t0 = Instant::now();
    let plan = spans.time("compile_recursive", "ivm", || {
        compile_recursive(&shape.name, &shape.query)
    });
    let t1 = Instant::now();
    let dplan = spans.time("compile_distributed", "distributed", || {
        let keys: Vec<&str> = shape.partition_keys.iter().map(String::as_str).collect();
        let spec = PartitioningSpec::heuristic(&plan, &keys);
        compile_distributed(&plan, &spec, shape.opt)
    });
    let t2 = Instant::now();
    (dplan, ms_between(t0, t1), ms_between(t1, t2))
}

fn spawn(dplan: DistributedPlan, config: &TcpConfig) -> std::io::Result<TcpCluster> {
    TcpCluster::pipelined(dplan, config, PipelineConfig::default())
}

type MakeBackend = Box<dyn FnMut(&QueryShape, DistributedPlan) -> TcpCluster>;
type Hub = SubscriptionHub<TcpCluster, MakeBackend>;

/// A set-up system, ready for its first admission.  One exists at a
/// time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Cluster(TcpCluster),
    Hub {
        hub: Hub,
        shape: QueryShape,
        all_id: SubscriptionId,
        subscriber: SubscriberView,
        subscribe_ms: f64,
    },
}

/// Set the workload's system up: compile, spawn and handshake the
/// workers, and register the subscribers.  Returns the system and the
/// set-up time in seconds.
pub fn setup(
    input: &Input,
    config: &TcpConfig,
    spans: &mut Spans,
) -> Result<(System, f64), Failure> {
    let start = Instant::now();
    if input.spec.subscribers == 0 {
        let (dplan, _, _) = compile_timed(input, spans);
        let cluster = spans.time("spawn", "net", || spawn(dplan, config))?;
        return Ok((System::Cluster(cluster), start.elapsed().as_secs_f64()));
    }
    let shape = input.shape();
    let config = config.clone();
    // The hub compiles the shape and builds its one backend inside the
    // first `subscribe`; the worker binary was probed before timing.
    let make: MakeBackend = Box::new(move |_shape, dplan| {
        spawn(dplan, &config).expect("spawning TCP workers after a passing preflight")
    });
    let mut hub: Hub = SubscriptionHub::new(make);
    let (all_id, initial) = spans.time("subscribe_first", "serve", || {
        hub.subscribe(&shape, ParamFilter::all())
    });
    let schema = hub.schema_of(all_id).expect("live subscription").clone();
    let mut subscriber = SubscriberView::new(schema.clone());
    subscriber.apply(&initial);
    let column = schema
        .columns()
        .first()
        .cloned()
        .expect("Q3 view has columns");
    let t = Instant::now();
    spans.time("subscribe_loop", "serve", || {
        for i in 1..input.spec.subscribers {
            let filter = ParamFilter::equals(column.clone(), Value::Long(i as i64 % 1000));
            hub.subscribe(&shape, filter);
        }
    });
    let subscribe_ms = t.elapsed().as_secs_f64() * 1e3;
    let system = System::Hub {
        hub,
        shape,
        all_id,
        subscriber,
        subscribe_ms,
    };
    Ok((system, start.elapsed().as_secs_f64()))
}

/// Run one episode: set up, drive the stream, read the final view, then
/// read the layer counters and tear down.
pub fn episode(input: &Input, config: &TcpConfig, spans: &mut Spans) -> Result<Episode, Failure> {
    let (system, setup_s) = setup(input, config, spans)?;
    let mut ep = Episode {
        traced: false,
        setup_s,
        ..Default::default()
    };
    let self0 = self_cpu_secs();
    let children0 = children_cpu_secs();
    let self1 = match system {
        System::Cluster(mut cluster) => {
            closed_loop(input, &mut cluster, spans, &mut ep)?;
            let self1 = self_cpu_secs();
            ep.counters = read_counters(&mut cluster, input.tuples)?;
            spans.time("close", "net", || cluster.close());
            self1
        }
        System::Hub {
            mut hub,
            shape,
            all_id,
            mut subscriber,
            subscribe_ms,
        } => {
            ep.subscribe_ms = subscribe_ms;
            open_loop(
                input,
                &mut hub,
                &shape,
                all_id,
                &mut subscriber,
                spans,
                &mut ep,
            )?;
            let self1 = self_cpu_secs();
            let cluster = hub.backend(&shape.name).expect("shape backend");
            ep.counters = read_counters(cluster, input.tuples)?;
            ep.subscriber_view = Some(subscriber.contents());
            spans.time("close", "net", || drop(hub));
            self1
        }
    };
    ep.cpu_s = (self1 - self0) + (children_cpu_secs() - children0);
    Ok(ep)
}

/// Closed loop: admit every batch back to back, then flush and read.
fn closed_loop(
    input: &Input,
    cluster: &mut TcpCluster,
    spans: &mut Spans,
    ep: &mut Episode,
) -> Result<(), Failure> {
    let start = Instant::now();
    let mut due = start;
    let mut dues = Vec::with_capacity(input.rounds.len() * 4);
    for (rel, batch) in input.batches() {
        let t0 = Instant::now();
        ep.gen_lag_ms.push(ms_between(due, t0));
        spans.time("apply_batch", "runtime", || {
            cluster.try_apply_batch(rel, batch)
        })?;
        let t1 = Instant::now();
        ep.apply_us.push(ms_between(t0, t1) * 1e3);
        dues.push(due);
        due = t1;
    }
    let t0 = Instant::now();
    spans.time("flush", "runtime", || cluster.try_flush())?;
    ep.flush_ms.push(ms_between(t0, Instant::now()));
    ep.view = spans.time("query_result", "runtime", || cluster.try_query_result())?;
    let end = Instant::now();
    ep.calls = dues.len() as u64 + 2;
    ep.wall_s = end.duration_since(start).as_secs_f64();
    ep.freshness_ms = dues.iter().map(|d| ms_between(*d, end)).collect();
    Ok(())
}

/// Open loop: round `i` is due `i / rate` seconds after the start; each
/// round is admitted, committed with an explicit flush, and published by
/// `pump()`.  Freshness runs from the due time to the pump's return, so a
/// stall also counts against the rounds queued behind it.
fn open_loop(
    input: &Input,
    hub: &mut Hub,
    shape: &QueryShape,
    all_id: SubscriptionId,
    subscriber: &mut SubscriberView,
    spans: &mut Spans,
    ep: &mut Episode,
) -> Result<(), Failure> {
    let rate = input.spec.rate.expect("open loop has a rate");
    let start = Instant::now();
    let mut pushed = 0u64;
    for (i, round) in input.rounds.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        ep.gen_lag_ms.push(ms_between(due, Instant::now()));
        let cluster = hub.backend(&shape.name).expect("shape backend");
        for (rel, batch) in round {
            let t0 = Instant::now();
            spans.time("apply_batch", "runtime", || {
                cluster.try_apply_batch(rel, batch)
            })?;
            ep.apply_us.push(ms_between(t0, Instant::now()) * 1e3);
        }
        let t0 = Instant::now();
        spans.time("flush", "runtime", || cluster.try_flush())?;
        let t1 = Instant::now();
        let deltas = spans.time("pump", "serve", || hub.pump());
        let t2 = Instant::now();
        ep.flush_ms.push(ms_between(t0, t1));
        ep.pump_ms.push(ms_between(t1, t2));
        ep.freshness_ms.push(ms_between(due, t2));
        ep.calls += round.len() as u64 + 2;
        pushed += deltas.len() as u64;
        for d in deltas.iter().filter(|d| d.subscription == all_id) {
            subscriber.apply(d);
        }
    }
    let cluster = hub.backend(&shape.name).expect("shape backend");
    let view = cluster.plan().plan.top_view.clone();
    ep.view = spans.time("view_contents", "runtime", || {
        cluster.try_view_contents(&view)
    })?;
    let end = Instant::now();
    ep.calls += 1;
    ep.wall_s = end.duration_since(start).as_secs_f64();
    ep.deltas_pushed = pushed;
    Ok(())
}

/// Layer counters and stage-histogram sums of one finished episode.
/// `telemetry_totals` runs the `Stats` round that also ships the
/// workers' spans into the driver's stage histograms.
fn read_counters(
    cluster: &mut TcpCluster,
    tuples: usize,
) -> Result<BTreeMap<&'static str, f64>, Failure> {
    let totals = cluster.try_telemetry_totals()?;
    let stats: PipelineStats = Backend::pipeline_stats(&*cluster).expect("pipelined backend");
    let bytes_shuffled = Backend::totals(&*cluster).bytes_shuffled;
    let driver: &mut Driver<TcpTransport> = cluster;
    let telemetry = driver.telemetry().clone();
    let snap = telemetry.snapshot();
    let hist_ms = |name: &str| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e3)
    };
    let mut c = BTreeMap::new();
    c.insert("distributed.bytes_shuffled", bytes_shuffled as f64);
    c.insert(
        "exec.worker_busy_ms",
        hist_ms("trace.worker_run_block_micros"),
    );
    c.insert("exec.instructions", totals.instructions as f64);
    c.insert("exec.tuples_applied", totals.tuples_applied as f64);
    c.insert("exec.statements", totals.statements as f64);
    c.insert(
        "runtime.batches_per_trigger",
        stats.batches_admitted as f64 / stats.batches_executed.max(1) as f64,
    );
    c.insert("runtime.max_queue_depth", stats.max_queue_depth as f64);
    c.insert("runtime.admit_ms", hist_ms("trace.admit_micros"));
    c.insert("runtime.coalesce_ms", hist_ms("trace.coalesce_micros"));
    c.insert(
        "runtime.scatter_encode_ms",
        hist_ms("trace.scatter_encode_micros"),
    );
    c.insert("runtime.gather_ms", hist_ms("trace.gather_micros"));
    c.insert(
        "runtime.watermark_commit_ms",
        hist_ms("trace.watermark_commit_micros"),
    );
    let bytes_sent = snap.counter("net.bytes.sent") as f64;
    let bytes_received = snap.counter("net.bytes.received") as f64;
    c.insert("net.bytes_sent", bytes_sent);
    c.insert("net.bytes_received", bytes_received);
    c.insert("net.frames_sent", snap.counter("net.frames.sent") as f64);
    c.insert(
        "net.frames_received",
        snap.counter("net.frames.received") as f64,
    );
    c.insert(
        "net.bytes_per_tuple",
        (bytes_sent + bytes_received) / tuples as f64,
    );
    c.insert("net.worker_fetch_ms", hist_ms("trace.worker_fetch_micros"));
    c.insert("net.worker_apply_ms", hist_ms("trace.worker_apply_micros"));
    c.insert(
        "serve.fanout_split_ms",
        hist_ms("trace.fanout_split_micros"),
    );
    c.insert(
        "telemetry.spans_recorded",
        telemetry.trace_spans().len() as f64,
    );
    c.insert(
        "telemetry.spans_dropped",
        telemetry.tracer().dropped() as f64,
    );
    Ok(c)
}
