//! `perfbench` — the repository benchmark.
//!
//! Runs one named workload against a 2-worker `TcpCluster` (worker
//! subprocesses on loopback, default `PipelineConfig`) for at least
//! `--seconds`, checks every final view against a `LocalEngine` run over
//! the same batches, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`).  The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload bulk-q3 --seed 1 --seconds 30 --trace 0 \
//!           --worker-bin <path to release hotdog-worker> --out-dir <dir>
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds this
//! package and the `hotdog-worker` binary first.

mod measure;
mod workload;

use hotdog::distributed::{partition_shards, DistStmtKind, Transform};
use hotdog::exec::relabel;
use hotdog::net::{decode_from_slice, encode_to_vec};
use hotdog::prelude::*;
use measure::{median, peak_rss_mb, quantile, Spans};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use workload::{compile_timed, episode, setup, tcp_config, Episode, Input, System, SPECS, WORKERS};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_tps", "tuples/s"),
    ("freshness_p50_ms", "ms"),
    ("cpu_us_per_tuple", "us/tuple"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.  Metrics whose unit is a
/// count of work (`count`, `B`, `B/tuple`, `batches/trigger`) are exact:
/// the same seed must give the same value in every episode and run.
const PER_LAYER: [(&str, &str); 40] = [
    ("ivm.compile_ms", "ms"),
    ("distributed.compile_ms", "ms"),
    ("distributed.bytes_shuffled", "B"),
    ("distributed.partition_mtps", "Mtuples/s"),
    ("exec.local_tps", "tuples/s"),
    ("exec.worker_busy_ms", "ms"),
    ("exec.instructions", "count"),
    ("exec.tuples_applied", "count"),
    ("exec.statements", "count"),
    ("runtime.apply_us_p50", "us"),
    ("runtime.apply_us_p99", "us"),
    ("runtime.flush_ms_p50", "ms"),
    ("runtime.flush_ms_p99", "ms"),
    ("runtime.flush_growth", "x"),
    ("runtime.batches_per_trigger", "batches/trigger"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.admit_ms", "ms"),
    ("runtime.coalesce_ms", "ms"),
    ("runtime.scatter_encode_ms", "ms"),
    ("runtime.gather_ms", "ms"),
    ("runtime.watermark_commit_ms", "ms"),
    ("net.bytes_sent", "B"),
    ("net.bytes_received", "B"),
    ("net.frames_sent", "count"),
    ("net.frames_received", "count"),
    ("net.bytes_per_tuple", "B/tuple"),
    ("net.encode_mbps", "MB/s"),
    ("net.decode_mbps", "MB/s"),
    ("net.worker_fetch_ms", "ms"),
    ("net.worker_apply_ms", "ms"),
    ("serve.subscribe_ms", "ms"),
    ("serve.pump_ms_p50", "ms"),
    ("serve.pump_ms_p99", "ms"),
    ("serve.fanout_split_ms", "ms"),
    ("serve.deltas_pushed", "count"),
    ("telemetry.spans_recorded", "count"),
    ("telemetry.spans_dropped", "count"),
    ("telemetry.bench_trace_overhead", "x"),
    ("workload.gen_lag_ms_p99", "ms"),
    ("workload.late_share", "share"),
];

/// Per-layer timings that are structurally zero on some workload (no hub
/// on the closed loops; nothing to coalesce when the open loop commits
/// every round).  The traced run prints them, but they stay out of the
/// result line, which holds only values that are measured on every
/// workload.
const PRINT_ONLY: [&str; 5] = [
    "runtime.coalesce_ms",
    "serve.subscribe_ms",
    "serve.pump_ms_p50",
    "serve.pump_ms_p99",
    "serve.fanout_split_ms",
];

/// Set-ups measured before the episodes, on top of each episode's own;
/// also the number of timed compiles in a traced run.
const SETUP_REPS: usize = 20;
/// Relative tolerance of the final-view check: the coalescing bound of
/// the repository's differential suites (float sums reassociate).
const VIEW_EPS: f64 = 1e-9;
/// A generator admission later than this past its due time is late.
const LATE_MS: f64 = 1.0;
/// Minimum measured time of each replay (repeated passes over the input).
const REPLAY_MIN: Duration = Duration::from_millis(200);

const USAGE: &str = "usage: perfbench --workload <bulk-q3|shuffle-q7|trickle-q3> --seed <n> \
                     --seconds <n> --trace <0|1> --worker-bin <path> --out-dir <dir>";

fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "B" | "B/tuple" | "batches/trigger")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        worker_bin: take("--worker-bin")?.into(),
        out_dir: take("--out-dir")?.into(),
    };
    match flags.keys().next() {
        Some(unknown) => Err(format!("unknown flag {unknown}")),
        None => Ok(args),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    exit(run(&args));
}

/// Locate the worker binary and run one handshake plus a short probe
/// before anything is timed, so a missing or stale worker fails here with
/// a clear message instead of as `WorkerDead` partway through a run.
fn preflight(input: &Input, config: &TcpConfig, bin: &std::path::Path) -> Result<(), String> {
    let hint = "build it with `cargo build --release -p hotdog-worker`, or point \
                HOTDOG_WORKER_BIN at a release build";
    if !bin.is_file() {
        return Err(format!(
            "hotdog-worker not found at {}: {hint}",
            bin.display()
        ));
    }
    let (dplan, _, _) = compile_timed(input, &mut Spans::new(Instant::now()));
    let mut cluster =
        TcpCluster::pipelined(dplan, config, PipelineConfig::default()).map_err(|e| {
            format!(
                "could not start {WORKERS} workers from {}: {e}; {hint}",
                bin.display()
            )
        })?;
    let probe: Vec<_> = input.rounds.iter().take(8).flatten().collect();
    let mut reference = local_engine(input);
    let mut check = || -> Result<bool, WorkerDead> {
        for (rel, batch) in &probe {
            cluster.try_apply_batch(rel, batch)?;
            reference.apply_batch(rel, batch);
        }
        cluster.try_flush()?;
        Ok(cluster
            .try_query_result()?
            .approx_eq_eps(&reference.query_result(), VIEW_EPS))
    };
    let outcome = check();
    cluster.close();
    match outcome {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "workers from {} answered the probe with a wrong view: a stale build? {hint}",
            bin.display()
        )),
        Err(dead) => Err(format!(
            "workers from {} failed the probe ({dead}): a stale build? {hint}",
            bin.display()
        )),
    }
}

fn local_engine(input: &Input) -> LocalEngine {
    let plan = compile_recursive(input.query.id, &input.query.expr);
    LocalEngine::new(plan, ExecMode::Batched { preaggregate: true })
}

/// The single-threaded baseline over the same batches: the reference
/// view and the seconds it took.
fn reference(input: &Input) -> (Relation, f64) {
    let mut engine = local_engine(input);
    let start = Instant::now();
    for (rel, batch) in input.batches() {
        engine.apply_batch(rel, batch);
    }
    let view = engine.query_result();
    (view, start.elapsed().as_secs_f64())
}

/// Repeat `pass` until `REPLAY_MIN` has been measured; returns the work
/// units `pass` reports per second.
fn replay(mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut units = 0usize;
    while start.elapsed() < REPLAY_MIN {
        units += pass();
    }
    units as f64 / start.elapsed().as_secs_f64()
}

/// `partition_shards` over every batch a trigger program scatters, with
/// the batch relabelled as the runtime does before routing: millions of
/// tuples routed per second.
fn partition_replay(input: &Input, dplan: &DistributedPlan) -> f64 {
    let mut work = Vec::new();
    for (rel, batch) in input.batches() {
        let Some(program) = dplan.program(rel) else {
            continue;
        };
        let delta = format!("Δ{rel}");
        let canonical = relabel(batch, &program.relation_schema);
        for stmt in program.statements() {
            if let DistStmtKind::Transform {
                kind: Transform::Scatter(pf),
                source,
            } = &stmt.kind
            {
                if *source == delta {
                    work.push((pf, relabel(&canonical, &stmt.target_schema), stmt));
                }
            }
        }
    }
    replay(|| {
        work.iter()
            .map(|(pf, src, stmt)| {
                black_box(partition_shards(pf, src, stmt, WORKERS));
                src.len()
            })
            .sum()
    }) / 1e6
}

/// Codec throughput over the workload's batch relations: (encode MB/s,
/// decode MB/s).
fn codec_replay(input: &Input) -> (f64, f64) {
    let encode = replay(|| {
        input
            .batches()
            .map(|(_, b)| black_box(encode_to_vec(b)).len())
            .sum()
    });
    let frames: Vec<Vec<u8>> = input.batches().map(|(_, b)| encode_to_vec(b)).collect();
    let decode = replay(|| {
        frames
            .iter()
            .map(|f| {
                let rel: Relation = decode_from_slice(f).expect("decoding a freshly encoded batch");
                black_box(rel);
                f.len()
            })
            .sum()
    });
    (encode / 1e6, decode / 1e6)
}

fn teardown(system: System) {
    match system {
        System::Cluster(cluster) => {
            cluster.close();
        }
        System::Hub { hub, .. } => drop(hub),
    }
}

/// Compare each exact metric across episodes and against the values an
/// earlier run with the same workload and seed left in `out_dir` (the
/// first run records them).  Returns the names that differ and whether an
/// earlier run was compared.
fn exact_check(args: &Args, exact: &BTreeMap<&'static str, Vec<f64>>) -> (Vec<String>, bool) {
    let mut differ: Vec<String> = exact
        .iter()
        .filter(|(_, v)| v.windows(2).any(|w| w[0] != w[1]))
        .map(|(k, v)| format!("{k} (within the run: {v:?})"))
        .collect();
    let path = args
        .out_dir
        .join(format!("exact-{}-seed{}.txt", args.workload, args.seed));
    let current: BTreeMap<&str, f64> = exact.iter().map(|(k, v)| (*k, v[0])).collect();
    let earlier = std::fs::read_to_string(&path);
    match &earlier {
        Ok(text) => {
            for line in text.lines() {
                let Some((k, v)) = line.split_once('=') else {
                    continue;
                };
                let Ok(before) = v.parse::<f64>() else {
                    continue;
                };
                if let Some(now) = current.get(k) {
                    if *now != before {
                        differ.push(format!("{k} (earlier run {before}, this run {now})"));
                    }
                }
            }
        }
        Err(_) => {
            let text: String = current.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
            if let Err(e) =
                std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, text))
            {
                eprintln!(
                    "perfbench: could not record exact counters in {}: {e}",
                    path.display()
                );
            }
        }
    }
    (differ, earlier.is_ok())
}

fn run(args: &Args) -> i32 {
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return 2;
    };
    let input = Input::generate(spec, args.seed);
    let config = tcp_config(&args.worker_bin);
    if let Err(e) = preflight(&input, &config, &args.worker_bin) {
        eprintln!("perfbench: preflight failed: {e}");
        return 2;
    }

    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut setups = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for _ in 0..SETUP_REPS {
        attempted += 1;
        match setup(&input, &config, &mut spans) {
            Ok((system, secs)) => {
                setups.push(secs);
                teardown(system);
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("set-up: {e}"));
            }
        }
    }

    // Timed phase: whole episodes until `--seconds` have passed.  The
    // traced run alternates traced and untraced episodes so the tracing
    // overhead is measured within one process.
    let min_episodes = if args.trace { 2 } else { 1 };
    let timed = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    while failures.is_empty()
        && (episodes.len() < min_episodes || timed.elapsed().as_secs_f64() < args.seconds)
    {
        let traced = args.trace && episodes.len().is_multiple_of(2);
        spans.set_enabled(traced);
        attempted += 1;
        match episode(&input, &config, &mut spans) {
            Ok(mut ep) => {
                ep.traced = traced;
                setups.push(ep.setup_s);
                attempted += ep.calls;
                episodes.push(ep);
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("episode {}: {e}", episodes.len() + 1));
            }
        }
    }
    let peak_rss = peak_rss_mb();

    // Everything below runs after the timed phase.
    spans.set_enabled(args.trace);
    let (reference_view, local_secs) = spans.time("local_engine", "exec", || reference(&input));
    for (i, ep) in episodes.iter().enumerate() {
        attempted += 1;
        if !ep.view.approx_eq_eps(&reference_view, VIEW_EPS) {
            failed += 1;
            failures.push(format!(
                "episode {}: final view differs from LocalEngine",
                i + 1
            ));
        }
        if let Some(pushed) = &ep.subscriber_view {
            attempted += 1;
            if pushed.checksum() != ep.view.checksum() {
                failed += 1;
                failures.push(format!(
                    "episode {}: subscriber view rebuilt from pushed deltas differs from the served view",
                    i + 1
                ));
            }
        }
    }

    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let tuples = input.tuples as f64;
    let pooled = |eps: &[&Episode], f: fn(&Episode) -> &Vec<f64>| -> Vec<f64> {
        eps.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let per_episode = |eps: &[&Episode], f: &dyn Fn(&Episode) -> f64| -> f64 {
        median(&eps.iter().map(|e| f(e)).collect::<Vec<_>>())
    };

    let fresh = pooled(&untraced, |e| &e.freshness_ms);
    let fresh_samples = fresh.len();
    let throughput = per_episode(&untraced, &|e| tuples / e.wall_s);
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("throughput_tps", throughput);
    // The percentile is taken per episode and the median reported, so one
    // episode disturbed by the host does not set the run's value.
    e2e.insert(
        "freshness_p50_ms",
        per_episode(&untraced, &|e| quantile(&e.freshness_ms, 0.50)),
    );
    e2e.insert(
        "cpu_us_per_tuple",
        per_episode(&untraced, &|e| e.cpu_s * 1e6 / tuples),
    );
    e2e.insert("peak_rss_mb", peak_rss);

    let local_tps = tuples / local_secs;
    let mut exact: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        if is_exact(unit) {
            for ep in &episodes {
                if let Some(v) = ep.counters.get(name) {
                    exact.entry(name).or_default().push(*v);
                }
            }
        }
    }
    for ep in &episodes {
        exact
            .entry("serve.deltas_pushed")
            .or_default()
            .push(ep.deltas_pushed as f64);
    }
    let (differ, compared) = if episodes.is_empty() {
        (Vec::new(), false)
    } else {
        exact_check(args, &exact)
    };

    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let mut compile = (Vec::new(), Vec::new());
        let mut dplan = None;
        for _ in 0..SETUP_REPS {
            let (plan, ivm_ms, dist_ms) = compile_timed(&input, &mut spans);
            compile.0.push(ivm_ms);
            compile.1.push(dist_ms);
            dplan = Some(plan);
        }
        let dplan = dplan.expect("at least one compile");
        layer.insert("ivm.compile_ms", median(&compile.0));
        layer.insert("distributed.compile_ms", median(&compile.1));
        layer.insert(
            "distributed.partition_mtps",
            spans.time("partition_shards", "distributed", || {
                partition_replay(&input, &dplan)
            }),
        );
        let (enc, dec) = spans.time("codec", "net", || codec_replay(&input));
        layer.insert("net.encode_mbps", enc);
        layer.insert("net.decode_mbps", dec);
        layer.insert("exec.local_tps", local_tps);
        for (name, _) in PER_LAYER {
            if traced
                .first()
                .is_some_and(|e| e.counters.contains_key(name))
            {
                layer.insert(name, per_episode(&traced, &|e| e.counters[name]));
            }
        }
        let apply = pooled(&traced, |e| &e.apply_us);
        let flush = pooled(&traced, |e| &e.flush_ms);
        let pump = pooled(&traced, |e| &e.pump_ms);
        let lag = pooled(&traced, |e| &e.gen_lag_ms);
        layer.insert("runtime.apply_us_p50", quantile(&apply, 0.50));
        layer.insert("runtime.apply_us_p99", quantile(&apply, 0.99));
        layer.insert("runtime.flush_ms_p50", quantile(&flush, 0.50));
        layer.insert("runtime.flush_ms_p99", quantile(&flush, 0.99));
        layer.insert(
            "runtime.flush_growth",
            per_episode(&traced, &|e| e.growth()),
        );
        layer.insert(
            "serve.subscribe_ms",
            per_episode(&traced, &|e| e.subscribe_ms),
        );
        layer.insert("serve.pump_ms_p50", quantile(&pump, 0.50));
        layer.insert("serve.pump_ms_p99", quantile(&pump, 0.99));
        layer.insert(
            "serve.deltas_pushed",
            per_episode(&traced, &|e| e.deltas_pushed as f64),
        );
        layer.insert("workload.gen_lag_ms_p99", quantile(&lag, 0.99));
        layer.insert(
            "workload.late_share",
            lag.iter().filter(|l| **l > LATE_MS).count() as f64 / lag.len().max(1) as f64,
        );
        // Closed loops compare wall time per episode; the open loop's wall
        // time is fixed by its schedule, so it compares median freshness.
        let e2e_of = |eps: &[&Episode]| match spec.rate {
            None => per_episode(eps, &|e| e.wall_s),
            Some(_) => quantile(&pooled(eps, |e| &e.freshness_ms), 0.5),
        };
        layer.insert(
            "telemetry.bench_trace_overhead",
            e2e_of(&traced) / e2e_of(&untraced),
        );
    }

    // A failed run may lack some layer values; it reports them as 0.
    let layer_value = |name: &str| layer.get(name).copied().unwrap_or(0.0);

    // Human-readable report.
    println!(
        "perfbench {} seed {} trace {}: {} tuples in {} rounds, {} episodes ({} traced), {} set-ups, {WORKERS} TCP workers",
        spec.name,
        args.seed,
        args.trace as u8,
        input.tuples,
        input.rounds.len(),
        episodes.len(),
        traced.len(),
        setups.len()
    );
    for (i, ep) in episodes.iter().enumerate() {
        println!(
            "  episode {}{}: set-up {:.4} s, {:.0} tuples/s, freshness p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms, \
             {:.2} cpu us/tuple, generator lag p99 {:.3} ms",
            i + 1,
            if ep.traced { " (traced)" } else { "" },
            ep.setup_s,
            tuples / ep.wall_s,
            quantile(&ep.freshness_ms, 0.50),
            quantile(&ep.freshness_ms, 0.90),
            quantile(&ep.freshness_ms, 0.99),
            ep.cpu_s * 1e6 / tuples,
            quantile(&ep.gen_lag_ms, 0.99)
        );
    }
    println!("end-to-end (untraced episodes):");
    for (name, unit) in END_TO_END {
        let n = match name {
            "setup_s" => setups.len(),
            "freshness_p50_ms" => fresh_samples,
            "peak_rss_mb" => 1,
            _ => untraced.len(),
        };
        println!("  {name:<34} {:>14.4} {unit:<16} n={n}", e2e[name]);
    }
    println!(
        "  freshness p90 {:.4} ms, p99 {:.4} ms over all untraced rounds, n={fresh_samples} (printed, \
         not gated: on a shared 2-vCPU host the tail is set by scheduler stalls that differ from run \
         to run)",
        quantile(&fresh, 0.90),
        quantile(&fresh, 0.99)
    );
    println!(
        "  throughput_tps / exec.local_tps = {:.3} (throughput_tps {:.0} tuples/s, median of {} TCP episodes; \
         exec.local_tps {:.0} tuples/s, one single-threaded LocalEngine pass)",
        throughput / local_tps,
        throughput,
        untraced.len(),
        local_tps
    );
    println!(
        "  failed_share = {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        println!("per-layer (traced episodes; exact = repeats bit-for-bit for a seed):");
        for (name, unit) in PER_LAYER {
            let kind = match (is_exact(unit), PRINT_ONLY.contains(&name)) {
                (true, _) => "exact",
                (false, false) => "timing",
                (false, true) => "timing, printed only",
            };
            println!("  {name:<34} {:>14.4} {unit:<16} {kind}", layer_value(name));
        }
        println!("benchmark spans, self time by layer:");
        for (layer_name, name, calls, self_ms) in spans.summary() {
            println!("  {layer_name:<12} {name:<22} {calls:>7} calls {self_ms:>12.3} ms");
        }
        let run_id = format!("{}-seed{}-{}", spec.name, args.seed, std::process::id());
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", spec.name, args.seed));
        match std::fs::create_dir_all(&args.out_dir)
            .and_then(|_| std::fs::write(&path, spans.to_json(&run_id)))
        {
            Ok(()) => println!(
                "wrote {} spans of run {run_id} to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    if differ.is_empty() {
        println!(
            "exact counters: {} repeat across {} episodes{}",
            exact.len(),
            episodes.len(),
            if compared {
                " and match the earlier run of this seed"
            } else {
                "; recorded for later runs of this seed"
            }
        );
    } else {
        println!("exact counters that differ for seed {}:", args.seed);
        for d in &differ {
            println!("  {d}");
        }
    }
    for f in &failures {
        println!("FAILED: {f}");
    }

    let correct = failures.is_empty() && !episodes.is_empty();
    let chosen: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .filter(|(n, _)| !PRINT_ONLY.contains(n))
            .map(|(n, u)| (*n, *u, layer_value(n)))
            .collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (*n, *u, e2e[n])).collect()
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}
