//! Tour of the observability layer: run a pipelined threaded cluster over
//! a TPC-H stream, then read the three telemetry surfaces —
//!
//! 1. the deterministic cross-backend totals (`try_telemetry_totals`),
//! 2. the full metrics registry + recent flight events (`dump_text`,
//!    the same text a `SIGUSR1` prints mid-run),
//! 3. the JSONL flight flush (`HOTDOG_TELEMETRY=path`), written when the
//!    driver drops.
//!
//! Run with:
//!
//! ```text
//! HOTDOG_TELEMETRY=/tmp/flight.jsonl HOTDOG_LOG=1 \
//!     cargo run --release --example telemetry_tour [query] [tuples]
//! ```
//!
//! `HOTDOG_LOG=1` mirrors every flight event to stderr as it happens;
//! `kill -USR1 <pid>` dumps the metrics mid-run without stopping anything.

use hotdog::prelude::*;

fn main() {
    let id = std::env::args().nth(1).unwrap_or_else(|| "Q3".to_string());
    let tuples: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    let cq = query(&id).expect("unknown query id");
    let stream = generate_tpch(7, tuples);
    let plan = compile_recursive(cq.id, &cq.expr);
    let spec = PartitioningSpec::heuristic(&plan, &cq.partition_keys);
    let dplan = compile_distributed(&plan, &spec, OptLevel::O3);

    let config = PipelineConfig {
        coalesce_tuples: 2048,
        admit_capacity: 4,
        ..Default::default()
    };
    let mut cluster = ThreadedCluster::pipelined(dplan, 2, config);
    for batch in stream.batches(500) {
        for (rel, delta) in batch {
            cluster.apply_batch(rel, &delta);
        }
    }
    cluster.flush();
    println!("result checksum: {:?}\n", cluster.query_result().checksum());

    // Surface 1: the deterministic totals — bit-identical on the TCP
    // backend for the same stream.
    let totals = cluster
        .try_telemetry_totals()
        .expect("no worker died in this single-process tour");
    println!("deterministic cross-backend totals:");
    println!("  messages sent     {:>12}", totals.messages_sent);
    println!("  replies received  {:>12}", totals.replies_received);
    println!("  blocks run        {:>12}", totals.blocks_run);
    println!("  statements        {:>12}", totals.statements);
    println!("  instructions      {:>12}", totals.instructions);
    println!("  tuples applied    {:>12}", totals.tuples_applied);
    for (w, snap) in totals.per_worker.iter().enumerate() {
        let held: u64 = snap.cardinalities.iter().map(|(_, n)| n).sum();
        println!(
            "  worker {w}: {} blocks, {} instructions, {held} tuples held",
            snap.stats.blocks_run, snap.stats.instructions
        );
    }

    // Surface 2: the full registry + recent flight events (what SIGUSR1
    // prints mid-run).
    println!("\n{}", cluster.telemetry().dump_text());

    // Surface 3: on drop, HOTDOG_TELEMETRY=path appends the flight ring
    // and a final metrics.snapshot line as JSONL.
    if let Ok(path) = std::env::var("HOTDOG_TELEMETRY") {
        println!("flight recorder will flush to {path} on exit");
    }
}
