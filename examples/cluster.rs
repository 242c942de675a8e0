//! Multi-instance execution (paper §3): shard one logical stream by key
//! across several engine instances, each with its own hybrid memory, and
//! aggregate their results.
//!
//! Run with: `cargo run --release --example cluster`

// Reporting binaries talk to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use streambox_hbm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mk_source = || KvSource::new(77, 50_000, 5_000_000).with_value_range(10_000);
    let engine = RunConfig {
        cores: 16,
        sender: SenderConfig {
            bundle_rows: 10_000,
            bundles_per_watermark: 10,
            nic: NicModel::rdma_40g(),
        },
        ..RunConfig::default()
    };

    println!(
        "{:>6}  {:>14}  {:>12}  shard loads",
        "shards", "records", "M rec/s"
    );
    for shards in [1u32, 2, 4, 8] {
        let cluster = ShardedCluster::new(ClusterConfig {
            shards,
            engine: engine.clone(),
            ..ClusterConfig::default()
        });
        let report = cluster.run(mk_source, benchmarks::sum_per_key, 40, 10)?;
        let loads: Vec<String> = report.shard_loads().iter().map(u64::to_string).collect();
        println!(
            "{:>6}  {:>14}  {:>12.1}  {}",
            shards,
            report.records_in,
            report.throughput_rps() / 1e6,
            loads.join(" "),
        );
    }
    println!("\nEach shard owns a disjoint set of key slots; cluster throughput scales\nwith shards until a single shard's ingestion link saturates.");
    Ok(())
}
