//! Table 9: contextualizer distance-function ablation.
//!
//! Cosine vs euclidean distance in the refinement radius (both under
//! random selection), with the standard pipeline as reference.
//! Paper: cosine generally gives the larger lift, but both beat the
//! standard pipeline.

use nemo_baselines::Method;
use nemo_bench::report::grid_table;
use nemo_bench::{run_grid, write_csv, BenchProtocol};
use nemo_data::DatasetName;

fn main() {
    let protocol = BenchProtocol::from_env();
    println!(
        "Table 9 — distance-function ablation (profile: {}, {} seeds)",
        protocol.profile.name(),
        protocol.n_seeds,
    );
    let methods = [Method::ClOnly, Method::ClEuclidean, Method::Snorkel];
    let datasets: Vec<_> = DatasetName::ALL.iter().map(|&n| protocol.dataset(n)).collect();
    let ds_refs: Vec<&_> = datasets.iter().collect();
    let grid = run_grid(&methods, &ds_refs, &protocol);
    let method_names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
    let ds_names: Vec<&str> = datasets.iter().map(|d| d.name.as_str()).collect();
    grid_table(&grid, &method_names, &ds_names)
        .print("Contextualized (cosine) vs contextualized (euclidean) vs standard:");
    let mut rows = Vec::new();
    for cell in &grid.cells {
        rows.push(vec![
            cell.dataset.clone(),
            cell.method.to_string(),
            format!("{:.4}", cell.score()),
            format!("{:.4}", cell.std()),
        ]);
    }
    write_csv("table9_distance_ablation", &["dataset", "method", "score", "std"], &rows);
}
