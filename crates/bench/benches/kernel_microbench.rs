//! Microbenchmarks of the hot kernels (docs/ARCHITECTURE.md, "The bench /
//! CI gate contract"), harness-free and machine-readable.
//!
//! Two kinds of measurement:
//!
//! - **Kernel timings** — SEU scoring (fast path vs naive reference),
//!   label-model fitting, TF-IDF transformation, distance point-to-all,
//!   and parallel LF application.
//! - **The interactive-loop headline** — a recorded 25-round SEU
//!   trajectory is replayed twice: once rebuilding the per-primitive
//!   aggregates from scratch every round (the pre-`Session` behaviour)
//!   and once delta-syncing a single [`SeuAggregates`] cache (what
//!   `Session` does). Scores are asserted identical; the speedup is the
//!   number the `Session` refactor claims.
//!
//! Results are printed as a table and written to `BENCH_kernel.json` so
//! successive PRs can track the perf trajectory.

use std::time::Instant;

use nemo_core::config::{ContextualizerConfig, IdpConfig};
use nemo_core::contextualizer::{Contextualizer, PivotRowMap};
use nemo_core::idp::{IdpSession, ModelOutputs, RandomSelector, SelectionView};
use nemo_core::oracle::{SimulatedUser, User};
use nemo_core::pipeline::StandardPipeline;
use nemo_core::reference;
use nemo_core::session::{Session, SeuAggregates};
use nemo_core::seu::SeuSelector;
use nemo_core::{NemoSystem, PoolConfig, RoundJob, SessionPool, SharedArtifacts};
use nemo_data::catalog::{build, DatasetName, Profile};
use nemo_data::Dataset;
use nemo_labelmodel::{FittedLabelModel, GenerativeModel, LabelModel, TripletModel};
use nemo_lf::{LabelMatrix, Lineage, PrimitiveLf};
use nemo_persist::{
    artifact_to_bytes, load_artifact, save_artifact, ArtifactBundle, EncodedCheckpointStore,
};
use nemo_sparse::distance::MIN_SHARDED_ROWS;
use nemo_sparse::{CscIndex, CsrMatrix, DenseMatrix, DetRng, Distance, DistanceScratch, SparseVec};
use nemo_text::TfIdf;

/// One timed kernel: median-of-means style summary over repeated calls.
struct BenchResult {
    name: &'static str,
    iters: u32,
    mean_ns: f64,
    min_ns: f64,
}

/// Time `f` adaptively: warm up, then run batches until ~80ms of samples
/// (capped) and report mean/min per-call time.
fn bench<R>(name: &'static str, mut f: impl FnMut() -> R) -> BenchResult {
    // Warmup + calibration: how many calls fit in a batch.
    let start = Instant::now();
    std::hint::black_box(f());
    let once_ns = start.elapsed().as_nanos().max(1) as f64;
    let target_total_ns = 80_000_000.0;
    let iters = (target_total_ns / once_ns).clamp(3.0, 3000.0) as u32;

    let mut min_ns = f64::INFINITY;
    let mut total_ns = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        total_ns += ns;
        min_ns = min_ns.min(ns);
    }
    BenchResult { name, iters, mean_ns: total_ns / iters as f64, min_ns }
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn prepared_session(ds: &Dataset) -> IdpSession<'_> {
    let config = IdpConfig { n_iterations: 25, eval_every: 25, seed: 1, ..Default::default() };
    let mut session = IdpSession::new(
        ds,
        config,
        Box::new(RandomSelector),
        Box::new(SimulatedUser::default()),
        Box::new(StandardPipeline),
    );
    for _ in 0..25 {
        session.step();
    }
    session
}

fn kernel_benches(ds: &Dataset, results: &mut Vec<BenchResult>) {
    let session = prepared_session(ds);
    let excluded = vec![false; ds.train.n()];
    let view = SelectionView {
        ds,
        lineage: session.lineage(),
        matrix: session.matrix(),
        outputs: session.outputs(),
        excluded: &excluded,
        iteration: 25,
        aggs: None,
    };
    let selector = SeuSelector::new();

    results.push(bench("seu_fast_path_full_pool", || {
        let aggs = SeuSelector::primitive_aggregates(&view);
        let mut best = f64::NEG_INFINITY;
        for x in 0..ds.train.n() {
            best = best.max(selector.expected_utility(&view, &aggs, x));
        }
        best
    }));

    results.push(bench("seu_naive_100_examples", || {
        let mut best = f64::NEG_INFINITY;
        for x in 0..100.min(ds.train.n()) {
            best = best.max(selector.expected_utility_naive(&view, x));
        }
        best
    }));

    let matrix = session.matrix().clone();
    results
        .push(bench("labelmodel_triplet_fit", || TripletModel::default().fit(&matrix, [0.5, 0.5])));
    results
        .push(bench("labelmodel_em_fit", || GenerativeModel::default().fit(&matrix, [0.5, 0.5])));

    // Distance engine: naive row-major scan vs the inverted-index kernel,
    // both with reused output buffers so only kernel work is timed.
    let norms = ds.train.features.sq_norms().to_vec();
    let mut out = Vec::new();
    let mut pivot = 0usize;
    let csr = ds.train.features.csr();
    results.push(bench("distance_point_to_all_cosine", || {
        pivot = (pivot + 1) % ds.train.n();
        Distance::Cosine.sparse_row_to_all_naive_into(
            &csr.row(pivot),
            norms[pivot],
            csr,
            &norms,
            &mut out,
        );
        out[pivot]
    }));

    let csc = CscIndex::from_csr(csr);
    let mut scratch = DistanceScratch::new();
    results.push(bench("distance_point_to_all_indexed", || {
        pivot = (pivot + 1) % ds.train.n();
        Distance::Cosine.sparse_row_to_all_indexed_into(
            &csr.row(pivot),
            norms[pivot],
            &csc,
            &norms,
            &mut scratch,
            &mut out,
        );
        out[pivot]
    }));

    // Contextualizer registration: 32 simulated-user LFs registered one at
    // a time through the naive engine (the pre-index behaviour) vs one
    // batched pass through the indexed engine.
    let mut rng = DetRng::new(13);
    let mut user = SimulatedUser::default();
    let mut lineage = Lineage::new();
    let mut x = 0usize;
    let mut guard = 0usize;
    while lineage.len() < 32 && guard < 10_000 {
        guard += 1;
        if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
            lineage.record(lf, x as u32, lineage.len() as u32);
        }
        x = (x + 7) % ds.train.n();
    }
    results.push(bench("contextualizer_register_per_lf", || {
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        for rec in lineage.tracked() {
            reference::register_batch_naive(&mut ctx, std::slice::from_ref(rec), ds);
        }
        ctx.n_registered()
    }));
    results.push(bench("contextualizer_register_batch", || {
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.sync(&lineage, ds);
        ctx.n_registered()
    }));

    // TF-IDF transform over synthetic id-sequences.
    let mut rng = DetRng::new(9);
    let docs: Vec<Vec<u32>> =
        (0..500).map(|_| (0..30).map(|_| rng.index(800) as u32).collect()).collect();
    let model = TfIdf::default().fit(&docs, 800);
    results.push(bench("tfidf_transform_500_docs", || model.transform(&docs)));

    let mut rng = DetRng::new(11);
    let lfs: Vec<PrimitiveLf> = (0..50)
        .map(|_| {
            PrimitiveLf::new(
                rng.index(ds.n_primitives) as u32,
                nemo_lf::Label::from_bool(rng.bernoulli(0.5)),
            )
        })
        .collect();
    results.push(bench("label_matrix_from_50_lfs_parallel", || {
        LabelMatrix::from_lfs(&lfs, &ds.train.corpus)
    }));

    results.push(bench("model_outputs_initial", || ModelOutputs::initial(ds)));
}

/// Replay statistics for one aggregate-maintenance mode.
struct LoopStats {
    total_ns: f64,
    rounds: usize,
    checksum: f64,
}

/// Replay a recorded trajectory of model outputs, performing each round's
/// selection work in one of two modes:
///
/// - **naive** (`incremental = false`): the pre-`Session` path — rebuild
///   the per-primitive aggregates from scratch and score every example
///   through the per-occurrence `expected_utility` loop.
/// - **incremental**: the `Session` engine path — delta-sync the
///   [`SeuAggregates`] cache and score through the per-round
///   [`SeuSelector::score_table`].
fn replay(
    ds: &Dataset,
    trajectory: &[ModelOutputs],
    incremental: bool,
) -> (LoopStats, SeuAggregates) {
    let selector = SeuSelector::new();
    let excluded = vec![false; ds.train.n()];
    let avail: Vec<usize> = (0..ds.train.n()).collect();
    let lineage = nemo_lf::Lineage::new();
    let matrix = LabelMatrix::new(ds.train.n());
    let mut cache = SeuAggregates::new(ds, &trajectory[0]);
    let mut checksum = 0.0;
    let start = Instant::now();
    for outputs in &trajectory[1..] {
        let view = SelectionView {
            ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs,
            excluded: &excluded,
            iteration: 0,
            aggs: None,
        };
        let scores = if incremental {
            cache.sync(ds, outputs);
            selector.scores(&view, cache.aggs(), &avail)
        } else {
            let aggs = SeuSelector::primitive_aggregates(&view);
            avail.iter().map(|&x| selector.expected_utility(&view, &aggs, x)).collect()
        };
        checksum += scores.iter().copied().filter(|s| s.is_finite()).sum::<f64>();
    }
    let total_ns = start.elapsed().as_nanos() as f64;
    (LoopStats { total_ns, rounds: trajectory.len() - 1, checksum }, cache)
}

/// Record a real 25-round SEU trajectory (and its lineage) with the
/// session engine.
fn record_trajectory(ds: &Dataset) -> (Vec<ModelOutputs>, Lineage) {
    let config = IdpConfig { n_iterations: 25, eval_every: 25, seed: 7, ..Default::default() };
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    let mut pipeline = StandardPipeline;
    let mut trajectory = vec![session.outputs().clone()];
    for _ in 0..25 {
        session.step(&mut selector, &mut user, &mut pipeline);
        trajectory.push(session.outputs().clone());
    }
    (trajectory, session.lineage().clone())
}

/// Measure aggregate maintenance + full-pool scoring under both modes
/// over a recorded real trajectory. Also returns the incremental mode's
/// per-round time: the production SEU round (delta sync + table rescore).
fn seu_loop_bench(ds: &Dataset, trajectory: &[ModelOutputs]) -> (String, f64) {
    // Warm both paths once, then measure.
    let _ = replay(ds, trajectory, false);
    let _ = replay(ds, trajectory, true);
    let (naive, _) = replay(ds, trajectory, false);
    let (incr, cache) = replay(ds, trajectory, true);
    assert!(
        (naive.checksum - incr.checksum).abs() <= 1e-9 * naive.checksum.abs().max(1.0),
        "incremental replay diverged: {} vs {}",
        naive.checksum,
        incr.checksum
    );

    let speedup = naive.total_ns / incr.total_ns;
    let (_, deltas) = cache.sync_counts();
    let (dirty_majority, drift_bound) = cache.rebuild_fallback_counts();
    println!(
        "\nSEU interactive-loop aggregate maintenance ({} rounds, full-pool scoring):",
        naive.rounds
    );
    println!("  full rebuild per round : {}", human(naive.total_ns / naive.rounds as f64));
    println!("  incremental delta-sync : {}", human(incr.total_ns / incr.rounds as f64));
    println!(
        "  speedup                : {speedup:.2}x  ({deltas} delta syncs, \
         {} rebuild fallbacks: {dirty_majority} dirty-majority, {drift_bound} drift-bound)",
        dirty_majority + drift_bound,
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Committed numbers show ~4x; gate only the sign so single-core
        // CI noise cannot flake the build.
        assert!(
            incr.total_ns <= naive.total_ns,
            "regression: incremental aggregate sync ({}) slower than full rebuild ({})",
            human(incr.total_ns),
            human(naive.total_ns)
        );
    }

    let json = format!(
        concat!(
            "{{\"rounds\": {}, \"full_rebuild_ns\": {:.0}, \"incremental_ns\": {:.0}, ",
            "\"speedup\": {:.4}, \"delta_syncs\": {}, \"rebuild_fallbacks\": {}, ",
            "\"fallbacks_dirty_majority\": {}, \"fallbacks_drift_bound\": {}}}"
        ),
        naive.rounds,
        naive.total_ns,
        incr.total_ns,
        speedup,
        deltas,
        dirty_majority + drift_bound,
        dirty_majority,
        drift_bound,
    );
    (json, incr.total_ns / incr.rounds as f64)
}

/// Warm-started vs cold percentile tuning with the EM label model: one
/// *cross-round* tune at the full-lineage state, seeded (or not) from
/// the previous round's per-grid-point fits — exactly the step a
/// contextualized session repeats every iteration, on the lineage the
/// recorded session actually collected.
///
/// The cold reference pairs the cold-fit oracle [`reference::tune_p`]
/// with the plain (Aitken-off) fixed-point EM — the pre-incremental
/// behaviour, the way [`reference::register_batch_naive`] preserves the
/// pre-index distance engine. The warm path is the production default:
/// Aitken-accelerated fits, seeded per grid point, run in parallel.
///
/// Tuned percentiles are asserted identical before timing; with
/// `NEMO_BENCH_ENFORCE` set, a warm round less than 2x faster than the
/// reference round aborts the run.
fn tune_p_warm_bench(
    ds: &Dataset,
    lineage: &Lineage,
    results: &mut Vec<BenchResult>,
) -> (String, f64, f64) {
    let n_lfs = lineage.len();
    assert!(n_lfs >= 2, "recorded session collected too few LFs");
    let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
    let prev_matrix = LabelMatrix::from_lfs(&lfs[..n_lfs - 1], &ds.train.corpus);
    let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
    let warm_model = GenerativeModel::default();
    let cold_model = GenerativeModel { accel: false, ..Default::default() };
    let prior = [0.5, 0.5];

    // Previous round (one LF fewer): capture its per-grid-point seeds.
    let mut prev_ctx = Contextualizer::new(ContextualizerConfig::default());
    prev_ctx.register_batch(&lineage.tracked()[..n_lfs - 1], ds, &PivotRowMap::new());
    prev_ctx.tune_p(&prev_matrix, ds, &warm_model, prior);
    let seeds: Vec<Vec<f64>> = prev_ctx.warm_seeds().to_vec();

    let mut cold_ctx = Contextualizer::new(ContextualizerConfig::default());
    cold_ctx.sync(lineage, ds);
    let mut warm_ctx = Contextualizer::new(ContextualizerConfig::default());
    warm_ctx.sync(lineage, ds);

    {
        // The cold reference reconverges within EM tolerance to the same
        // percentile (as `tests/incremental_paths.rs` pins end to end).
        warm_ctx.set_warm_seeds(seeds.clone());
        let warm = warm_ctx.tune_p(&matrix, ds, &warm_model, prior);
        let cold = reference::tune_p(&mut cold_ctx, &matrix, ds, &cold_model, prior);
        assert_eq!(warm.p, cold.p, "warm tuned percentile diverged from the reference round");
    }
    let cold = bench("tune_p_reference_em", || {
        reference::tune_p(&mut cold_ctx, &matrix, ds, &cold_model, prior).p
    });
    let warm = bench("tune_p_warm_em", || {
        // Restore the previous round's seeds so every timed call is one
        // genuine cross-round warm tune (not a same-matrix refit).
        warm_ctx.set_warm_seeds(seeds.clone());
        warm_ctx.tune_p(&matrix, ds, &warm_model, prior).p
    });

    // EM iteration counts per grid point for the same cross-round step
    // (computed outside the timing loops), plus a fixed-point agreement
    // check: warm + accelerated must land where plain cold lands.
    let p_grid = ContextualizerConfig::default().p_grid;
    let mut iters_cold = 0usize;
    let mut iters_warm = 0usize;
    for (k, &p) in p_grid.iter().enumerate() {
        let refined = cold_ctx.refined_train_matrix(&matrix, p);
        let (fit_cold, ic) = cold_model.fit_em(&refined, prior, None);
        let (fit_warm, iw) = warm_model.fit_em(&refined, prior, seeds.get(k).map(Vec::as_slice));
        for (a, b) in fit_cold.lf_accuracies().iter().zip(fit_warm.lf_accuracies()) {
            assert!(
                (a - b).abs() < 1e-6,
                "warm/accelerated fit diverged from the plain cold fixed point at p={p}: {a} vs {b}"
            );
        }
        iters_cold += ic;
        iters_warm += iw;
    }

    let speedup = cold.mean_ns / warm.mean_ns;
    println!(
        "\nPercentile tuning with the EM label model (cross-round step, {n_lfs} LFs, {} grid points):",
        p_grid.len()
    );
    println!(
        "  cold plain fits        : {} per tune_p  ({iters_cold} EM iterations)",
        human(cold.mean_ns)
    );
    println!(
        "  warm accelerated fits  : {} per tune_p  ({iters_warm} EM iterations)",
        human(warm.mean_ns)
    );
    println!("  speedup                : {speedup:.2}x");

    let json = format!(
        concat!(
            "{{\"lfs\": {}, \"grid_points\": {}, \"cold_ns\": {:.0}, \"warm_ns\": {:.0}, ",
            "\"speedup\": {:.4}, \"em_iters_cold\": {}, \"em_iters_warm\": {}}}"
        ),
        n_lfs,
        p_grid.len(),
        cold.mean_ns,
        warm.mean_ns,
        speedup,
        iters_cold,
        iters_warm,
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            speedup >= 2.0,
            "regression: warm tuning round ({}) not ≥2x faster than the reference round ({})",
            human(warm.mean_ns),
            human(cold.mean_ns)
        );
    }
    let (cold_mean, warm_mean) = (cold.mean_ns, warm.mean_ns);
    results.push(cold);
    results.push(warm);
    (json, cold_mean, warm_mean)
}

/// Run `f` with `NEMO_THREADS` pinned to `t`, restoring the prior setting
/// afterwards. The bench driver is single-threaded at every call site, so
/// the mutation is race-free; the sharded kernels are bit-identical under
/// any worker count (asserted below), so the setting only moves timings.
fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var("NEMO_THREADS").ok();
    std::env::set_var("NEMO_THREADS", t.to_string());
    let r = f();
    match saved {
        Some(v) => std::env::set_var("NEMO_THREADS", v),
        None => std::env::remove_var("NEMO_THREADS"),
    }
    r
}

/// Worker threads the host can actually run concurrently. The sharded
/// speedup gates only apply when this is ≥ 2 (CI runners); on a single
/// hardware thread the same legs are measured and gated at parity with a
/// spawn-overhead margin instead.
fn effective_cores() -> usize {
    std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
}

/// Deterministic synthetic dense pool: `rows × dims`, values in ±4.
fn synthetic_dense(rows: usize, dims: usize, seed: u64) -> DenseMatrix {
    let mut rng = DetRng::new(seed);
    let mut m = DenseMatrix::zeros(rows, dims);
    for r in 0..rows {
        for v in m.row_mut(r) {
            *v = (rng.uniform() * 8.0 - 4.0) as f32;
        }
    }
    m
}

/// Deterministic synthetic sparse pool: `rows` rows over `dims` columns,
/// ~`nnz` nonzeros each — the TF-IDF-like regime of the indexed kernel.
fn synthetic_sparse(rows: usize, dims: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = DetRng::new(seed);
    let svs: Vec<SparseVec> = (0..rows)
        .map(|_| {
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|_| (rng.index(dims) as u32, (rng.uniform() * 2.0 + 0.1) as f32))
                .collect();
            SparseVec::from_pairs(pairs, dims)
        })
        .collect();
    CsrMatrix::from_rows(&svs, dims)
}

/// Blocked vs scalar dense point-to-all on a pool wide enough for the
/// lane kernels to matter. The two backends agree within 1e-9 (checked
/// before timing); with `NEMO_BENCH_ENFORCE` set, blocked must be ≥2×
/// the scalar reduction.
fn dense_blocked_bench(results: &mut Vec<BenchResult>) -> String {
    // Cache-resident pool (~0.8 MB): the blocked kernel's lane-level
    // parallelism is the bottleneck being measured, not DRAM bandwidth
    // (the sharded section below covers the streaming regime).
    let (rows, dims) = (2_048usize, 96usize);
    let m = synthetic_dense(rows, dims, 41);
    let norms = m.row_sq_norms();
    let mut out = Vec::new();

    // Agreement check across every pivot used by the timing loops.
    let mut check = Vec::new();
    for p in [0usize, rows / 2, rows - 1] {
        Distance::Cosine.dense_row_to_all_naive_into(m.row(p), norms[p], &m, &norms, &mut out);
        Distance::Cosine.dense_row_to_all_into(m.row(p), norms[p], &m, &norms, &mut check);
        for (r, (&a, &b)) in out.iter().zip(&check).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "dense backends diverged at pivot {p} row {r}: scalar {a} blocked {b}"
            );
        }
    }

    let mut pivot = 0usize;
    let scalar = bench("dense_point_to_all_scalar", || {
        pivot = (pivot + 1) % rows;
        Distance::Cosine.dense_row_to_all_naive_into(
            m.row(pivot),
            norms[pivot],
            &m,
            &norms,
            &mut out,
        );
        out[pivot]
    });
    let blocked = bench("dense_point_to_all_blocked", || {
        pivot = (pivot + 1) % rows;
        Distance::Cosine.dense_row_to_all_into(m.row(pivot), norms[pivot], &m, &norms, &mut out);
        out[pivot]
    });

    let speedup = scalar.mean_ns / blocked.mean_ns;
    println!("\nBlocked dense distance kernel ({rows}×{dims} pool, cosine point-to-all):");
    println!("  scalar reduction       : {} per query", human(scalar.mean_ns));
    println!(
        "  blocked ({} lanes)      : {} per query",
        nemo_sparse::dense::DOT_LANES,
        human(blocked.mean_ns)
    );
    println!("  speedup                : {speedup:.2}x");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Gate on min (steady-state) times: single-core runners schedule
        // noisily and the means wander; the mins are stable.
        assert!(
            blocked.min_ns * 2.0 <= scalar.min_ns,
            "regression: blocked dense kernel ({}) not ≥2x faster than scalar ({})",
            human(blocked.min_ns),
            human(scalar.min_ns)
        );
    }
    let json = format!(
        concat!(
            "{{\"rows\": {}, \"dims\": {}, \"scalar_ns\": {:.0}, \"blocked_ns\": {:.0}, ",
            "\"speedup\": {:.4}}}"
        ),
        rows, dims, scalar.mean_ns, blocked.mean_ns, speedup,
    );
    results.push(scalar);
    results.push(blocked);
    json
}

/// Row-block sharded dense point-to-all: the unsharded blocked kernel vs
/// the sharded kernel under `NEMO_THREADS` 1 and 4. All legs are asserted
/// bitwise-identical (the fixed shard grid never depends on the worker
/// count); with `NEMO_BENCH_ENFORCE` set, the 4-worker leg must be ≥1.5×
/// the unsharded kernel when ≥2 cores exist, else at parity with a
/// spawn-overhead margin.
fn dense_sharded_bench(results: &mut Vec<BenchResult>) -> String {
    let (rows, dims) = (20_000usize, 96usize);
    assert!(rows >= MIN_SHARDED_ROWS, "pool must engage the shard grid");
    let m = synthetic_dense(rows, dims, 43);
    let norms = m.row_sq_norms();

    // Bitwise identity: serial vs sharded under 1 and 4 workers.
    let mut serial = Vec::new();
    let mut sharded = Vec::new();
    for p in [0usize, rows / 2, rows - 1] {
        Distance::Cosine.dense_row_to_all_into(m.row(p), norms[p], &m, &norms, &mut serial);
        for t in [1usize, 4] {
            with_threads(t, || {
                Distance::Cosine.dense_row_to_all_sharded_into(
                    m.row(p),
                    norms[p],
                    &m,
                    &norms,
                    &mut sharded,
                )
            });
            for (r, (&a, &b)) in serial.iter().zip(&sharded).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dense sharded kernel diverged at NEMO_THREADS={t} pivot {p} row {r}"
                );
            }
        }
    }

    let mut out = Vec::new();
    let mut pivot = 0usize;
    let unsharded = bench("dense_point_to_all_unsharded", || {
        pivot = (pivot + 1) % rows;
        Distance::Cosine.dense_row_to_all_into(m.row(pivot), norms[pivot], &m, &norms, &mut out);
        out[pivot]
    });
    let sharded_t1 = with_threads(1, || {
        bench("dense_point_to_all_sharded_t1", || {
            pivot = (pivot + 1) % rows;
            Distance::Cosine.dense_row_to_all_sharded_into(
                m.row(pivot),
                norms[pivot],
                &m,
                &norms,
                &mut out,
            );
            out[pivot]
        })
    });
    let sharded_t4 = with_threads(4, || {
        bench("dense_point_to_all_sharded_t4", || {
            pivot = (pivot + 1) % rows;
            Distance::Cosine.dense_row_to_all_sharded_into(
                m.row(pivot),
                norms[pivot],
                &m,
                &norms,
                &mut out,
            );
            out[pivot]
        })
    });

    let cores = effective_cores();
    let speedup = unsharded.mean_ns / sharded_t4.mean_ns;
    println!("\nSharded dense point-to-all ({rows}×{dims} pool, {cores} effective cores):");
    println!("  unsharded blocked      : {} per query", human(unsharded.mean_ns));
    println!("  sharded NEMO_THREADS=1 : {} per query", human(sharded_t1.mean_ns));
    println!("  sharded NEMO_THREADS=4 : {} per query  ({speedup:.2}x)", human(sharded_t4.mean_ns));
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Gates use min (steady-state) times — single-core runners
        // schedule multi-worker legs noisily and the means wander.
        if cores >= 2 {
            assert!(
                sharded_t4.min_ns * 1.5 <= unsharded.min_ns,
                "regression: sharded dense kernel ({}) not ≥1.5x unsharded ({}) on {cores} cores",
                human(sharded_t4.min_ns),
                human(unsharded.min_ns)
            );
        } else {
            // One hardware thread: extra workers can only add spawn
            // overhead, so the t4 leg is recorded but not gated; the
            // single-worker leg must stay at parity with the serial
            // kernel (it is the same code path).
            assert!(
                sharded_t1.min_ns <= unsharded.min_ns * 1.15,
                "regression: single-worker sharded dense kernel ({}) not at parity with \
                 unsharded ({})",
                human(sharded_t1.min_ns),
                human(unsharded.min_ns)
            );
        }
    }
    let json = format!(
        concat!(
            "{{\"rows\": {}, \"dims\": {}, \"effective_cores\": {}, \"unsharded_ns\": {:.0}, ",
            "\"sharded_t1_ns\": {:.0}, \"sharded_t4_ns\": {:.0}, \"speedup_t4\": {:.4}, ",
            "\"bitwise_identical\": true}}"
        ),
        rows, dims, cores, unsharded.mean_ns, sharded_t1.mean_ns, sharded_t4.mean_ns, speedup,
    );
    results.push(unsharded);
    results.push(sharded_t1);
    results.push(sharded_t4);
    json
}

/// Posting-range sharded single-pivot indexed queries on a pool far past
/// `MIN_SHARDED_ROWS`. Same gate structure as the dense sharded section:
/// bitwise identity across `NEMO_THREADS ∈ {1, 4}` always; ≥1.5× over the
/// unsharded indexed kernel when ≥2 cores exist, parity-with-margin on a
/// single core.
fn indexed_sharded_bench(results: &mut Vec<BenchResult>) -> String {
    let (rows, dims, nnz) = (120_000usize, 800usize, 10usize);
    let m = synthetic_sparse(rows, dims, nnz, 47);
    let norms = m.row_sq_norms();
    let index = CscIndex::from_csr(&m);
    let mut scratch = DistanceScratch::new();

    // Bitwise identity: serial vs sharded under 1 and 4 workers.
    let mut serial = Vec::new();
    let mut sharded = Vec::new();
    for p in [0usize, rows / 2, rows - 1] {
        Distance::Cosine.sparse_row_to_all_indexed_into(
            &m.row(p),
            norms[p],
            &index,
            &norms,
            &mut scratch,
            &mut serial,
        );
        for t in [1usize, 4] {
            with_threads(t, || {
                Distance::Cosine.sparse_row_to_all_indexed_sharded_into(
                    &m.row(p),
                    norms[p],
                    &index,
                    &norms,
                    &mut scratch,
                    &mut sharded,
                )
            });
            for (r, (&a, &b)) in serial.iter().zip(&sharded).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "sharded indexed kernel diverged at NEMO_THREADS={t} pivot {p} row {r}"
                );
            }
        }
    }

    let mut out = Vec::new();
    let mut pivot = 0usize;
    let unsharded = bench("indexed_point_to_all_unsharded", || {
        pivot = (pivot + 1) % rows;
        Distance::Cosine.sparse_row_to_all_indexed_into(
            &m.row(pivot),
            norms[pivot],
            &index,
            &norms,
            &mut scratch,
            &mut out,
        );
        out[pivot]
    });
    let sharded_t1 = with_threads(1, || {
        bench("indexed_point_to_all_sharded_t1", || {
            pivot = (pivot + 1) % rows;
            Distance::Cosine.sparse_row_to_all_indexed_sharded_into(
                &m.row(pivot),
                norms[pivot],
                &index,
                &norms,
                &mut scratch,
                &mut out,
            );
            out[pivot]
        })
    });
    let sharded_t4 = with_threads(4, || {
        bench("indexed_point_to_all_sharded_t4", || {
            pivot = (pivot + 1) % rows;
            Distance::Cosine.sparse_row_to_all_indexed_sharded_into(
                &m.row(pivot),
                norms[pivot],
                &index,
                &norms,
                &mut scratch,
                &mut out,
            );
            out[pivot]
        })
    });

    let cores = effective_cores();
    let speedup = unsharded.mean_ns / sharded_t4.mean_ns;
    println!(
        "\nSharded single-pivot indexed queries ({rows} rows, ~{nnz} nnz/row, {cores} effective cores):"
    );
    println!("  unsharded indexed      : {} per query", human(unsharded.mean_ns));
    println!("  sharded NEMO_THREADS=1 : {} per query", human(sharded_t1.mean_ns));
    println!("  sharded NEMO_THREADS=4 : {} per query  ({speedup:.2}x)", human(sharded_t4.mean_ns));
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Same gate structure (and min-time rationale) as the dense
        // sharded section above.
        if cores >= 2 {
            assert!(
                sharded_t4.min_ns * 1.5 <= unsharded.min_ns,
                "regression: sharded indexed kernel ({}) not ≥1.5x unsharded ({}) on {cores} cores",
                human(sharded_t4.min_ns),
                human(unsharded.min_ns)
            );
        } else {
            assert!(
                sharded_t1.min_ns <= unsharded.min_ns * 1.15,
                "regression: single-worker sharded indexed kernel ({}) not at parity with \
                 unsharded ({})",
                human(sharded_t1.min_ns),
                human(unsharded.min_ns)
            );
        }
    }
    let json = format!(
        concat!(
            "{{\"rows\": {}, \"dims\": {}, \"nnz_per_row\": {}, \"effective_cores\": {}, ",
            "\"unsharded_ns\": {:.0}, \"sharded_t1_ns\": {:.0}, \"sharded_t4_ns\": {:.0}, ",
            "\"speedup_t4\": {:.4}, \"bitwise_identical\": true}}"
        ),
        rows, dims, nnz, cores, unsharded.mean_ns, sharded_t1.mean_ns, sharded_t4.mean_ns, speedup,
    );
    results.push(unsharded);
    results.push(sharded_t1);
    results.push(sharded_t4);
    json
}

/// Dataset artifact store: cold catalog rebuild (tokenize, featurize,
/// index, norm — everything `catalog::build` does) vs reloading the same
/// immutable artifact set from a checkpoint file written once by
/// `nemo-persist`. The loaded bundle is asserted byte-identical to the
/// saved one before timing; with `NEMO_BENCH_ENFORCE` set, the checkpoint
/// load must be ≥5× faster than the cold build — the number that makes
/// disconnect/resume sessions feel instant.
fn artifact_load_bench(profile: Profile, results: &mut Vec<BenchResult>) -> String {
    let cold = bench("artifact_cold_build", || build(DatasetName::Amazon, profile, 3).train.n());

    let bundle = ArtifactBundle {
        dataset: build(DatasetName::Amazon, profile, 3),
        vocab: None,
        tfidf: None,
    };
    let dir = std::env::temp_dir().join(format!("nemo-bench-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact scratch dir");
    let path = dir.join("amazon.nemo");
    save_artifact(&path, &bundle).expect("save dataset artifact");
    let file_bytes = std::fs::metadata(&path).expect("stat artifact file").len();

    // The reloaded bundle must be bit-identical to what was saved (the
    // canonical-form fixed point `persist_roundtrip.rs` proves in general).
    let reloaded = load_artifact(&path).expect("load dataset artifact");
    assert_eq!(
        artifact_to_bytes(&reloaded),
        artifact_to_bytes(&bundle),
        "artifact load not bit-identical to the saved bundle"
    );

    let load = bench("artifact_checkpoint_load", || {
        load_artifact(&path).expect("load artifact").dataset.train.n()
    });
    std::fs::remove_dir_all(&dir).ok();

    let speedup = cold.mean_ns / load.mean_ns;
    println!(
        "\nDataset artifact store ({} {}, {:.1} KiB on disk):",
        bundle.dataset.name,
        profile.name(),
        file_bytes as f64 / 1024.0
    );
    println!("  cold catalog build     : {} per build", human(cold.mean_ns));
    println!("  checkpoint load        : {} per load", human(load.mean_ns));
    println!("  speedup                : {speedup:.2}x");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Gate on min (steady-state) times like the other sections.
        assert!(
            load.min_ns * 5.0 <= cold.min_ns,
            "regression: artifact checkpoint load ({}) not ≥5x faster than cold build ({})",
            human(load.min_ns),
            human(cold.min_ns)
        );
    }
    let json = format!(
        concat!(
            "{{\"dataset\": \"{}\", \"file_bytes\": {}, \"cold_build_ns\": {:.0}, ",
            "\"checkpoint_load_ns\": {:.0}, \"speedup\": {:.4}, \"bit_identical\": true}}"
        ),
        bundle.dataset.name, file_bytes, cold.mean_ns, load.mean_ns, speedup,
    );
    results.push(cold);
    results.push(load);
    json
}

/// Per-level measurements of the session-pool throughput sweep.
struct PoolLevel {
    sessions: usize,
    reps: usize,
    latencies: Vec<u64>,
    total_secs: f64,
    evictions: u64,
    restores: u64,
}

/// Value at quantile `q` of an ascending-sorted sample (nearest rank).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Multi-tenant `SessionPool` throughput: K concurrent sessions over one
/// shared `SharedArtifacts` set, three interleaved batched rounds each, at
/// K ∈ {1, 8, 64, 256}. The pool caps residency at 64 sessions over an
/// in-memory *encoded* checkpoint store, so the 256-session level pays the
/// real persist-container serialization cost on every eviction/restore
/// cycle. Sessions/sec and p50/p99 round latencies are recorded per level.
///
/// Correctness is asserted unconditionally: the first eight sessions of
/// every level (including the eviction-churned 256-session level) must
/// retrace a standalone `NemoSystem` run bit-for-bit — same selections,
/// same posterior bits. With `NEMO_BENCH_ENFORCE`, pool scheduling
/// overhead for a single session must stay within 1.5x of driving a bare
/// `NemoSystem` directly (min-over-min, like the other gates).
fn session_pool_bench(ds: &Dataset, results: &mut Vec<BenchResult>) -> String {
    const ROUNDS: usize = 3;
    const MAX_RESIDENT: usize = 64;
    let seed_of = |rep: usize, j: usize| 40_000 + (rep * 1_000 + j) as u64;
    let session_cfg = |seed: u64| IdpConfig {
        n_iterations: ROUNDS,
        eval_every: ROUNDS,
        seed,
        ..IdpConfig::default()
    };
    let arts = SharedArtifacts::new(ds.clone());

    // Direct baseline: the same rounds driven on bare `NemoSystem`s.
    let mut direct_lat: Vec<u64> = Vec::new();
    for rep in 0..8 {
        let mut nemo = NemoSystem::new(arts.dataset(), session_cfg(seed_of(rep, 0)));
        let mut user = SimulatedUser::default();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            nemo.step_with_user(&mut user).expect("direct round");
            direct_lat.push(t.elapsed().as_nanos() as u64);
        }
    }

    let mut levels: Vec<PoolLevel> = Vec::new();
    for &(k, reps) in &[(1usize, 8usize), (8, 3), (64, 1), (256, 1)] {
        let mut lv = PoolLevel {
            sessions: k,
            reps,
            latencies: Vec::new(),
            total_secs: 0.0,
            evictions: 0,
            restores: 0,
        };
        for rep in 0..reps {
            let config = PoolConfig { max_resident: MAX_RESIDENT, ..PoolConfig::default() };
            let mut pool =
                SessionPool::with_store(&arts, config, Box::new(EncodedCheckpointStore::new()));
            let ids: Vec<_> = (0..k)
                .map(|j| pool.admit(session_cfg(seed_of(rep, j))).expect("admit session"))
                .collect();
            let mut users: Vec<SimulatedUser> = (0..k).map(|_| SimulatedUser::default()).collect();
            let mut selections: Vec<Vec<Option<usize>>> = vec![Vec::new(); k];
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                let mut jobs: Vec<RoundJob<'_>> =
                    ids.iter().zip(users.iter_mut()).map(|(&id, u)| RoundJob::new(id, u)).collect();
                let outcomes = pool.run_rounds(&mut jobs).expect("pooled rounds");
                for (j, o) in outcomes.iter().enumerate() {
                    selections[j].push(o.record.selected);
                    lv.latencies.push(o.round_ns);
                }
            }
            lv.total_secs += t0.elapsed().as_secs_f64();
            lv.evictions += pool.stats().evictions;
            lv.restores += pool.stats().restores;

            if rep == 0 {
                for (j, &id) in ids.iter().enumerate().take(8) {
                    let mut nemo = NemoSystem::new(arts.dataset(), session_cfg(seed_of(rep, j)));
                    let mut user = SimulatedUser::default();
                    let solo: Vec<Option<usize>> = (0..ROUNDS)
                        .map(|_| nemo.step_with_user(&mut user).expect("solo round").selected)
                        .collect();
                    assert_eq!(
                        selections[j], solo,
                        "pooled session {id} diverged from standalone (selections, k={k})"
                    );
                    let pooled_bits = pool
                        .with_session(id, |n| {
                            n.outputs()
                                .train_posterior
                                .p_pos_slice()
                                .iter()
                                .map(|p| p.to_bits())
                                .collect::<Vec<u64>>()
                        })
                        .expect("inspect pooled session");
                    let solo_bits: Vec<u64> = nemo
                        .outputs()
                        .train_posterior
                        .p_pos_slice()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    assert_eq!(
                        pooled_bits, solo_bits,
                        "pooled session {id} diverged from standalone (posterior bits, k={k})"
                    );
                }
            }
        }
        lv.latencies.sort_unstable();
        levels.push(lv);
    }

    let direct_mean = direct_lat.iter().sum::<u64>() as f64 / direct_lat.len() as f64;
    let direct_min = *direct_lat.iter().min().expect("direct samples") as f64;
    let pool1_mean =
        levels[0].latencies.iter().sum::<u64>() as f64 / levels[0].latencies.len() as f64;
    let pool1_min = levels[0].latencies[0] as f64;
    let overhead = pool1_min / direct_min;
    let workers = nemo_sparse::parallel::num_threads();
    println!(
        "\nSession pool ({} train={}, {ROUNDS} rounds/session, max_resident {MAX_RESIDENT}, \
         {workers} worker(s)):",
        ds.name,
        ds.train.n()
    );
    for lv in &levels {
        println!(
            "  {:>4} sessions x{}: {:>8.1} sessions/s  {:>8.1} rounds/s  p50 {:>10}  p99 {:>10}  \
             evict {:>4}  restore {:>4}",
            lv.sessions,
            lv.reps,
            (lv.sessions * lv.reps) as f64 / lv.total_secs,
            lv.latencies.len() as f64 / lv.total_secs,
            human(percentile_ns(&lv.latencies, 0.50) as f64),
            human(percentile_ns(&lv.latencies, 0.99) as f64),
            lv.evictions,
            lv.restores,
        );
    }
    println!(
        "  single-session pool overhead: {overhead:.2}x vs bare NemoSystem ({} vs {})",
        human(pool1_min),
        human(direct_min)
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            pool1_min <= direct_min * 1.5,
            "regression: pooled single-session round ({}) exceeds 1.5x a bare NemoSystem \
             round ({})",
            human(pool1_min),
            human(direct_min)
        );
    }

    let mut levels_json = String::from("[");
    for (i, lv) in levels.iter().enumerate() {
        levels_json.push_str(&format!(
            concat!(
                "{}{{\"sessions\": {}, \"reps\": {}, \"sessions_per_sec\": {:.2}, ",
                "\"rounds_per_sec\": {:.2}, \"p50_round_ns\": {}, \"p99_round_ns\": {}, ",
                "\"evictions\": {}, \"restores\": {}}}"
            ),
            if i == 0 { "" } else { ", " },
            lv.sessions,
            lv.reps,
            (lv.sessions * lv.reps) as f64 / lv.total_secs,
            lv.latencies.len() as f64 / lv.total_secs,
            percentile_ns(&lv.latencies, 0.50),
            percentile_ns(&lv.latencies, 0.99),
            lv.evictions,
            lv.restores,
        ));
    }
    levels_json.push(']');
    let json = format!(
        concat!(
            "{{\"rounds_per_session\": {}, \"max_resident\": {}, \"workers\": {}, ",
            "\"effective_cores\": {}, \"direct_round_ns\": {:.0}, \"pool_round_ns\": {:.0}, ",
            "\"pool_overhead\": {:.4}, \"bit_identical\": true, \"levels\": {}}}"
        ),
        ROUNDS,
        MAX_RESIDENT,
        workers,
        effective_cores(),
        direct_mean,
        pool1_mean,
        overhead,
        levels_json,
    );
    results.push(BenchResult {
        name: "session_round_direct",
        iters: direct_lat.len() as u32,
        mean_ns: direct_mean,
        min_ns: direct_min,
    });
    results.push(BenchResult {
        name: "session_round_pooled_k1",
        iters: levels[0].latencies.len() as u32,
        mean_ns: pool1_mean,
        min_ns: pool1_min,
    });
    json
}

/// IWS candidate-ranking engine vs the reference SEU engine: end-model
/// test accuracy per oracle query, same dataset, same seed, same
/// simulated user, one query per round. Both engines run through the
/// unified `SelectionEngine` API on bare `NemoSystem`s; the IWS run is
/// additionally checkpointed mid-stream and resumed, and the resumed
/// final score is asserted bit-identical (the determinism the engine
/// state section exists for).
///
/// At this query budget the paper's ordering holds: IWS's learned
/// candidate ranker sits near the IWS-LSE baseline (~0.47–0.55 on the
/// quick profile — it needs hundreds of answers before its usefulness
/// model ranks well), while SEU's user-model-guided development reaches
/// ~0.63 (Table 2's gap). With `NEMO_BENCH_ENFORCE` set, the gate pins
/// exactly that: SEU clears an absolute floor, SEU's score-per-query
/// stays ahead of IWS's, and the IWS loop is non-degenerate (both accept
/// and reject feedback occurred) — every quantity here is deterministic,
/// so the gate cannot flake on timing noise.
fn iws_rank_bench(ds: &Dataset, results: &mut Vec<BenchResult>) -> String {
    const ROUNDS: usize = 25;
    const SEED: u64 = 17;
    let cfg = |selection| IdpConfig {
        selection,
        n_iterations: ROUNDS,
        eval_every: 5,
        seed: SEED,
        ..IdpConfig::default()
    };

    let run = |selection| {
        let mut nemo = NemoSystem::new(ds, cfg(selection));
        let mut user = SimulatedUser::default();
        let mut round_ns: Vec<u64> = Vec::new();
        let mut curve = nemo_core::idp::LearningCurve::default();
        let mut accepts = 0usize;
        for t in 0..ROUNDS {
            let before = nemo.lineage().len();
            let clock = Instant::now();
            nemo.step_with_user(&mut user).expect("bench round");
            round_ns.push(clock.elapsed().as_nanos() as u64);
            accepts += usize::from(nemo.lineage().len() > before);
            if (t + 1) % 5 == 0 {
                curve.push(t + 1, nemo.test_score());
            }
        }
        (nemo.test_score(), curve, round_ns, accepts)
    };
    use nemo_core::config::SelectionStrategy;
    let (seu_final, seu_curve, seu_ns, _) = run(SelectionStrategy::Seu);
    let (iws_final, iws_curve, iws_ns, iws_accepts) = run(SelectionStrategy::Iws);

    // Mid-stream checkpoint/restore of the IWS run must land on the same
    // bits as the uninterrupted run — asserted unconditionally, like the
    // other sections' correctness checks.
    let resumed_final = {
        let mut nemo = NemoSystem::new(ds, cfg(SelectionStrategy::Iws));
        let mut user = SimulatedUser::default();
        for _ in 0..ROUNDS / 2 {
            nemo.step_with_user(&mut user).expect("pre-checkpoint round");
        }
        let ckpt = nemo.checkpoint();
        let mut resumed = NemoSystem::restore(ds, &ckpt).expect("restore IWS engine");
        let mut fresh = SimulatedUser::default();
        for _ in ROUNDS / 2..ROUNDS {
            resumed.step_with_user(&mut fresh).expect("post-restore round");
        }
        resumed.test_score()
    };
    assert_eq!(
        iws_final.to_bits(),
        resumed_final.to_bits(),
        "restored IWS run diverged from the uninterrupted run"
    );

    let mean_ns = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len() as f64;
    let min_ns = |ns: &[u64]| ns.iter().copied().min().expect("rounds ran") as f64;
    let (seu_mean, iws_mean) = (mean_ns(&seu_ns), mean_ns(&iws_ns));
    // Each round costs exactly one oracle query in both engines, so
    // score-per-query is the final score over the query budget.
    let seu_per_query = seu_final / ROUNDS as f64;
    let iws_per_query = iws_final / ROUNDS as f64;

    println!(
        "\nIWS candidate ranking vs SEU ({} {}, {ROUNDS} oracle queries):",
        ds.name,
        ds.train.n()
    );
    println!(
        "  SEU final test score   : {seu_final:.4}  ({seu_per_query:.5}/query, {} per round)",
        human(seu_mean)
    );
    println!(
        "  IWS final test score   : {iws_final:.4}  ({iws_per_query:.5}/query, {} per round, \
         {iws_accepts}/{ROUNDS} accepts)",
        human(iws_mean)
    );
    println!("  mid-stream restore     : bit-identical final score");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Deterministic gates (see the fn docs): the committed
        // quick-profile numbers are SEU 0.6278 vs IWS ~0.47 at this
        // budget — the paper's ordering.
        assert!(
            seu_final >= 0.55,
            "regression: SEU reference run scored {seu_final:.4} (< 0.55 floor)"
        );
        assert!(
            seu_per_query >= iws_per_query,
            "regression: IWS score-per-query ({iws_per_query:.5}) overtook SEU \
             ({seu_per_query:.5}) — the Table 2 ordering inverted; recheck both engines"
        );
        assert!(
            iws_accepts > 0 && iws_accepts < ROUNDS,
            "regression: degenerate IWS loop ({iws_accepts}/{ROUNDS} accepts) — the user \
             model never saw both feedback kinds"
        );
    }

    let curve_json = |curve: &nemo_core::idp::LearningCurve| {
        let pts: Vec<String> =
            curve.points().iter().map(|&(i, s)| format!("[{i}, {s:.6}]")).collect();
        format!("[{}]", pts.join(", "))
    };
    let json = format!(
        concat!(
            "{{\"rounds\": {}, \"seu_final\": {:.6}, \"iws_final\": {:.6}, ",
            "\"seu_per_query\": {:.6}, \"iws_per_query\": {:.6}, ",
            "\"iws_accepts\": {}, \"seu_round_ns\": {:.0}, \"iws_round_ns\": {:.0}, ",
            "\"restore_bit_identical\": true, ",
            "\"seu_curve\": {}, \"iws_curve\": {}}}"
        ),
        ROUNDS,
        seu_final,
        iws_final,
        seu_per_query,
        iws_per_query,
        iws_accepts,
        seu_mean,
        iws_mean,
        curve_json(&seu_curve),
        curve_json(&iws_curve),
    );
    results.push(BenchResult {
        name: "seu_engine_round",
        iters: seu_ns.len() as u32,
        mean_ns: seu_mean,
        min_ns: min_ns(&seu_ns),
    });
    results.push(BenchResult {
        name: "iws_engine_round",
        iters: iws_ns.len() as u32,
        mean_ns: iws_mean,
        min_ns: min_ns(&iws_ns),
    });
    json
}

/// Mean time of a named kernel result (panics if the kernel wasn't run).
fn mean_of(results: &[BenchResult], name: &str) -> f64 {
    results.iter().find(|r| r.name == name).map(|r| r.mean_ns).expect("kernel benched")
}

/// Summarize the sparse-distance engine: indexed vs naive point-to-all and
/// batched vs per-LF contextualizer registration. Returns the JSON
/// fragment; with `NEMO_BENCH_ENFORCE` set, a slower indexed/batched path
/// aborts the run (the CI regression guard).
fn distance_engine_summary(results: &[BenchResult]) -> String {
    let naive = mean_of(results, "distance_point_to_all_cosine");
    let indexed = mean_of(results, "distance_point_to_all_indexed");
    let per_lf = mean_of(results, "contextualizer_register_per_lf");
    let batch = mean_of(results, "contextualizer_register_batch");
    let kernel_speedup = naive / indexed;
    let register_speedup = per_lf / batch;
    println!("\nSparse distance engine (inverted-index kernel vs naive row-major scan):");
    println!(
        "  point-to-all  naive {} → indexed {}  ({kernel_speedup:.2}x)",
        human(naive),
        human(indexed)
    );
    println!(
        "  register 32 LFs  per-LF {} → batched {}  ({register_speedup:.2}x)",
        human(per_lf),
        human(batch)
    );
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        assert!(
            indexed <= naive,
            "regression: indexed point-to-all ({}) slower than naive ({})",
            human(indexed),
            human(naive)
        );
        assert!(
            batch <= per_lf,
            "regression: batched registration ({}) slower than per-LF ({})",
            human(batch),
            human(per_lf)
        );
    }
    format!(
        concat!(
            "{{\"naive_point_to_all_ns\": {:.0}, \"indexed_point_to_all_ns\": {:.0}, ",
            "\"indexed_speedup\": {:.4}, \"register_per_lf_ns\": {:.0}, ",
            "\"register_batch_ns\": {:.0}, \"register_speedup\": {:.4}}}"
        ),
        naive, indexed, kernel_speedup, per_lf, batch, register_speedup,
    )
}

/// Combined contextualized-round headline: what one EM-tuned round cost
/// before the two incremental paths (stand-alone SEU kernel — the
/// `seu_fast_path_full_pool` baseline ROADMAP names — plus cold tune_p)
/// vs after (the production SEU round — delta-synced aggregates plus the
/// table rescore, from the `seu_loop` incremental replay — plus
/// warm-started tune_p). With `NEMO_BENCH_ENFORCE` set, a combined round
/// slower than the pre-optimization baseline aborts the run.
fn incremental_round_summary(
    results: &[BenchResult],
    seu_round_ns: f64,
    tune_cold_ns: f64,
    tune_warm_ns: f64,
) -> String {
    let seu_standalone_ns = mean_of(results, "seu_fast_path_full_pool");
    let combined_cold = seu_standalone_ns + tune_cold_ns;
    let combined_warm = seu_round_ns + tune_warm_ns;
    let combined_speedup = combined_cold / combined_warm;
    println!("\nCombined contextualized round (SEU scoring + EM percentile tuning):");
    println!(
        "  before : {} (stand-alone SEU {} + cold tune_p {})",
        human(combined_cold),
        human(seu_standalone_ns),
        human(tune_cold_ns)
    );
    println!(
        "  after  : {} (incremental SEU {} + warm tune_p {})",
        human(combined_warm),
        human(seu_round_ns),
        human(tune_warm_ns)
    );
    println!("  speedup: {combined_speedup:.2}x");
    if std::env::var("NEMO_BENCH_ENFORCE").is_ok() {
        // Committed numbers show ~3x; gate only the sign so single-core
        // CI noise cannot flake the build.
        assert!(
            combined_speedup >= 1.0,
            "regression: incremental contextualized round ({}) slower than the \
             cold-path baseline ({})",
            human(combined_warm),
            human(combined_cold)
        );
    }
    format!(
        concat!(
            "{{\"standalone_seu_ns\": {:.0}, \"table_rescore_seu_ns\": {:.0}, ",
            "\"cold_tune_ns\": {:.0}, \"warm_tune_ns\": {:.0}, ",
            "\"combined_speedup\": {:.4}}}"
        ),
        seu_standalone_ns, seu_round_ns, tune_cold_ns, tune_warm_ns, combined_speedup,
    )
}

fn main() {
    let profile = Profile::from_env();
    let ds = build(DatasetName::Amazon, profile, 3);
    println!(
        "Kernel microbenchmarks (profile: {}, dataset: {} train={} |Z|={})",
        profile.name(),
        ds.name,
        ds.train.n(),
        ds.n_primitives
    );

    let mut results = Vec::new();
    kernel_benches(&ds, &mut results);
    println!("\n{:<36} {:>8} {:>12} {:>12}", "kernel", "iters", "mean", "min");
    for r in &results {
        println!("{:<36} {:>8} {:>12} {:>12}", r.name, r.iters, human(r.mean_ns), human(r.min_ns));
    }

    let (trajectory, session_lineage) = record_trajectory(&ds);
    let engine_json = distance_engine_summary(&results);
    let dense_blocked_json = dense_blocked_bench(&mut results);
    let dense_sharded_json = dense_sharded_bench(&mut results);
    let indexed_sharded_json = indexed_sharded_bench(&mut results);
    let artifact_json = artifact_load_bench(profile, &mut results);
    let pool_json = session_pool_bench(&ds, &mut results);
    let iws_rank_json = iws_rank_bench(&ds, &mut results);
    let (loop_json, seu_round_ns) = seu_loop_bench(&ds, &trajectory);
    let (warm_json, tune_cold_ns, tune_warm_ns) =
        tune_p_warm_bench(&ds, &session_lineage, &mut results);

    let round_json = incremental_round_summary(&results, seu_round_ns, tune_cold_ns, tune_warm_ns);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"profile\": \"{}\",\n", profile.name()));
    json.push_str(&format!("  \"dataset\": \"{}\",\n", ds.name));
    json.push_str(&format!("  \"train_n\": {},\n", ds.train.n()));
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}}}{}\n",
            r.name,
            r.iters,
            r.mean_ns,
            r.min_ns,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"distance_engine\": {engine_json},\n"));
    json.push_str(&format!("  \"dense_blocked\": {dense_blocked_json},\n"));
    json.push_str(&format!("  \"dense_sharded\": {dense_sharded_json},\n"));
    json.push_str(&format!("  \"indexed_sharded\": {indexed_sharded_json},\n"));
    json.push_str(&format!("  \"artifact_load\": {artifact_json},\n"));
    json.push_str(&format!("  \"session_pool\": {pool_json},\n"));
    json.push_str(&format!("  \"iws_rank\": {iws_rank_json},\n"));
    json.push_str(&format!("  \"seu_loop\": {loop_json},\n"));
    json.push_str(&format!("  \"tune_p_warm\": {warm_json},\n"));
    json.push_str(&format!("  \"incremental_round\": {round_json}\n"));
    json.push_str("}\n");

    // Anchor to the workspace root (cargo bench sets CWD to the package).
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_kernel.json");
    std::fs::write(&out, &json).expect("write BENCH_kernel.json");
    println!("\nwrote {}", out.display());
}
