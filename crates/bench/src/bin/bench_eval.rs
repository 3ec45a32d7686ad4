//! Evaluation-kernel benchmark: scalar vs. tape vs. lane-batched (portable
//! and explicit-SIMD) vs. layer-parallel WMC sweeps across two circuit
//! size tiers, written to `BENCH_eval.json` at the repository root. Run
//! with `cargo run --release -p trl-bench --bin bench_eval`; pass
//! `--smoke` for the fast CI sanity leg (smaller streams, no-harm floors,
//! no JSON).
//!
//! The scalar baseline is the pre-kernel hot path — one
//! `wmc_presmoothed` arena walk per query on the smoothed circuit, so
//! smoothing cost is already amortized and the comparison isolates the
//! sweep itself. The tape variant runs the same single-query sweep over
//! the contiguous instruction tape; lane batching amortizes one tape scan
//! across `LANES` queries (measured both on the portable forced-scalar
//! backend and on the best detected SIMD backend); layer-parallel fans
//! each dependency layer across the persistent sweep pool. Every variant
//! must answer bit-for-bit identically to scalar, on both tiers and
//! across the crosscheck corpus.
//!
//! The **small** tier is the historical acceptance instance; the
//! **large** tier (~145k tape nodes) is where layer-parallelism has
//! enough per-layer work to amortize its barrier — its gates are
//! parallelism-aware (see `trl_engine::eval_bench`): a ≥1.5x layered win
//! is demanded only on multi-CPU hosts, a no-harm floor otherwise.

use trl_bench::{banner, chained_3cnf, check, random_3cnf, row, section, Rng};
use trl_compiler::DecisionDnnfCompiler;
use trl_engine::{eval_benchmark_tiers, EvalReport, TierSpec};

/// Queries in the full small-tier stream.
const QUERIES_SMALL: usize = 2048;
/// Queries in the full large-tier stream (each query is a ~145k-node
/// sweep, so the stream is shorter).
const QUERIES_LARGE: usize = 256;
/// Queries per tier in the `--smoke` streams.
const SMOKE_QUERIES_SMALL: usize = 256;
const SMOKE_QUERIES_LARGE: usize = 64;
/// Disjoint 3-CNF blocks in the large-tier instance; 600 blocks of
/// `random_3cnf(n=18, m=54)` compile to a tape of ~145k nodes.
const LARGE_COPIES: usize = 600;

fn print_tier(report: &EvalReport, i: usize) {
    let t = &report.tiers[i];
    section(&format!("{} tier: {}", t.name, t.instance));
    row(
        "tape (nodes/layers, build us)",
        format!(
            "{}/{} ({:.0} us)",
            t.tape_nodes, t.tape_layers, t.tape_build_us
        ),
    );
    row("queries", format!("{}", t.queries));
    row(
        "batched counts under evidence (groups of 4, 8)",
        if t.count_identical {
            "identical to scalar"
        } else {
            "MISMATCH"
        },
    );
    for v in &t.variants {
        row(
            v.name,
            format!(
                "{:.0} qps ({:.2}x), p50 {:.1} us, p99 {:.1} us{}",
                v.qps,
                v.speedup,
                v.latency.p50_us,
                v.latency.p99_us,
                if v.identical { "" } else { "  [MISMATCH]" }
            ),
        );
    }
    row(
        "derived",
        format!(
            "simd_lane {:.2}x, layered_vs_lane {:.2}x",
            t.simd_lane_speedup(),
            t.layered_vs_lane()
        ),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "bench_eval",
        "evaluation-kernel throughput: scalar vs tape vs lanes vs layers (BENCH_eval.json)",
        "lane batching, explicit SIMD, and the persistent sweep pool each pay for themselves",
    );

    let small_instance = "random_3cnf(seed=18, n=18, m=54)";
    let small_cnf = random_3cnf(&mut Rng::new(18), 18, 54);
    let large_instance = format!("chained_3cnf(seed=42, copies={LARGE_COPIES}, n=18, m=54)");
    let large_cnf = chained_3cnf(&mut Rng::new(42), LARGE_COPIES, 18, 54);
    let compiler = DecisionDnnfCompiler::default();
    let small_circuit = compiler.compile(&small_cnf);
    let large_circuit = compiler.compile(&large_cnf);

    let layer_threads = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    let (q_small, q_large) = if smoke {
        (SMOKE_QUERIES_SMALL, SMOKE_QUERIES_LARGE)
    } else {
        (QUERIES_SMALL, QUERIES_LARGE)
    };
    let tiers = [
        TierSpec {
            name: "small",
            instance: small_instance.to_string(),
            circuit: &small_circuit,
            queries: q_small,
        },
        TierSpec {
            name: "large",
            instance: large_instance,
            circuit: &large_circuit,
            queries: q_large,
        },
    ];
    let report = eval_benchmark_tiers(&tiers, 0x5eed_0003, layer_threads);

    print_tier(&report, 0);
    print_tier(&report, 1);
    section("host");
    row(
        "parallelism / lane backend",
        format!("{} cpus, {}", report.host_parallelism, report.lane_backend),
    );
    row(
        "corpus identity sweep",
        format!(
            "{} instances, identical={}",
            report.corpus_instances, report.corpus_identical
        ),
    );

    section("criteria");
    let mut ok = check(
        "every kernel variant is bit-identical to scalar (both tiers + corpus)",
        report.all_identical(),
    );
    if smoke {
        // CI sanity floors: batching must never lose to scalar, and the
        // layered path must never lose to scalar on the large tier (it
        // regressed to 0.03x there before the persistent pool).
        ok &= check(
            "lane-batched throughput is at least the scalar baseline (small tier)",
            report.lane_batched_speedup() >= 1.0,
        );
        ok &= check(
            "layer-parallel is at least the scalar baseline on the large tier",
            report.tiers[1].speedup_of("layer_parallel") >= 1.0,
        );
    } else {
        ok &= check(
            &format!(
                "lane-batched kernel is >={:.1}x the scalar baseline (small tier)",
                trl_engine::eval_bench::LANE_SPEEDUP_FLOOR
            ),
            report.lane_batched_speedup() >= trl_engine::eval_bench::LANE_SPEEDUP_FLOOR,
        );
        ok &= check(
            &format!(
                "explicit SIMD beats the portable lane kernel ({:.2}x, floor {:.2}x)",
                report.simd_lane_speedup(),
                report.simd_floor()
            ),
            report.simd_lane_speedup() >= report.simd_floor(),
        );
        ok &= check(
            &format!(
                "layer-parallel vs lanes on the large tier ({:.2}x, floor {:.2}x for {} cpus)",
                report.layered_vs_lane_large(),
                report.layered_floor(),
                report.host_parallelism
            ),
            report.layered_vs_lane_large() >= report.layered_floor(),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
        std::fs::write(path, report.to_json()).expect("write BENCH_eval.json");
        println!("\nwrote {path}");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
