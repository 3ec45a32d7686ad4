//! The kernel-comparison benchmark behind the `bench_eval` binary
//! (`BENCH_eval.json`): scalar vs. tape vs. lane-batched (scalar and SIMD
//! lanes) vs. layer-parallel evaluation of the same WMC query stream,
//! across one or more circuit size tiers.
//!
//! Five variants answer an identical deterministic stream against each
//! tier's circuit:
//!
//! * **scalar** — the pre-kernel hot path: one [`Circuit::wmc_presmoothed`]
//!   arena walk per query (smoothing already amortized, so this isolates
//!   the sweep itself);
//! * **tape** — one [`EvalTape::wmc`] scan per query: same work, but over
//!   the contiguous struct-of-arrays tape instead of pointer-chasing enum
//!   nodes;
//! * **lane_scalar** — [`EvalTape::wmc_batch`] in groups of
//!   [`trl_nnf::LANES`] with the lane backend forced to
//!   [`LaneBackend::Scalar`]: one tape scan fills all lanes' value planes,
//!   compiled as plain Rust (LLVM still auto-vectorizes it to the
//!   baseline SSE2 target — this is the *portable* lane kernel, not a
//!   deliberately crippled one);
//! * **lane_batched** — the same sweep on the best detected backend
//!   (AVX-512/AVX2/NEON when the `simd` feature is on and the CPU
//!   qualifies; identical to `lane_scalar` otherwise);
//! * **layer_parallel** — [`EvalTape::wmc_batch_layered`]: lane batching
//!   plus each dependency layer fanned across the persistent
//!   [`trl_nnf::SweepPool`] workers.
//!
//! The tape is built (and timed — `tape_build_us`) before any variant
//! runs, and a warm-up query touches every plane first, so no variant's
//! latency distribution is billed construction or cold-cache costs: the
//! millisecond-scale max-latency outlier earlier `BENCH_eval.json`
//! revisions recorded against the tape variant was exactly that
//! first-query build cost.
//!
//! Every variant's answers are compared bit-for-bit against the scalar
//! reference, and [`kernel_identity_sweep`] repeats that comparison —
//! forced-scalar lanes, detected-backend lanes, and real pooled workers
//! included — for WMC, model count, counting under evidence, and
//! marginals across the whole crosscheck corpus. Each tier also checks
//! batched counting under evidence (groups of 4 and [`LANES`]) against the
//! scalar tape count; the large tier's counts pass 2^128, which the small
//! corpus never reaches.
//!
//! Acceptance is parallelism-aware: the layer-parallel gate demands a
//! ≥1.5x win over the sequential lane kernel only when the host has ≥2
//! CPUs; on a single-CPU host the layered path degrades to the inline
//! lane kernel and must merely stay above a 0.8x no-harm floor. The SIMD
//! gate likewise asserts the explicit-intrinsics backend strictly beats
//! the portable lane kernel (≥1.05x on some tier) rather than a fixed
//! large multiple: the "scalar" baseline is itself auto-vectorized SSE2,
//! so the honest margin is the AVX-512-over-SSE2 gap on a sweep whose
//! per-node control flow, not arithmetic, dominates.

use std::fmt::Write as _;
use std::time::Instant;

use crate::serve_bench::LatencySummary;
use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, SplitMix64, Var};
use trl_nnf::{smooth, Circuit, EvalTape, LaneBackend, LitWeights, SweepPool, LANES};
use trl_prop::gen::random_cnf;

/// Measurements for one evaluation variant.
#[derive(Clone, Debug)]
pub struct EvalVariantReport {
    /// Variant name (`scalar`, `tape`, `lane_scalar`, `lane_batched`,
    /// `layer_parallel`).
    pub name: &'static str,
    /// Wall-clock for the whole stream, seconds.
    pub wall_secs: f64,
    /// Throughput, queries per second.
    pub qps: f64,
    /// Per-query latency distribution (group sweep time for batched
    /// variants — the time a query actually waits).
    pub latency: LatencySummary,
    /// Throughput relative to the scalar variant.
    pub speedup: f64,
    /// Whether every answer bit-matched the scalar reference.
    pub identical: bool,
}

/// One circuit size tier's measurements.
#[derive(Clone, Debug)]
pub struct EvalTierReport {
    /// Tier name (`small`, `large`, ...).
    pub name: &'static str,
    /// Human-readable instance description.
    pub instance: String,
    /// Nodes in the compiled circuit.
    pub raw_nodes: usize,
    /// Instructions on the evaluation tape (reachable smoothed nodes).
    pub tape_nodes: usize,
    /// Dependency layers on the tape.
    pub tape_layers: usize,
    /// Queries in the stream.
    pub queries: usize,
    /// One-time tape construction cost, microseconds — measured apart so
    /// it is never billed to a query's latency.
    pub tape_build_us: f64,
    /// One row per variant; `scalar` is first.
    pub variants: Vec<EvalVariantReport>,
    /// Whether [`EvalTape::model_count_under_batch`] over groups of 4 and
    /// [`LANES`] evidence sets equalled [`EvalTape::model_count_under`]
    /// per query. On the large tier the counts pass 2^128, so this covers
    /// the batched sweep's wide `u128` pass and its wrap.
    pub count_identical: bool,
}

impl EvalTierReport {
    /// Throughput of the named variant (0 when absent).
    pub fn qps_of(&self, name: &str) -> f64 {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.qps)
    }

    /// The named variant's speedup over scalar (0 when absent).
    pub fn speedup_of(&self, name: &str) -> f64 {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.speedup)
    }

    /// Explicit-SIMD lane kernel over the portable (forced-scalar) lane
    /// kernel: `lane_batched` qps / `lane_scalar` qps.
    pub fn simd_lane_speedup(&self) -> f64 {
        let base = self.qps_of("lane_scalar");
        if base > 0.0 {
            self.qps_of("lane_batched") / base
        } else {
            0.0
        }
    }

    /// Layer-parallel over the sequential lane-batched kernel:
    /// `layer_parallel` qps / `lane_batched` qps.
    pub fn layered_vs_lane(&self) -> f64 {
        let base = self.qps_of("lane_batched");
        if base > 0.0 {
            self.qps_of("layer_parallel") / base
        } else {
            0.0
        }
    }

    /// Whether every variant in this tier bit-matched scalar and the
    /// batched counts matched the scalar ones.
    pub fn identical(&self) -> bool {
        self.count_identical && self.variants.iter().all(|v| v.identical)
    }
}

/// The full kernel benchmark result across all tiers.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// One entry per size tier, smallest first.
    pub tiers: Vec<EvalTierReport>,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the context every parallel speedup must be read in.
    pub host_parallelism: usize,
    /// The lane backend the detected-dispatch variants ran on.
    pub lane_backend: &'static str,
    /// Threads requested from the layer-parallel variant.
    pub layer_threads: usize,
    /// Crosscheck-corpus instances swept for bit-identity.
    pub corpus_instances: usize,
    /// Whether every kernel answer across the corpus bit-matched scalar.
    pub corpus_identical: bool,
}

/// Full-run floor for `lane_batched` over single-query scalar (first tier).
pub const LANE_SPEEDUP_FLOOR: f64 = 4.0;
/// Floor for the explicit-SIMD backend over the portable lane kernel
/// (on its best tier); applies only when a SIMD backend is active.
pub const SIMD_LANE_FLOOR: f64 = 1.05;
/// Layer-parallel floor over the sequential lane kernel on the largest
/// tier when the host has ≥2 CPUs.
pub const LAYERED_FLOOR_PARALLEL: f64 = 1.5;
/// The same gate on a single-CPU host, where the layered path degrades
/// to the inline lane kernel: it must merely do no harm.
pub const LAYERED_FLOOR_SERIAL: f64 = 0.8;

impl EvalReport {
    /// The lane-batched variant's speedup over scalar on the first
    /// (smallest) tier — the headline acceptance number for `bench_eval`.
    pub fn lane_batched_speedup(&self) -> f64 {
        self.tiers
            .first()
            .map_or(0.0, |t| t.speedup_of("lane_batched"))
    }

    /// Best explicit-SIMD-over-portable-lane ratio across tiers.
    pub fn simd_lane_speedup(&self) -> f64 {
        self.tiers
            .iter()
            .map(EvalTierReport::simd_lane_speedup)
            .fold(0.0, f64::max)
    }

    /// Layer-parallel over sequential lanes on the largest (last) tier.
    pub fn layered_vs_lane_large(&self) -> f64 {
        self.tiers
            .last()
            .map_or(0.0, EvalTierReport::layered_vs_lane)
    }

    /// Whether every variant (on every tier and across the corpus)
    /// answered bit-identically to scalar.
    pub fn all_identical(&self) -> bool {
        self.corpus_identical && self.tiers.iter().all(EvalTierReport::identical)
    }

    /// The SIMD acceptance floor for this run: [`SIMD_LANE_FLOOR`] when a
    /// non-scalar backend is active, else 0 (nothing to beat — the two
    /// lane variants run the same code).
    pub fn simd_floor(&self) -> f64 {
        if self.lane_backend == "scalar" {
            0.0
        } else {
            SIMD_LANE_FLOOR
        }
    }

    /// The layer-parallel acceptance floor for this host; see the module
    /// docs on parallelism-aware gating.
    pub fn layered_floor(&self) -> f64 {
        if self.host_parallelism >= 2 {
            LAYERED_FLOOR_PARALLEL
        } else {
            LAYERED_FLOOR_SERIAL
        }
    }

    /// Whether every acceptance gate passes.
    pub fn accepts(&self) -> bool {
        self.all_identical()
            && self.lane_batched_speedup() >= LANE_SPEEDUP_FLOOR
            && self.simd_lane_speedup() >= self.simd_floor()
            && self.layered_vs_lane_large() >= self.layered_floor()
    }

    /// Renders the report as the `BENCH_eval.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"bench_eval\",\n");
        let _ = writeln!(
            out,
            "  \"lanes\": {}, \"lane_backend\": \"{}\", \"layer_threads\": {}, \"host_parallelism\": {},",
            LANES, self.lane_backend, self.layer_threads, self.host_parallelism
        );
        out.push_str("  \"tiers\": [\n");
        for (i, t) in self.tiers.iter().enumerate() {
            let _ = writeln!(out, "    {{\n      \"name\": \"{}\",", t.name);
            let _ = writeln!(out, "      \"instance\": \"{}\",", t.instance);
            let _ = writeln!(
                out,
                "      \"circuit\": {{ \"nodes\": {}, \"tape_nodes\": {}, \"tape_layers\": {} }},",
                t.raw_nodes, t.tape_nodes, t.tape_layers
            );
            let _ = writeln!(
                out,
                "      \"queries\": {}, \"tape_build_us\": {:.1}, \"count_identical\": {},",
                t.queries, t.tape_build_us, t.count_identical
            );
            out.push_str("      \"variants\": [\n");
            for (j, v) in t.variants.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{ \"name\": \"{}\", \"wall_secs\": {:.6}, \"qps\": {:.1}, \"latency\": {}, \"speedup\": {:.2}, \"identical\": {} }}",
                    v.name,
                    v.wall_secs,
                    v.qps,
                    v.latency.to_json_fragment(),
                    v.speedup,
                    v.identical
                );
                out.push_str(if j + 1 < t.variants.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("      ],\n");
            let _ = writeln!(
                out,
                "      \"derived\": {{ \"simd_lane_speedup\": {:.2}, \"layered_vs_lane\": {:.2} }}",
                t.simd_lane_speedup(),
                t.layered_vs_lane()
            );
            out.push_str(if i + 1 < self.tiers.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"corpus\": {{ \"instances\": {}, \"identical\": {} }},",
            self.corpus_instances, self.corpus_identical
        );
        let _ = writeln!(
            out,
            "  \"acceptance\": {{ \"all_identical\": {}, \"lane_batched_speedup\": {:.2}, \"simd_lane_speedup\": {:.2}, \"simd_floor\": {:.2}, \"layered_vs_lane_large\": {:.2}, \"layered_floor\": {:.2}, \"pass\": {} }}",
            self.all_identical(),
            self.lane_batched_speedup(),
            self.simd_lane_speedup(),
            self.simd_floor(),
            self.layered_vs_lane_large(),
            self.layered_floor(),
            self.accepts()
        );
        out.push_str("}\n");
        out
    }
}

/// One tier's input to [`eval_benchmark_tiers`].
pub struct TierSpec<'a> {
    /// Tier name (`small`, `large`, ...).
    pub name: &'static str,
    /// Human-readable instance description.
    pub instance: String,
    /// The compiled circuit to measure.
    pub circuit: &'a Circuit,
    /// Queries in the stream.
    pub queries: usize,
}

/// A deterministic stream of WMC weight vectors (same shape as the
/// serving benchmark's query stream).
fn weight_stream(num_vars: usize, count: usize, seed: u64) -> Vec<LitWeights> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let mut w = LitWeights::unit(num_vars);
            for v in 0..num_vars as u32 {
                let p = 0.05 + 0.9 * rng.uniform();
                w.set(Var(v).positive(), p);
                w.set(Var(v).negative(), 1.0 - p);
            }
            w
        })
        .collect()
}

/// The evidence of the batched-count check, deterministic per seed. Even
/// entries fix a model of `smoothed` on all but its first `64 * (k + 1)`
/// variables: on the large tier those counts are exact on both sides of
/// 2^64 and, past 2^128, wrap to a nonzero value. Odd entries assign three
/// random literals (the serving benchmark's `model_count_under` shape).
fn evidence_stream(smoothed: &Circuit, count: usize, seed: u64) -> Vec<PartialAssignment> {
    let n = smoothed.num_vars();
    let model = smoothed.max_weight_presmoothed(&LitWeights::unit(n));
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|k| {
            let mut pa = PartialAssignment::new(n);
            match &model {
                Some((_, model)) if k % 2 == 0 => {
                    for v in (64 * (k + 1)).min(n)..n {
                        let v = Var(v as u32);
                        pa.assign(v.literal(model.value(v)));
                    }
                }
                _ => {
                    for _ in 0..3 {
                        pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
                    }
                }
            }
            pa
        })
        .collect()
}

/// One timed run: answers, wall-clock seconds, per-query latencies (µs).
type TimedRun = (Vec<f64>, f64, Vec<f64>);

/// Times a per-query evaluation loop, recording each query's latency.
fn run_scalar<F: FnMut(&LitWeights) -> f64>(weights: &[LitWeights], mut eval: F) -> TimedRun {
    let start = Instant::now();
    let mut latencies_us = Vec::with_capacity(weights.len());
    let mut answers = Vec::with_capacity(weights.len());
    for w in weights {
        let t = Instant::now();
        answers.push(eval(w));
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (
        answers,
        start.elapsed().as_secs_f64().max(1e-12),
        latencies_us,
    )
}

/// Times a batched evaluation the way the executor dispatches it: one call
/// over the whole stream for wall-clock/throughput, preceded by a
/// per-lane-group timing pass for the latency distribution (each query is
/// charged its group's sweep time — what it would actually wait).
fn run_batched<F: Fn(&[&LitWeights]) -> Vec<f64>>(weights: &[LitWeights], eval: F) -> TimedRun {
    let refs: Vec<&LitWeights> = weights.iter().collect();
    let mut latencies_us = Vec::with_capacity(weights.len());
    for group in refs.chunks(LANES) {
        let t = Instant::now();
        let _ = eval(group);
        let us = t.elapsed().as_secs_f64() * 1e6;
        latencies_us.extend(std::iter::repeat_n(us, group.len()));
    }
    let start = Instant::now();
    let answers = eval(&refs);
    (
        answers,
        start.elapsed().as_secs_f64().max(1e-12),
        latencies_us,
    )
}

/// Runs the five-variant comparison for one tier.
fn eval_tier(spec: &TierSpec<'_>, seed: u64, layer_threads: usize) -> EvalTierReport {
    let weights = weight_stream(spec.circuit.num_vars(), spec.queries, seed);
    let smoothed = smooth(spec.circuit);
    let build = Instant::now();
    let mut tape = EvalTape::new(&smoothed);
    let tape_build_us = build.elapsed().as_secs_f64() * 1e6;
    let detected = tape.lane_backend();

    // Warm every path once so no timed variant is billed cold-cache or
    // page-fault costs (tape construction is already excluded above).
    let _ = smoothed.wmc_presmoothed(&weights[0]);
    let _ = tape.wmc(&weights[0]);
    let _ = tape.wmc_batch(&[&weights[0]]);

    let (reference, scalar_secs, mut scalar_lat) =
        run_scalar(&weights, |w| smoothed.wmc_presmoothed(w));
    let scalar_qps = weights.len() as f64 / scalar_secs;

    let mut variants = vec![EvalVariantReport {
        name: "scalar",
        wall_secs: scalar_secs,
        qps: scalar_qps,
        latency: LatencySummary::from_us(&mut scalar_lat),
        speedup: 1.0,
        identical: true,
    }];

    let tape_run = run_scalar(&weights, |w| tape.wmc(w));
    tape.set_lane_backend(LaneBackend::Scalar);
    let lane_scalar_run = run_batched(&weights, |g| tape.wmc_batch(g));
    tape.set_lane_backend(detected);
    let lane_batched_run = run_batched(&weights, |g| tape.wmc_batch(g));
    let layered_run = run_batched(&weights, |g| tape.wmc_batch_layered(g, layer_threads));
    let runs: [(&'static str, TimedRun); 4] = [
        ("tape", tape_run),
        ("lane_scalar", lane_scalar_run),
        ("lane_batched", lane_batched_run),
        ("layer_parallel", layered_run),
    ];
    for (name, (answers, wall_secs, mut lat)) in runs {
        let qps = weights.len() as f64 / wall_secs;
        variants.push(EvalVariantReport {
            name,
            wall_secs,
            qps,
            latency: LatencySummary::from_us(&mut lat),
            speedup: qps / scalar_qps,
            identical: answers
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        });
    }

    let evidence = evidence_stream(&smoothed, LANES, seed);
    let refs: Vec<&PartialAssignment> = evidence.iter().collect();
    let expect: Vec<u128> = refs.iter().map(|pa| tape.model_count_under(pa)).collect();
    let count_identical = tape.model_count_under_batch(&refs[..4]) == expect[..4]
        && tape.model_count_under_batch(&refs) == expect;

    EvalTierReport {
        name: spec.name,
        instance: spec.instance.clone(),
        raw_nodes: spec.circuit.node_count(),
        tape_nodes: tape.len(),
        tape_layers: tape.num_layers(),
        queries: weights.len(),
        tape_build_us,
        variants,
        count_identical,
    }
}

/// Runs the kernel benchmark across `tiers` (smallest first) plus the
/// corpus identity sweep.
pub fn eval_benchmark_tiers(tiers: &[TierSpec<'_>], seed: u64, layer_threads: usize) -> EvalReport {
    let tier_reports: Vec<EvalTierReport> = tiers
        .iter()
        .map(|spec| eval_tier(spec, seed, layer_threads))
        .collect();
    let (corpus_instances, corpus_identical) = kernel_identity_sweep();
    EvalReport {
        tiers: tier_reports,
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        lane_backend: LaneBackend::detect().name(),
        layer_threads,
        corpus_instances,
        corpus_identical,
    }
}

/// Runs the kernel benchmark for one compiled circuit as a single tier —
/// the `bench-eval` CLI entry point.
pub fn eval_benchmark(
    instance: &str,
    circuit: &Circuit,
    num_queries: usize,
    seed: u64,
    layer_threads: usize,
) -> EvalReport {
    eval_benchmark_tiers(
        &[TierSpec {
            name: "main",
            instance: instance.to_string(),
            circuit,
            queries: num_queries,
        }],
        seed,
        layer_threads,
    )
}

/// Sweeps the crosscheck corpus (the same 50 deterministic instances the
/// compiler's crosscheck tests use) asserting every kernel variant answers
/// WMC, model count, counting under evidence, and marginals bit-identically
/// to the scalar `queries` functions — on the detected lane backend, with
/// the backend forced to scalar, and with real pooled workers (a private
/// two-thread [`SweepPool`], so the pooled path is exercised even on a
/// single-CPU host). Returns `(instances, all_identical)`.
pub fn kernel_identity_sweep() -> (usize, bool) {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let compiler = DecisionDnnfCompiler::default();
    let pool = SweepPool::new(2);
    let instances = 50;
    let mut identical = true;
    for i in 0..instances {
        let n = 4 + (i % 10);
        let m = 2 + ((i * 7) % (3 * n + 4));
        let cnf = random_cnf(&mut rng, n, m, 4);
        let circuit = compiler.compile(&cnf);
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        let mut scalar_tape = EvalTape::new(&smoothed);
        scalar_tape.set_lane_backend(LaneBackend::Scalar);

        let weights = weight_stream(n, LANES + 3, 0xC0FF_EE00 ^ i as u64);
        let refs: Vec<&LitWeights> = weights.iter().collect();

        // WMC: tape scalar, lane-batched (detected and forced-scalar
        // backends), layer-parallel, and pooled-workers vs. scalar.
        let reference: Vec<f64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w))
            .collect();
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        identical &=
            bits(&weights.iter().map(|w| tape.wmc(w)).collect::<Vec<_>>()) == bits(&reference);
        identical &= bits(&tape.wmc_batch(&refs)) == bits(&reference);
        identical &= bits(&scalar_tape.wmc_batch(&refs)) == bits(&reference);
        identical &= bits(&tape.wmc_batch_layered(&refs, 2)) == bits(&reference);
        identical &= bits(&tape.wmc_batch_pooled(&refs, &pool, 2)) == bits(&reference);

        // Model count, plain and under evidence.
        identical &= tape.model_count() == smoothed.model_count_presmoothed();
        let mut pa = PartialAssignment::new(n);
        pa.assign(Var(0).literal(i % 2 == 0));
        if n > 4 {
            pa.assign(Var((i % (n - 1)) as u32 + 1).literal(i % 3 == 0));
        }
        let empty = PartialAssignment::new(n);
        let expect_under: Vec<u128> = [&empty, &pa]
            .iter()
            .map(|pa| smoothed.model_count_under_presmoothed(pa))
            .collect();
        identical &= tape.model_count_under(&pa) == expect_under[1];
        identical &= tape.model_count_under_batch(&[&empty, &pa]) == expect_under;

        // Marginals: wmc and every per-literal pair, bit for bit.
        let expect: Vec<(f64, Vec<(f64, f64)>)> = weights
            .iter()
            .map(|w| smoothed.wmc_marginals_presmoothed(w))
            .collect();
        let marg_bits = |xs: &[(f64, Vec<(f64, f64)>)]| -> Vec<(u64, Vec<(u64, u64)>)> {
            xs.iter()
                .map(|(wmc, m)| {
                    (
                        wmc.to_bits(),
                        m.iter().map(|(p, q)| (p.to_bits(), q.to_bits())).collect(),
                    )
                })
                .collect()
        };
        identical &= marg_bits(
            &weights
                .iter()
                .map(|w| tape.marginals(w))
                .collect::<Vec<_>>(),
        ) == marg_bits(&expect);
        identical &= marg_bits(&tape.marginals_batch(&refs)) == marg_bits(&expect);
        identical &= marg_bits(&scalar_tape.marginals_batch(&refs)) == marg_bits(&expect);
        identical &= marg_bits(&tape.marginals_batch_layered(&refs, 2)) == marg_bits(&expect);
        identical &= marg_bits(&tape.marginals_batch_pooled(&refs, &pool, 2)) == marg_bits(&expect);
    }
    (instances, identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_prop::Cnf;

    #[test]
    fn report_is_consistent_and_identical() {
        let cnf =
            Cnf::parse_dimacs("p cnf 6 5\n1 2 0\n-2 3 4 0\n-1 -4 0\n5 1 0\n-5 6 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let report = eval_benchmark("test instance", &c, 64, 9, 2);
        assert_eq!(report.tiers.len(), 1);
        let tier = &report.tiers[0];
        assert_eq!(tier.variants.len(), 5);
        assert_eq!(tier.variants[0].name, "scalar");
        assert!(tier.variants.iter().all(|v| v.identical && v.qps > 0.0));
        assert!(tier.count_identical);
        assert!(tier.tape_build_us > 0.0);
        assert!(report.corpus_identical);
        assert_eq!(report.corpus_instances, 50);
        assert!(report.all_identical());
        assert!(report.host_parallelism >= 1);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"bench_eval\""));
        assert!(json.contains("\"lane_scalar\""));
        assert!(json.contains("\"lane_batched\""));
        assert!(json.contains("\"tape_build_us\""));
        assert!(json.contains("\"count_identical\": true"));
        assert!(json.contains("\"simd_lane_speedup\""));
        assert!(json.contains("\"layered_vs_lane\""));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"host_parallelism\""));
    }

    #[test]
    fn two_tier_reports_derive_per_tier_ratios() {
        let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let tiers = [
            TierSpec {
                name: "small",
                instance: "tiny-a".into(),
                circuit: &c,
                queries: 24,
            },
            TierSpec {
                name: "large",
                instance: "tiny-b".into(),
                circuit: &c,
                queries: 24,
            },
        ];
        let report = eval_benchmark_tiers(&tiers, 7, 2);
        assert_eq!(report.tiers.len(), 2);
        assert!(report.all_identical());
        for t in &report.tiers {
            assert!(t.simd_lane_speedup() > 0.0);
            assert!(t.layered_vs_lane() > 0.0);
        }
        // The large-tier derived ratio is the last tier's.
        assert_eq!(
            report.layered_vs_lane_large(),
            report.tiers[1].layered_vs_lane()
        );
        let json = report.to_json();
        assert!(json.contains("\"name\": \"small\""));
        assert!(json.contains("\"name\": \"large\""));
    }
}
