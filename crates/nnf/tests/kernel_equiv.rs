//! Bit-identity of the evaluation kernels against the scalar queries,
//! across the crosscheck corpus.
//!
//! Every kernel variant — tape scalar, lane-batched, layer-parallel — must
//! return answers **bit-identical** (`f64::to_bits`, exact `u128` equality)
//! to the corresponding `queries.rs` entry point on the same smoothed
//! circuit: WMC, model count, model count under evidence, and marginals.
//! The corpus is the same 50 deterministic instances the compiler's
//! crosscheck suite sweeps, so any divergence pins to a seed.

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{PartialAssignment, SplitMix64, Var};
use trl_nnf::{smooth, Circuit, EvalTape, LaneBackend, LitWeights, LANES};
use trl_prop::Cnf;

/// Per-variable weights skewed away from 1 so products differ per lane and
/// rounding is actually exercised.
fn skewed_weights(n: usize, seed: u64) -> LitWeights {
    let mut rng = SplitMix64::new(seed);
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = 0.05 + 0.9 * rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

/// Deterministic evidence: a couple of assigned variables per instance.
fn evidence(n: usize, i: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    pa.assign(Var(0).literal(i.is_multiple_of(2)));
    if n > 2 {
        pa.assign(Var((1 + i % (n - 1)) as u32).literal(!i.is_multiple_of(3)));
    }
    pa
}

fn corpus() -> Vec<(usize, Circuit)> {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let compiler = DecisionDnnfCompiler::default();
    (0..50)
        .map(|i| {
            let n = 4 + (i % 10);
            let m = 2 + ((i * 7) % (3 * n + 4));
            let cnf = trl_prop::gen::random_cnf(&mut rng, n, m, 4);
            (n, compiler.compile(&cnf))
        })
        .collect()
}

#[test]
fn wmc_kernels_bit_match_scalar_queries() {
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        // An awkward batch size: crosses one lane-group boundary.
        let weights: Vec<LitWeights> = (0..LANES + 3)
            .map(|k| skewed_weights(n, (i * 1000 + k) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();

        let expect: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let tape_scalar: Vec<u64> = weights.iter().map(|w| tape.wmc(w).to_bits()).collect();
        let batched: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
        let layered: Vec<u64> = tape
            .wmc_batch_layered(&refs, 3)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(tape_scalar, expect, "instance {i}: tape scalar diverged");
        assert_eq!(batched, expect, "instance {i}: lane-batched diverged");
        assert_eq!(layered, expect, "instance {i}: layer-parallel diverged");
    }
}

#[test]
fn counting_kernels_match_scalar_queries() {
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        assert_eq!(
            tape.model_count(),
            smoothed.model_count_presmoothed(),
            "instance {i}"
        );
        let pa = evidence(n, i);
        let empty = PartialAssignment::new(n);
        assert_eq!(
            tape.model_count_under(&pa),
            smoothed.model_count_under_presmoothed(&pa),
            "instance {i}"
        );
        assert_eq!(
            tape.model_count_under_batch(&[&empty, &pa, &empty, &pa]),
            vec![
                smoothed.model_count_presmoothed(),
                smoothed.model_count_under_presmoothed(&pa),
                smoothed.model_count_presmoothed(),
                smoothed.model_count_under_presmoothed(&pa),
            ],
            "instance {i}"
        );
    }
}

#[test]
fn marginal_kernels_bit_match_scalar_queries() {
    let as_bits = |(wmc, marg): &(f64, Vec<(f64, f64)>)| -> (u64, Vec<(u64, u64)>) {
        (
            wmc.to_bits(),
            marg.iter()
                .map(|(p, q)| (p.to_bits(), q.to_bits()))
                .collect(),
        )
    };
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        let weights: Vec<LitWeights> = (0..LANES + 1)
            .map(|k| skewed_weights(n, (7 * i + k + 1) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();

        let expect: Vec<_> = weights
            .iter()
            .map(|w| as_bits(&smoothed.wmc_marginals_presmoothed(w)))
            .collect();
        let tape_scalar: Vec<_> = weights
            .iter()
            .map(|w| as_bits(&tape.marginals(w)))
            .collect();
        let batched: Vec<_> = tape.marginals_batch(&refs).iter().map(as_bits).collect();
        let layered: Vec<_> = tape
            .marginals_batch_layered(&refs, 3)
            .iter()
            .map(as_bits)
            .collect();
        assert_eq!(tape_scalar, expect, "instance {i}: tape scalar diverged");
        assert_eq!(batched, expect, "instance {i}: lane-batched diverged");
        assert_eq!(layered, expect, "instance {i}: layer-parallel diverged");
    }
}

/// Every supported lane backend (the scalar fallback, plus whichever of
/// AVX2/AVX-512/NEON this host detects) answers WMC and marginals
/// bit-identically across the whole corpus — the forced-fallback path is
/// exercised on SIMD hosts because [`LaneBackend::Scalar`] is always in
/// the supported set.
#[test]
fn every_lane_backend_bit_matches_scalar_across_corpus() {
    let backends = LaneBackend::all_supported();
    assert!(backends.contains(&LaneBackend::Scalar));
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let weights: Vec<LitWeights> = (0..LANES + 2)
            .map(|k| skewed_weights(n, (i * 31 + k) as u64))
            .collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let expect_wmc: Vec<u64> = weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w).to_bits())
            .collect();
        let expect_marg: Vec<Vec<(u64, u64)>> = weights
            .iter()
            .map(|w| {
                smoothed
                    .wmc_marginals_presmoothed(w)
                    .1
                    .iter()
                    .map(|(p, q)| (p.to_bits(), q.to_bits()))
                    .collect()
            })
            .collect();
        for &backend in &backends {
            let mut tape = EvalTape::new(&smoothed);
            tape.set_lane_backend(backend);
            let got: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expect_wmc, "instance {i}: {} wmc", backend.name());
            let got: Vec<Vec<(u64, u64)>> = tape
                .marginals_batch(&refs)
                .iter()
                .map(|(_, marg)| {
                    marg.iter()
                        .map(|(p, q)| (p.to_bits(), q.to_bits()))
                        .collect()
                })
                .collect();
            assert_eq!(
                got,
                expect_marg,
                "instance {i}: {} marginals",
                backend.name()
            );
        }
    }
}

#[test]
fn tape_layers_are_topological_and_root_is_last() {
    for (i, (_, circuit)) in corpus().into_iter().enumerate() {
        let smoothed = smooth(&circuit);
        let tape = EvalTape::new(&smoothed);
        assert!(!tape.is_empty(), "instance {i}");
        assert!(
            tape.len() <= smoothed.node_count(),
            "instance {i}: tape holds only reachable nodes"
        );
        assert!(tape.num_layers() >= 1, "instance {i}");
        assert_eq!(tape.num_vars(), smoothed.num_vars(), "instance {i}");
    }
}

/// `copies` random 3-CNF blocks of `n` variables and `m` clauses over
/// disjoint variable ranges, each clause agreeing with a planted model of
/// its block in its first literal (the shape of the benchmark's
/// `chained_3cnf`). Returns the whole CNF and each block on its own
/// `n`-variable universe.
fn planted_blocks(rng: &mut SplitMix64, copies: usize, n: usize, m: usize) -> (Cnf, Vec<Cnf>) {
    let mut whole = Cnf::new(copies * n);
    let mut blocks = Vec::with_capacity(copies);
    for block in 0..copies {
        let mut own = Cnf::new(n);
        let planted: Vec<bool> = (0..n).map(|_| rng.coin()).collect();
        for _ in 0..m {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let x = rng.below(n);
                if !vars.contains(&x) {
                    vars.push(x);
                }
            }
            let signs: Vec<bool> = (0..3)
                .map(|k| if k == 0 { planted[vars[0]] } else { rng.coin() })
                .collect();
            let lit = |x: usize, sign: bool, base: usize| Var((base + x) as u32).literal(sign);
            own.add_clause(vars.iter().zip(&signs).map(|(&x, &s)| lit(x, s, 0)));
            whole.add_clause(vars.iter().zip(&signs).map(|(&x, &s)| lit(x, s, block * n)));
        }
        blocks.push(own);
    }
    (whole, blocks)
}

/// Evidence of three kinds, cycled: none, a few literals of the planted
/// blocks' variables (satisfiable or not, as drawn), and the negation of
/// one whole clause (contradicting, count 0).
fn evidence_mix(rng: &mut SplitMix64, cnf: &Cnf, count: usize) -> Vec<PartialAssignment> {
    let n = cnf.num_vars();
    (0..count)
        .map(|k| {
            let mut pa = PartialAssignment::new(n);
            match k % 3 {
                0 => {}
                1 => {
                    for _ in 0..1 + k % 4 {
                        pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
                    }
                }
                _ => {
                    let clause = &cnf.clauses()[rng.below(cnf.clauses().len())];
                    for &l in clause.literals() {
                        pa.assign(!l);
                    }
                }
            }
            pa
        })
        .collect()
}

/// Circuits whose counts pass 2^64 (4 blocks) and 2^128 (8 blocks) run
/// the wide `u128` part of the batched count sweep; every group size must
/// still match both scalar oracles exactly, wrap modulo 2^128 included.
#[test]
fn wide_counts_match_scalar_oracles_across_group_sizes() {
    let mut rng = SplitMix64::new(0x71de_c047);
    let compiler = DecisionDnnfCompiler::default();
    for copies in [4usize, 8] {
        let (cnf, blocks) = planted_blocks(&mut rng, copies, 18, 5);
        let smoothed = smooth(&compiler.compile(&cnf));
        let tape = EvalTape::new(&smoothed);
        let block_counts: Vec<u128> = blocks
            .iter()
            .map(|b| compiler.compile(b).model_count())
            .collect();
        let exact = block_counts
            .iter()
            .try_fold(1u128, |acc, &c| acc.checked_mul(c));
        let wrapped = block_counts
            .iter()
            .fold(1u128, |acc, &c| acc.wrapping_mul(c));
        let empty = PartialAssignment::new(cnf.num_vars());
        assert_eq!(tape.model_count_under(&empty), wrapped, "{copies} blocks");
        if copies == 4 {
            let exact = exact.expect("4 blocks stay below 2^128");
            assert!(exact > u128::from(u64::MAX) && exact < 1 << 127, "{exact}");
        } else {
            assert_eq!(exact, None, "8 blocks pass 2^128");
        }

        let evidence = evidence_mix(&mut rng, &cnf, 17);
        let expect: Vec<u128> = evidence
            .iter()
            .map(|pa| smoothed.model_count_under_presmoothed(pa))
            .collect();
        assert_eq!(expect[0], wrapped, "{copies} blocks: empty evidence");
        assert!(expect.contains(&0), "some evidence contradicts");
        assert!(expect.iter().any(|&c| c > u128::from(u64::MAX)));
        for (pa, &e) in evidence.iter().zip(&expect) {
            assert_eq!(
                tape.model_count_under(pa),
                e,
                "{copies} blocks: tape scalar"
            );
        }
        for size in [1usize, 3, 4, 5, 8, 9, 17] {
            let refs: Vec<&PartialAssignment> = evidence[..size].iter().collect();
            assert_eq!(
                tape.model_count_under_batch(&refs),
                expect[..size],
                "{copies} blocks, group of {size}"
            );
        }
    }
}
