//! Pre- vs post-minimization identity sweep over the 50-CNF crosscheck
//! corpus (the same deterministic instances the compiler and kernel
//! suites sweep; any divergence pins to a seed).
//!
//! Every instance is minimized under the full default schedule, and every
//! query the engine serves is compared **bit-for-bit**: SAT, model count
//! (`u128`), model count under evidence, WMC, and marginals. Float probes
//! run in the exact dyadic regime ({0.5, 1.0} weights), where every
//! intermediate is exactly representable, so bit-equality is the correct
//! oracle even across restructured circuits. MPE compares optimal weight
//! bits and cross-validates each witness (tie-breaking is structural).
//! Brute-force model enumeration (n ≤ 13 here) independently confirms the
//! *function* is untouched.

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{Assignment, PartialAssignment, SplitMix64, Var};
use trl_minimize::{
    compact, dyadic_weights, minimize_circuit, mixed_dyadic_weights, MinimizeConfig, Strategy,
};
use trl_nnf::{smooth, Circuit, EvalTape};
use trl_prop::Cnf;

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

/// Deterministic evidence: a couple of assigned variables per instance.
fn evidence(n: usize, i: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    pa.assign(Var(0).literal(i.is_multiple_of(2)));
    if n > 2 {
        pa.assign(Var((1 + i % (n - 1)) as u32).literal(!i.is_multiple_of(3)));
    }
    pa
}

fn assert_identical(i: usize, n: usize, a: &Circuit, b: &Circuit) {
    assert_eq!(a.num_vars(), b.num_vars(), "instance {i}: universe");
    assert_eq!(a.sat_dnnf(), b.sat_dnnf(), "instance {i}: sat");
    assert_eq!(a.model_count(), b.model_count(), "instance {i}: count");
    let pa = evidence(n, i);
    assert_eq!(
        a.model_count_under(&pa),
        b.model_count_under(&pa),
        "instance {i}: count under evidence"
    );
    for w in [dyadic_weights(n), mixed_dyadic_weights(n)] {
        assert_eq!(
            a.wmc(&w).to_bits(),
            b.wmc(&w).to_bits(),
            "instance {i}: wmc bits"
        );
        let (wa, ma) = a.wmc_marginals(&w);
        let (wb, mb) = b.wmc_marginals(&w);
        assert_eq!(wa.to_bits(), wb.to_bits(), "instance {i}: marginal wmc");
        let bits = |m: &[(f64, f64)]| -> Vec<(u64, u64)> {
            m.iter().map(|(p, q)| (p.to_bits(), q.to_bits())).collect()
        };
        assert_eq!(bits(&ma), bits(&mb), "instance {i}: marginal bits");
    }
    // MPE: same optimal weight bitwise; witnesses cross-validate.
    let w = mixed_dyadic_weights(n);
    match (a.max_weight(&w), b.max_weight(&w)) {
        (None, None) => {}
        (Some((va, wa)), Some((vb, wb))) => {
            assert_eq!(va.to_bits(), vb.to_bits(), "instance {i}: mpe weight");
            assert!(a.eval(&wb), "instance {i}: minimized witness invalid");
            assert!(b.eval(&wa), "instance {i}: original witness invalid");
        }
        other => panic!("instance {i}: mpe satisfiability diverged: {other:?}"),
    }
    // Independent function check: brute force over all assignments.
    for code in 0..1u64 << n {
        let asn = Assignment::from_index(code, n);
        assert_eq!(
            a.eval(&asn),
            b.eval(&asn),
            "instance {i}: assignment {code}"
        );
    }
}

#[test]
fn full_schedule_identity_sweep() {
    let mut shrunk = 0usize;
    for (i, (n, circuit)) in corpus().into_iter().enumerate() {
        let (minimized, report) = minimize_circuit(&circuit, &MinimizeConfig::default());
        assert!(
            minimized.node_count() <= circuit.node_count(),
            "instance {i}: grew from {} to {}",
            circuit.node_count(),
            minimized.node_count()
        );
        assert_eq!(report.nodes_before, circuit.node_count(), "instance {i}");
        assert_eq!(report.nodes_after, minimized.node_count(), "instance {i}");
        if report.accepted {
            shrunk += 1;
            assert!(
                minimized.node_count() < circuit.node_count(),
                "instance {i}"
            );
        }
        assert_identical(i, n, &circuit, &minimized);
    }
    // The corpus must show real reductions, not a vacuous sweep.
    assert!(shrunk >= 10, "only {shrunk}/50 instances shrank");
}

#[test]
fn per_strategy_identity_spot_checks() {
    // Each individual strategy obeys the same contract on a corpus slice.
    for strategy in [Strategy::Compact, Strategy::Obdd, Strategy::Vtree] {
        let cfg = MinimizeConfig {
            strategy,
            ..MinimizeConfig::default()
        };
        for (i, (n, circuit)) in corpus().into_iter().enumerate().take(12) {
            let (minimized, _) = minimize_circuit(&circuit, &cfg);
            assert!(minimized.node_count() <= circuit.node_count());
            assert_identical(i, n, &circuit, &minimized);
        }
    }
}

/// `compact` output (or-gates merged to wider fan-in) with counts past
/// 2^64 (5 blocks) and past 2^128 (8 blocks, wrapping): the lane-batched
/// count sweep, whose top gates run in `u128`, must equal both scalar
/// count sweeps on it, as on the compiled circuit.
#[test]
fn compacted_wide_counts_match_the_batched_sweep() {
    let mut rng = SplitMix64::new(0xC0_4D);
    let compiler = DecisionDnnfCompiler::default();
    for copies in [5usize, 8] {
        // Disjoint random 3-CNF blocks of 18 variables and 5 clauses.
        let n = copies * 18;
        let mut cnf = Cnf::new(n);
        for block in 0..copies {
            for clause in trl_prop::gen::random_cnf(&mut rng, 18, 5, 3).clauses() {
                cnf.add_clause(
                    clause.literals().iter().map(|l| {
                        Var((block * 18 + l.var().index()) as u32).literal(l.is_positive())
                    }),
                );
            }
        }
        let compiled = compiler.compile(&cnf);
        let compacted = compact(&compiled);
        let mut evidence = vec![PartialAssignment::new(n)];
        evidence.extend((0..8).map(|_| {
            let mut pa = PartialAssignment::new(n);
            for _ in 0..2 {
                pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
            }
            pa
        }));
        let refs: Vec<&PartialAssignment> = evidence.iter().collect();
        for (name, c) in [("compiled", &compiled), ("compacted", &compacted)] {
            let smoothed = smooth(c);
            let tape = EvalTape::new(&smoothed);
            let expect: Vec<u128> = evidence
                .iter()
                .map(|pa| smoothed.model_count_under_presmoothed(pa))
                .collect();
            if copies == 5 {
                assert!(expect[0] > u128::from(u64::MAX), "{name}: {}", expect[0]);
            }
            for (pa, &e) in evidence.iter().zip(&expect) {
                assert_eq!(tape.model_count_under(pa), e, "{copies} blocks, {name}");
            }
            for size in [4, 9] {
                assert_eq!(
                    tape.model_count_under_batch(&refs[..size]),
                    expect[..size],
                    "{copies} blocks, {name}, group of {size}"
                );
            }
        }
        assert_eq!(compiled.model_count(), compacted.model_count());
    }
}
