//! Polytime queries on tractable NNF circuits.
//!
//! The table of §3: decomposability buys linear-time SAT; adding determinism
//! (and smoothness) buys linear-time model counting and weighted model
//! counting (Fig. 8), most-probable-explanation values, and — via one extra
//! derivative pass — *all* literal marginals at once \[23, 25\].
//!
//! Preconditions are the caller's responsibility and documented per query;
//! the compilers guarantee them by construction, and the `properties` module
//! can verify them for test-sized circuits.

use crate::circuit::{Circuit, NnfId, NnfNode};
use crate::properties::smooth;
use trl_core::{Assignment, Lit, PartialAssignment, Var};

/// Literal weights for weighted model counting: `W(x)` and `W(¬x)` per
/// variable. `#SAT` is the special case where every weight is 1 (§2.1).
/// Equality is bitwise per weight (IEEE semantics via `f64 == f64`), which
/// is what wire-protocol round-trip checks want.
#[derive(Clone, Debug, PartialEq)]
pub struct LitWeights {
    pos: Vec<f64>,
    neg: Vec<f64>,
}

impl LitWeights {
    /// Unit weights over `n` variables (WMC = model count).
    pub fn unit(n: usize) -> Self {
        LitWeights {
            pos: vec![1.0; n],
            neg: vec![1.0; n],
        }
    }

    /// Sets the weight of one literal.
    pub fn set(&mut self, lit: Lit, w: f64) {
        let i = lit.var().index();
        if lit.is_positive() {
            self.pos[i] = w;
        } else {
            self.neg[i] = w;
        }
    }

    /// The weight of a literal.
    pub fn get(&self, lit: Lit) -> f64 {
        let i = lit.var().index();
        if lit.is_positive() {
            self.pos[i]
        } else {
            self.neg[i]
        }
    }

    /// Number of variables covered.
    pub fn num_vars(&self) -> usize {
        self.pos.len()
    }

    /// The weight of a complete assignment: the product of its literal
    /// weights (`W(x) = W(x_1)⋯W(x_n)`, §2.1).
    pub fn weight_of(&self, a: &Assignment) -> f64 {
        (0..a.len())
            .map(|i| self.get(a.literal_of(Var(i as u32))))
            .product()
    }
}

impl Circuit {
    /// Linear-time satisfiability on a **decomposable** circuit (DNNF) \[22\].
    pub fn sat_dnnf(&self) -> bool {
        let mut sat = vec![false; self.node_count()];
        for id in self.ids() {
            sat[id.index()] = match self.node(id) {
                NnfNode::True | NnfNode::Lit(_) => true,
                NnfNode::False => false,
                NnfNode::And(xs) => xs.iter().all(|x| sat[x.index()]),
                NnfNode::Or(xs) => xs.iter().any(|x| sat[x.index()]),
            };
        }
        sat[self.root().index()]
    }

    /// Model count over `0..num_vars` on a **decomposable, deterministic**
    /// circuit. Smooths internally (Fig. 8's propagation then applies
    /// verbatim: literals and `⊤` count 1, `⊥` counts 0, and-gates multiply,
    /// or-gates sum).
    pub fn model_count(&self) -> u128 {
        smooth(self).model_count_presmoothed()
    }

    /// Model count assuming the circuit is **already smooth** with the root
    /// covering the full universe — one bottom-up pass, no copies. The
    /// batched query executor (`trl-engine`) smooths once per circuit and
    /// serves every count in a batch through this entry point. Counts at or
    /// above 2^128 wrap modulo 2^128, in every build profile.
    pub fn model_count_presmoothed(&self) -> u128 {
        let mut val = vec![0u128; self.node_count()];
        for id in self.ids() {
            val[id.index()] = match self.node(id) {
                NnfNode::True | NnfNode::Lit(_) => 1,
                NnfNode::False => 0,
                NnfNode::And(xs) => xs.iter().fold(1, |a, x| a.wrapping_mul(val[x.index()])),
                NnfNode::Or(xs) => xs.iter().fold(0, |a, x| a.wrapping_add(val[x.index()])),
            };
        }
        val[self.root().index()]
    }

    /// Model count under evidence: the number of models (over the full
    /// universe) consistent with the given partial assignment. Requires
    /// decomposability and determinism; smooths internally. This is WMC
    /// with 0/1 weights, kept in exact `u128` arithmetic (wrapping modulo
    /// 2^128, as [`Circuit::model_count_presmoothed`]).
    pub fn model_count_under(&self, pa: &PartialAssignment) -> u128 {
        smooth(self).model_count_under_presmoothed(pa)
    }

    /// [`Circuit::model_count_under`] assuming the circuit is **already
    /// smooth** with the root covering the full universe — one bottom-up
    /// pass, no copies. Evidence literals decided against by `pa` count 0;
    /// everything else counts 1.
    pub fn model_count_under_presmoothed(&self, pa: &PartialAssignment) -> u128 {
        debug_assert!(pa.len() >= self.num_vars());
        let mut val = vec![0u128; self.node_count()];
        for id in self.ids() {
            val[id.index()] = match self.node(id) {
                NnfNode::True => 1,
                NnfNode::False => 0,
                NnfNode::Lit(l) => (pa.eval(*l) != Some(false)) as u128,
                NnfNode::And(xs) => xs.iter().fold(1, |a, x| a.wrapping_mul(val[x.index()])),
                NnfNode::Or(xs) => xs.iter().fold(0, |a, x| a.wrapping_add(val[x.index()])),
            };
        }
        val[self.root().index()]
    }

    /// Weighted model count on a **decomposable, deterministic** circuit
    /// (smooths internally).
    pub fn wmc(&self, w: &LitWeights) -> f64 {
        let s = smooth(self);
        s.wmc_presmoothed(w)
    }

    /// Weighted model count assuming the circuit is **already smooth** with
    /// the root covering the full universe — one bottom-up pass, no copies.
    /// This is the inner loop of the repeated-query benchmarks.
    pub fn wmc_presmoothed(&self, w: &LitWeights) -> f64 {
        debug_assert!(w.num_vars() >= self.num_vars());
        let mut val = vec![0.0f64; self.node_count()];
        for id in self.ids() {
            val[id.index()] = match self.node(id) {
                NnfNode::True => 1.0,
                NnfNode::False => 0.0,
                NnfNode::Lit(l) => w.get(*l),
                NnfNode::And(xs) => xs.iter().map(|x| val[x.index()]).product(),
                NnfNode::Or(xs) => xs.iter().map(|x| val[x.index()]).sum(),
            };
        }
        val[self.root().index()]
    }

    /// Maximizer pass on a **decomposable, deterministic** circuit: the
    /// maximum over complete assignments of the assignment weight, restricted
    /// to satisfying assignments, together with one maximizing assignment
    /// (the MPE computation once weights encode probabilities).
    ///
    /// Returns `None` if the circuit is unsatisfiable.
    pub fn max_weight(&self, w: &LitWeights) -> Option<(f64, Assignment)> {
        smooth(self).max_weight_presmoothed(w)
    }

    /// [`Circuit::max_weight`] assuming the circuit is **already smooth**
    /// with the root covering the full universe — no smoothing copy.
    pub fn max_weight_presmoothed(&self, w: &LitWeights) -> Option<(f64, Assignment)> {
        let s = self;
        let n = s.num_vars();
        let mut val = vec![f64::NEG_INFINITY; s.node_count()];
        for id in s.ids() {
            val[id.index()] = match s.node(id) {
                NnfNode::True => 1.0,
                NnfNode::False => f64::NEG_INFINITY,
                NnfNode::Lit(l) => w.get(*l),
                NnfNode::And(xs) => {
                    if xs.iter().any(|x| val[x.index()] == f64::NEG_INFINITY) {
                        f64::NEG_INFINITY
                    } else {
                        xs.iter().map(|x| val[x.index()]).product()
                    }
                }
                NnfNode::Or(xs) => xs
                    .iter()
                    .map(|x| val[x.index()])
                    .fold(f64::NEG_INFINITY, f64::max),
            };
        }
        if val[s.root().index()] == f64::NEG_INFINITY {
            return None;
        }
        // Top-down argmax extraction.
        let mut a = Assignment::all_false(n);
        let mut stack = vec![s.root()];
        while let Some(id) = stack.pop() {
            match s.node(id) {
                NnfNode::Lit(l) => a.set(l.var(), l.is_positive()),
                NnfNode::And(xs) => stack.extend(xs.iter().copied()),
                NnfNode::Or(xs) => {
                    let best = xs
                        .iter()
                        .copied()
                        .max_by(|x, y| val[x.index()].total_cmp(&val[y.index()]))
                        .expect("or-gate with no inputs survived smoothing");
                    stack.push(best);
                }
                NnfNode::True | NnfNode::False => {}
            }
        }
        Some((val[s.root().index()], a))
    }

    /// One upward + one downward (derivative) pass computing the WMC
    /// **and** every literal's marginal `WMC(Δ ∧ ℓ)` simultaneously — the
    /// "all marginals in linear time" result of \[23, 25\] that §3 footnotes.
    ///
    /// Requires decomposability and determinism; smooths internally.
    /// Returns `(wmc, marginals)` where `marginals[v] = (WMC(Δ∧v), WMC(Δ∧¬v))`.
    pub fn wmc_marginals(&self, w: &LitWeights) -> (f64, Vec<(f64, f64)>) {
        smooth(self).wmc_marginals_presmoothed(w)
    }

    /// [`Circuit::wmc_marginals`] assuming the circuit is **already smooth**
    /// with the root covering the full universe — no smoothing copy.
    pub fn wmc_marginals_presmoothed(&self, w: &LitWeights) -> (f64, Vec<(f64, f64)>) {
        let s = self;
        let n = s.num_vars();
        let mut val = vec![0.0f64; s.node_count()];
        for id in s.ids() {
            val[id.index()] = match s.node(id) {
                NnfNode::True => 1.0,
                NnfNode::False => 0.0,
                NnfNode::Lit(l) => w.get(*l),
                NnfNode::And(xs) => xs.iter().map(|x| val[x.index()]).product(),
                NnfNode::Or(xs) => xs.iter().map(|x| val[x.index()]).sum(),
            };
        }
        let mut der = vec![0.0f64; s.node_count()];
        der[s.root().index()] = 1.0;
        for id in s.ids().collect::<Vec<_>>().into_iter().rev() {
            let d = der[id.index()];
            if d == 0.0 {
                continue;
            }
            match s.node(id) {
                NnfNode::Or(xs) => {
                    for x in xs {
                        der[x.index()] += d;
                    }
                }
                NnfNode::And(xs) => {
                    // ∂(∏ v_i)/∂v_j = ∏_{i≠j} v_i, computed with prefix and
                    // suffix products so zero factors are handled exactly.
                    let k = xs.len();
                    let mut prefix = vec![1.0; k + 1];
                    for (i, x) in xs.iter().enumerate() {
                        prefix[i + 1] = prefix[i] * val[x.index()];
                    }
                    let mut suffix = 1.0;
                    for i in (0..k).rev() {
                        der[xs[i].index()] += d * prefix[i] * suffix;
                        suffix *= val[xs[i].index()];
                    }
                }
                _ => {}
            }
        }
        let mut marginals = vec![(0.0, 0.0); n];
        for id in s.ids() {
            if let NnfNode::Lit(l) = s.node(id) {
                let m = w.get(*l) * der[id.index()];
                let slot = &mut marginals[l.var().index()];
                if l.is_positive() {
                    slot.0 += m;
                } else {
                    slot.1 += m;
                }
            }
        }
        (val[s.root().index()], marginals)
    }

    /// Enumerates all models over `0..num_vars` of a **decomposable,
    /// deterministic** circuit. Output size is the model count; intended for
    /// small circuits and tests.
    pub fn enumerate_models(&self) -> Vec<Assignment> {
        assert!(
            self.num_vars() <= 24,
            "model enumeration limited to 24 variables"
        );
        let s = smooth(self);
        // cubes[i]: the set of models of node i, as literal vectors over the
        // node's scope.
        let mut cubes: Vec<Vec<Vec<Lit>>> = Vec::with_capacity(s.node_count());
        for id in s.ids() {
            let c = match s.node(id) {
                NnfNode::True => vec![vec![]],
                NnfNode::False => vec![],
                NnfNode::Lit(l) => vec![vec![*l]],
                NnfNode::And(xs) => {
                    let mut acc: Vec<Vec<Lit>> = vec![vec![]];
                    for x in xs {
                        let mut next =
                            Vec::with_capacity(acc.len() * cubes[x.index()].len().max(1));
                        for base in &acc {
                            for ext in &cubes[x.index()] {
                                let mut m = base.clone();
                                m.extend_from_slice(ext);
                                next.push(m);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
                NnfNode::Or(xs) => {
                    let mut acc = Vec::new();
                    for x in xs {
                        acc.extend(cubes[x.index()].iter().cloned());
                    }
                    acc
                }
            };
            cubes.push(c);
        }
        let mut out: Vec<Assignment> = cubes[s.root().index()]
            .iter()
            .map(|lits| {
                let mut a = Assignment::all_false(s.num_vars());
                for &l in lits {
                    a.set(l.var(), l.is_positive());
                }
                a
            })
            .collect();
        out.sort_by_key(|a| {
            (0..a.len())
                .map(|i| (a.value(Var(i as u32)) as u64) << i)
                .sum::<u64>()
        });
        out.dedup();
        out
    }

    /// Minimum cardinality (number of `true` variables) over the models of a
    /// **decomposable** circuit, or `None` if unsatisfiable. Runs on the
    /// smoothed circuit so cardinality is measured over the full universe.
    pub fn min_cardinality(&self) -> Option<u64> {
        let s = smooth(self);
        const INF: u64 = u64::MAX / 4;
        let mut val = vec![INF; s.node_count()];
        for id in s.ids() {
            val[id.index()] = match s.node(id) {
                NnfNode::True => 0,
                NnfNode::False => INF,
                NnfNode::Lit(l) => l.is_positive() as u64,
                NnfNode::And(xs) => xs.iter().map(|x| val[x.index()]).sum::<u64>().min(INF),
                NnfNode::Or(xs) => xs.iter().map(|x| val[x.index()]).min().unwrap_or(INF),
            };
        }
        let v = val[s.root().index()];
        (v < INF).then_some(v)
    }
}

/// Re-exported for use in doc examples and benches: the id type.
pub type NodeId = NnfId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use trl_prop::Formula;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// The paper's running circuit (Figs. 5–9, 13): the course-prerequisite
    /// constraint (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L)) over L=0, K=1, P=2, A=3,
    /// built here directly as a decomposable + deterministic circuit shaped
    /// like the SDD of Fig. 9 (multiplexer or-gates over prime/sub pairs).
    fn figure_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(4);
        let (l, k, p, a) = (0u32, 1u32, 2u32, 3u32);
        let pos = |b: &mut CircuitBuilder, i: u32| b.lit(v(i).positive());
        let neg = |b: &mut CircuitBuilder, i: u32| b.lit(v(i).negative());

        // Decision over {L,K} (primes) with subs over {P,A}.
        // Models: see Fig. 14 — 9 satisfying inputs.
        let lk = {
            let lpos = pos(&mut b, l);
            let kpos = pos(&mut b, k);
            let lneg = neg(&mut b, l);
            let kneg = neg(&mut b, k);
            [
                b.and([lpos, kpos]),
                b.and([lpos, kneg]),
                b.and([lneg, kpos]),
                b.and([lneg, kneg]),
            ]
        };
        // Subs over {P, A}: given L,K the constraint on P,A is:
        //  L K   : P∨L true; A⇒P; K⇒(A∨L) true (L) → A⇒P
        //  L ¬K  : A⇒P
        //  ¬L K  : P ∧ A   (P∨L→P; K→A∨L→A; A⇒P ok)
        //  ¬L ¬K : P ∧ (A⇒P) = P
        let a_implies_p = {
            let ppos = pos(&mut b, p);
            let aneg = neg(&mut b, a);
            let apos = pos(&mut b, a);
            let pa = b.and([ppos, apos]);
            let na = b.and([ppos, aneg]);
            let pneg = neg(&mut b, p);
            let nn = b.and([pneg, aneg]);
            b.or([pa, na, nn])
        };
        let p_and_a = {
            let ppos = pos(&mut b, p);
            let apos = pos(&mut b, a);
            b.and([ppos, apos])
        };
        let p_only = {
            let ppos = pos(&mut b, p);
            let aneg = neg(&mut b, a);
            let apos = pos(&mut b, a);
            let x = b.and([ppos, apos]);
            let y = b.and([ppos, aneg]);
            b.or([x, y])
        };
        let e0 = b.and([lk[0], a_implies_p]);
        let e1 = b.and([lk[1], a_implies_p]);
        let e2 = b.and([lk[2], p_and_a]);
        let e3 = b.and([lk[3], p_only]);
        let root = b.or([e0, e1, e2, e3]);
        b.finish(root)
    }

    fn constraint_formula() -> Formula {
        let (l, k, p, a) = (
            Formula::var(v(0)),
            Formula::var(v(1)),
            Formula::var(v(2)),
            Formula::var(v(3)),
        );
        Formula::conj([
            p.clone().or(l.clone()),
            a.clone().implies(p.clone()),
            k.implies(a.or(l)),
        ])
    }

    #[test]
    fn figure_circuit_matches_constraint() {
        let c = figure_circuit();
        let f = constraint_formula();
        for code in 0..16u64 {
            let asg = Assignment::from_index(code, 4);
            assert_eq!(c.eval(&asg), f.eval(&asg), "at {code:04b}");
        }
        assert!(crate::properties::is_decomposable(&c));
        assert!(crate::properties::is_deterministic_exhaustive(&c));
    }

    #[test]
    fn fig8_model_count_is_nine_of_sixteen() {
        // The paper: "the circuit has 9 satisfying inputs out of 16".
        assert_eq!(figure_circuit().model_count(), 9);
    }

    #[test]
    fn sat_dnnf_on_satisfiable_and_unsat() {
        let c = figure_circuit();
        assert!(c.sat_dnnf());
        let mut b = CircuitBuilder::new(1);
        let f = b.false_();
        let c = b.finish(f);
        assert!(!c.sat_dnnf());
    }

    #[test]
    fn wmc_reduces_to_count_with_unit_weights() {
        let c = figure_circuit();
        let w = LitWeights::unit(4);
        assert_eq!(c.wmc(&w), 9.0);
    }

    #[test]
    fn wmc_matches_brute_force_on_nonuniform_weights() {
        let c = figure_circuit();
        let mut w = LitWeights::unit(4);
        w.set(v(0).positive(), 0.3);
        w.set(v(0).negative(), 0.7);
        w.set(v(2).positive(), 0.9);
        w.set(v(2).negative(), 0.1);
        let brute: f64 = (0..16u64)
            .map(|code| Assignment::from_index(code, 4))
            .filter(|a| c.eval(a))
            .map(|a| w.weight_of(&a))
            .sum();
        assert!((c.wmc(&w) - brute).abs() < 1e-12);
    }

    #[test]
    fn counting_without_smoothing_would_be_wrong() {
        // x0 ∨ (¬x0 ∧ x1): deterministic, decomposable, NOT smooth.
        // Raw propagation would give 1 + 1 = 2, but the true count is 3.
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let nx0 = b.lit(v(0).negative());
        let x1 = b.var(v(1));
        let rhs = b.and([nx0, x1]);
        let r = b.or_raw([x0, rhs]);
        let c = b.finish(r);
        assert!(!crate::properties::is_smooth(&c));
        assert_eq!(c.model_count(), 3);
    }

    #[test]
    fn max_weight_finds_best_model() {
        let c = figure_circuit();
        let mut w = LitWeights::unit(4);
        // Make ¬L,¬K,P,¬A the heaviest satisfying assignment.
        w.set(v(0).negative(), 5.0);
        w.set(v(1).negative(), 3.0);
        w.set(v(3).negative(), 2.0);
        let (val, a) = c.max_weight(&w).unwrap();
        assert!(c.eval(&a));
        let brute = (0..16u64)
            .map(|code| Assignment::from_index(code, 4))
            .filter(|x| c.eval(x))
            .map(|x| w.weight_of(&x))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((val - brute).abs() < 1e-12);
        assert!((w.weight_of(&a) - brute).abs() < 1e-12);
    }

    #[test]
    fn max_weight_none_on_unsat() {
        let mut b = CircuitBuilder::new(2);
        let f = b.false_();
        let c = b.finish(f);
        assert!(c.max_weight(&LitWeights::unit(2)).is_none());
    }

    #[test]
    fn marginals_match_conditioning() {
        let c = figure_circuit();
        let mut w = LitWeights::unit(4);
        w.set(v(1).positive(), 0.25);
        w.set(v(1).negative(), 0.75);
        let (total, marg) = c.wmc_marginals(&w);
        assert!((total - c.wmc(&w)).abs() < 1e-12);
        #[allow(clippy::needless_range_loop)] // i is a variable index into parallel tables
        for i in 0..4 {
            for (positive, got) in [(true, marg[i].0), (false, marg[i].1)] {
                let brute: f64 = (0..16u64)
                    .map(|code| Assignment::from_index(code, 4))
                    .filter(|a| c.eval(a) && a.value(v(i as u32)) == positive)
                    .map(|a| w.weight_of(&a))
                    .sum();
                assert!(
                    (got - brute).abs() < 1e-12,
                    "marginal x{i}={positive}: got {got}, brute {brute}"
                );
            }
            // Marginals of a variable's two literals sum to the total.
            assert!((marg[i].0 + marg[i].1 - total).abs() < 1e-12);
        }
    }

    #[test]
    fn presmoothed_variants_match_smoothing_entry_points() {
        let c = figure_circuit();
        let s = smooth(&c);
        let mut w = LitWeights::unit(4);
        w.set(v(0).positive(), 0.2);
        w.set(v(0).negative(), 0.8);
        w.set(v(3).positive(), 1.5);
        assert_eq!(c.model_count(), s.model_count_presmoothed());
        assert_eq!(c.wmc(&w), s.wmc_presmoothed(&w));
        let (total, marg) = c.wmc_marginals(&w);
        let (total2, marg2) = s.wmc_marginals_presmoothed(&w);
        assert_eq!(total, total2);
        assert_eq!(marg, marg2);
        let (mw, ma) = c.max_weight(&w).unwrap();
        let (mw2, ma2) = s.max_weight_presmoothed(&w).unwrap();
        assert_eq!(mw, mw2);
        assert_eq!(ma, ma2);
    }

    #[test]
    fn enumerate_models_matches_truth_table() {
        let c = figure_circuit();
        let models = c.enumerate_models();
        assert_eq!(models.len(), 9);
        let expected: Vec<Assignment> = (0..16u64)
            .map(|code| Assignment::from_index(code, 4))
            .filter(|a| c.eval(a))
            .collect();
        assert_eq!(models, expected);
    }

    #[test]
    fn min_cardinality_on_paper_circuit() {
        // The lightest valid course combination: P only (¬L,¬K,P,¬A) → 1.
        assert_eq!(figure_circuit().min_cardinality(), Some(1));
        let mut b = CircuitBuilder::new(2);
        let f = b.false_();
        assert_eq!(b.finish(f).min_cardinality(), None);
    }
}
