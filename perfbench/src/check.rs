//! Independent answer references that never touch the compiler under
//! test: every block of a block-structured CNF is solved by brute-force
//! truth tables, and block results are combined exactly (counts, as a
//! log2 plus the value modulo 2^128) or in log space (weights). The
//! small serving circuit is the one-block case, the 600-block large
//! circuit the many-block one.

use crate::stats::{count_verdict, float_verdict, Verdict};
use trl_core::{Assignment, PartialAssignment, Var};
use trl_engine::{Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;

/// Relative tolerance, in natural-log space, for float answers: the
/// kernels and the reference sum in different orders.
const LN_TOL: f64 = 1e-9;

/// One block: a base variable and its satisfying local assignments
/// (bit `i` of a model is the value of variable `base + i`).
struct Block {
    base: usize,
    vars: usize,
    models: Vec<u32>,
}

/// Brute-force reference for a CNF whose clauses each stay inside one
/// aligned block of `block_vars` variables.
pub struct BlockRef {
    num_vars: usize,
    blocks: Vec<Block>,
}

impl BlockRef {
    /// Solves every block by truth table. Panics if a clause crosses a
    /// block boundary or a block has more than 24 variables.
    pub fn new(cnf: &Cnf, block_vars: usize) -> BlockRef {
        assert!(block_vars <= 24, "truth tables are for small blocks");
        let num_vars = cnf.num_vars();
        let num_blocks = num_vars.div_ceil(block_vars);
        let mut clauses: Vec<Vec<Vec<(usize, bool)>>> = vec![Vec::new(); num_blocks];
        for clause in cnf.clauses() {
            let lits = clause.literals();
            let b = lits[0].var().index() / block_vars;
            clauses[b].push(
                lits.iter()
                    .map(|l| {
                        assert_eq!(l.var().index() / block_vars, b, "clause crosses blocks");
                        (l.var().index() - b * block_vars, l.is_positive())
                    })
                    .collect(),
            );
        }
        let blocks = clauses
            .iter()
            .enumerate()
            .map(|(b, cs)| {
                let base = b * block_vars;
                let vars = block_vars.min(num_vars - base);
                Block {
                    base,
                    vars,
                    models: block_models(vars, cs),
                }
            })
            .collect();
        BlockRef { num_vars, blocks }
    }

    /// Total satisfying assignments, summed over blocks (for reporting).
    pub fn block_models(&self) -> usize {
        self.blocks.iter().map(|b| b.models.len()).sum()
    }

    /// The verdict for a circuit query's answer, or `None` for query
    /// kinds this reference does not cover (roles 2 and 3).
    pub fn verdict(&self, query: &Query, answer: &QueryAnswer) -> Option<Verdict> {
        let v = match (query, answer) {
            (Query::Sat, QueryAnswer::Sat(s)) => {
                let sat = self.blocks.iter().all(|b| !b.models.is_empty());
                if *s == sat {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                }
            }
            (Query::ModelCount, QueryAnswer::ModelCount(c)) => {
                let (log2, modulo) = self.count(None);
                count_verdict(*c, log2, modulo)
            }
            (Query::ModelCountUnder(pa), QueryAnswer::ModelCount(c)) => {
                let (log2, modulo) = self.count(Some(pa));
                count_verdict(*c, log2, modulo)
            }
            (Query::Wmc(w), QueryAnswer::Wmc(x)) => self.wmc_verdict(w, *x),
            (Query::Marginals(w), QueryAnswer::Marginals { wmc, marginals }) => {
                self.marginals_verdict(w, *wmc, marginals)
            }
            (Query::MaxWeight(w), QueryAnswer::MaxWeight(best)) => self.max_verdict(w, best),
            (q, _) if !matches!(q.artifact_kind(), trl_engine::ArtifactKind::Circuit) => {
                return None
            }
            _ => Verdict::Wrong,
        };
        Some(v)
    }

    /// The model count consistent with `evidence`: log2 (`None` when
    /// zero) and the value modulo 2^128.
    fn count(&self, evidence: Option<&PartialAssignment>) -> (Option<f64>, u128) {
        let mut log2 = 0.0;
        let mut modulo: u128 = 1;
        for b in &self.blocks {
            let c = b
                .models
                .iter()
                .filter(|&&m| evidence.is_none_or(|pa| consistent(b, m, pa)))
                .count() as u128;
            if c == 0 {
                return (None, 0);
            }
            log2 += (c as f64).log2();
            modulo = modulo.wrapping_mul(c);
        }
        (Some(log2), modulo)
    }

    /// Per-block WMC values.
    fn block_wmcs(&self, w: &LitWeights) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.models.iter().map(|&m| model_weight(b, m, w)).sum())
            .collect()
    }

    fn wmc_verdict(&self, w: &LitWeights, answer: f64) -> Verdict {
        let per_block = self.block_wmcs(w);
        if per_block.contains(&0.0) {
            return if answer == 0.0 {
                Verdict::Ok
            } else {
                Verdict::Wrong
            };
        }
        float_verdict(answer, per_block.iter().map(|x| x.ln()).sum(), LN_TOL)
    }

    fn marginals_verdict(&self, w: &LitWeights, wmc: f64, marginals: &[(f64, f64)]) -> Verdict {
        let per_block = self.block_wmcs(w);
        let total_ln: f64 = per_block.iter().map(|x| x.ln()).sum();
        if marginals.len() < self.num_vars {
            return Verdict::Wrong;
        }
        let v = self.wmc_verdict(w, wmc);
        if v != Verdict::Ok {
            return v;
        }
        for (b, block_total) in self.blocks.iter().zip(&per_block) {
            for i in 0..b.vars {
                for (value, got) in [
                    (true, marginals[b.base + i].0),
                    (false, marginals[b.base + i].1),
                ] {
                    let part: f64 = b
                        .models
                        .iter()
                        .filter(|&&m| (m >> i & 1 == 1) == value)
                        .map(|&m| model_weight(b, m, w))
                        .sum();
                    let verdict = if part == 0.0 {
                        if got.abs() <= 1e-12 * wmc.abs() {
                            Verdict::Ok
                        } else {
                            Verdict::Wrong
                        }
                    } else {
                        float_verdict(got, total_ln - block_total.ln() + part.ln(), LN_TOL)
                    };
                    if verdict != Verdict::Ok {
                        return verdict;
                    }
                }
            }
        }
        Verdict::Ok
    }

    fn max_verdict(&self, w: &LitWeights, best: &Option<(f64, Assignment)>) -> Verdict {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| {
                b.models
                    .iter()
                    .map(|&m| model_weight(b, m, w))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let satisfiable = self.blocks.iter().all(|b| !b.models.is_empty());
        let Some((weight, witness)) = best else {
            return if satisfiable {
                Verdict::Wrong
            } else {
                Verdict::Ok
            };
        };
        if !satisfiable {
            return Verdict::Wrong;
        }
        // The witness must be a model, and its weight the reported one.
        let mut witness_ln = 0.0;
        for b in &self.blocks {
            let local = (0..b.vars).fold(0u32, |acc, i| {
                acc | (witness.value(Var((b.base + i) as u32)) as u32) << i
            });
            if b.models.binary_search(&local).is_err() {
                return Verdict::Wrong;
            }
            witness_ln += model_weight(b, local, w).ln();
        }
        let max_ln: f64 = per_block.iter().map(|x| x.ln()).sum();
        match float_verdict(*weight, max_ln, LN_TOL) {
            Verdict::Ok if (witness_ln - max_ln).abs() <= LN_TOL => Verdict::Ok,
            Verdict::Ok => Verdict::Wrong,
            other => other,
        }
    }
}

fn consistent(b: &Block, m: u32, pa: &PartialAssignment) -> bool {
    (0..b.vars).all(|i| {
        pa.value(Var((b.base + i) as u32))
            .is_none_or(|v| v == (m >> i & 1 == 1))
    })
}

fn model_weight(b: &Block, m: u32, w: &LitWeights) -> f64 {
    (0..b.vars)
        .map(|i| w.get(Var((b.base + i) as u32).literal(m >> i & 1 == 1)))
        .product()
}

/// Satisfying assignments of one block by a bit-parallel truth table:
/// 64 assignments per word, one AND-NOT per clause and word. Returned in
/// increasing order.
fn block_models(vars: usize, clauses: &[Vec<(usize, bool)>]) -> Vec<u32> {
    // Bit j of LOW[i] is bit i of j: the value of local variable i < 6
    // across the 64 assignments sharing a word.
    const LOW: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    let total = 1u64 << vars;
    let words = total.div_ceil(64) as usize;
    let mut models = Vec::new();
    for word in 0..words {
        let value = |i: usize| -> u64 {
            if i < 6 {
                LOW[i]
            } else if (word >> (i - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            }
        };
        let mut live = if total < 64 {
            (1u64 << total) - 1
        } else {
            u64::MAX
        };
        for clause in clauses {
            let falsified = clause.iter().fold(u64::MAX, |acc, &(i, positive)| {
                acc & if positive { !value(i) } else { value(i) }
            });
            live &= !falsified;
        }
        while live != 0 {
            let j = live.trailing_zeros();
            models.push((word as u32) << 6 | j);
            live &= live - 1;
        }
    }
    models
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_models(vars: usize, clauses: &[Vec<(usize, bool)>]) -> Vec<u32> {
        (0u32..1 << vars)
            .filter(|&m| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&(i, pos)| (m >> i & 1 == 1) == pos))
            })
            .collect()
    }

    #[test]
    fn truth_table_matches_enumeration() {
        let clauses = vec![
            vec![(0, true), (7, false), (9, true)],
            vec![(1, false), (2, false), (11, true)],
            vec![(6, true), (8, true), (3, false)],
        ];
        assert_eq!(block_models(12, &clauses), slow_models(12, &clauses));
        let tiny = vec![vec![(0, true), (1, true)]];
        assert_eq!(block_models(3, &tiny), slow_models(3, &tiny));
    }

    #[test]
    fn blocks_combine_counts_and_weights() {
        // Two disjoint blocks of 2 variables: (x0 ∨ x1) ∧ (x2 ∨ x3).
        let cnf = Cnf::parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n").unwrap();
        let r = BlockRef::new(&cnf, 2);
        assert_eq!(
            r.verdict(&Query::ModelCount, &QueryAnswer::ModelCount(9)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            r.verdict(&Query::ModelCount, &QueryAnswer::ModelCount(8)),
            Some(Verdict::Wrong)
        );
        let mut w = LitWeights::unit(4);
        for v in 0..4 {
            w.set(Var(v).positive(), 0.5);
            w.set(Var(v).negative(), 0.5);
        }
        // Each block is satisfied with probability 3/4.
        assert_eq!(
            r.verdict(&Query::Wmc(w.clone()), &QueryAnswer::Wmc(0.5625)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            r.verdict(&Query::Wmc(w.clone()), &QueryAnswer::Wmc(0.0)),
            Some(Verdict::Degenerate)
        );
        let marginals = vec![(0.375, 0.1875); 4];
        assert_eq!(
            r.verdict(
                &Query::Marginals(w.clone()),
                &QueryAnswer::Marginals {
                    wmc: 0.5625,
                    marginals
                }
            ),
            Some(Verdict::Ok)
        );
        let witness = Assignment::from_values(&[true, false, true, false]);
        assert_eq!(
            r.verdict(
                &Query::MaxWeight(w),
                &QueryAnswer::MaxWeight(Some((0.0625, witness)))
            ),
            Some(Verdict::Ok)
        );
        assert_eq!(
            r.verdict(&Query::ClassifierBias(vec![]), &QueryAnswer::Bias(false)),
            None
        );
    }
}
