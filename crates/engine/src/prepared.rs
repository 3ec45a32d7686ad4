//! A circuit prepared for serving: smoothed and linearized lazily, once,
//! then queried many times through the evaluation kernels.
//!
//! Every counting-style query in `trl-nnf` (`model_count`, `wmc`,
//! `wmc_marginals`, `max_weight`) smooths the circuit internally — correct,
//! but wasteful when the *same* circuit answers thousands of queries: the
//! smoothing copy dominates the single numeric pass that follows it.
//! [`PreparedCircuit`] hoists that work out of the query path, and does it
//! **lazily**: a pure SAT workload never pays for smoothing at all, and the
//! first counting query triggers it exactly once. On top of the smoothed
//! circuit it builds (also once, also lazily) the [`EvalTape`] — the
//! linearized instruction tape whose scalar and lane-batched kernels are
//! the per-query hot path the executor dispatches to
//! (`BENCH_engine.json`, `BENCH_eval.json`).

use std::sync::OnceLock;

use crate::executor::{Query, QueryAnswer};
use trl_nnf::{smooth, Circuit, EvalTape, LitWeights};

/// An immutable, shareable serving artifact: the compiled circuit plus its
/// lazily materialized smoothed form and evaluation tape. Wrap it in an
/// `Arc` and hand it to any number of executor workers.
#[derive(Debug)]
pub struct PreparedCircuit {
    raw: Circuit,
    /// The smoothed circuit, materialized by the first query that needs it.
    smoothed: OnceLock<Circuit>,
    /// The linearized kernel tape over the smoothed circuit, materialized
    /// by the first counting query.
    tape: OnceLock<EvalTape>,
}

impl Clone for PreparedCircuit {
    fn clone(&self) -> Self {
        PreparedCircuit {
            raw: self.raw.clone(),
            smoothed: self.smoothed.clone(),
            tape: self.tape.clone(),
        }
    }
}

impl PreparedCircuit {
    /// Wraps a compiled circuit for serving. Cheap: smoothing and tape
    /// construction are deferred to the first query that needs them.
    pub fn new(raw: Circuit) -> Self {
        PreparedCircuit {
            raw,
            smoothed: OnceLock::new(),
            tape: OnceLock::new(),
        }
    }

    /// The circuit as compiled/loaded (not smoothed).
    pub fn raw(&self) -> &Circuit {
        &self.raw
    }

    /// The smoothed circuit the counting queries run on, smoothing it on
    /// first use.
    pub fn smoothed(&self) -> &Circuit {
        self.smoothed.get_or_init(|| smooth(&self.raw))
    }

    /// The evaluation tape the counting kernels sweep, linearizing the
    /// smoothed circuit on first use.
    pub fn tape(&self) -> &EvalTape {
        self.tape.get_or_init(|| EvalTape::new(self.smoothed()))
    }

    /// Materializes the smoothed circuit and evaluation tape now instead
    /// of on the first counting query. Benchmarks and latency-sensitive
    /// deployments call this before the measurement/serving loop so tape
    /// construction is never billed to an unlucky first query (it showed
    /// up as a millisecond-scale max-latency outlier in `BENCH_eval.json`
    /// before the bench warmed the tape).
    pub fn warm(&self) {
        self.tape();
    }

    /// Whether the smoothed circuit has been materialized yet (it stays
    /// absent for workloads — SAT — that never need smoothing).
    pub fn smoothing_materialized(&self) -> bool {
        self.smoothed.get().is_some()
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.raw.num_vars()
    }

    /// Current footprint in arena nodes: the raw circuit plus the smoothed
    /// copy and kernel tape once they materialize. Grows (once) on the
    /// first counting query; the registry therefore snapshots this at
    /// insert time rather than re-reading it at eviction.
    pub fn retained_nodes(&self) -> usize {
        self.raw.node_count()
            + self.smoothed.get().map_or(0, Circuit::node_count)
            + self.tape.get().map_or(0, EvalTape::len)
    }

    /// Answers one query. Weighted queries require weights covering the
    /// circuit's universe (checked; see [`Query::validate`]).
    pub fn answer(&self, query: &Query) -> QueryAnswer {
        query
            .validate(self.num_vars())
            .expect("query validated against this circuit");
        match query {
            Query::Sat => QueryAnswer::Sat(self.raw.sat_dnnf()),
            Query::ModelCount => QueryAnswer::ModelCount(self.tape().model_count()),
            Query::ModelCountUnder(pa) => {
                QueryAnswer::ModelCount(self.tape().model_count_under(pa))
            }
            Query::Wmc(w) => QueryAnswer::Wmc(self.tape().wmc(w)),
            Query::Marginals(w) => {
                let (wmc, marginals) = self.tape().marginals(w);
                QueryAnswer::Marginals { wmc, marginals }
            }
            Query::MaxWeight(w) => {
                QueryAnswer::MaxWeight(self.smoothed().max_weight_presmoothed(w))
            }
            // Role-2/3 queries never reach a circuit: `Query::validate`
            // only checks universes, but the executor's typed-artifact
            // dispatch ([`crate::Artifact::validate`]) rejects the kind
            // mismatch before any answer path runs.
            _ => panic!(
                "query kind {} requires a {} artifact, not a circuit",
                query.kind(),
                query.artifact_kind().name()
            ),
        }
    }

    /// Answers a group of queries in order, dispatching homogeneous
    /// counting groups to the lane-batched kernels (one tape scan per
    /// [`trl_nnf::LANES`] queries). For WMC and marginal groups,
    /// `layer_threads > 1` additionally fans each tape layer out across
    /// that many threads — worth it only for large circuits; the executor
    /// decides. Count groups ignore `layer_threads` and sweep on the
    /// calling thread. Mixed groups fall back to per-query answering;
    /// answers are bit-identical either way.
    pub fn answer_batch(&self, queries: &[Query], layer_threads: usize) -> Vec<QueryAnswer> {
        if queries.len() > 1 {
            if queries.iter().all(|q| matches!(q, Query::Wmc(_))) {
                let ws: Vec<&LitWeights> = queries
                    .iter()
                    .map(|q| match q {
                        Query::Wmc(w) => w,
                        _ => unreachable!("checked above"),
                    })
                    .collect();
                let tape = self.tape();
                let answers = if layer_threads > 1 {
                    tape.wmc_batch_layered(&ws, layer_threads)
                } else {
                    tape.wmc_batch(&ws)
                };
                return answers.into_iter().map(QueryAnswer::Wmc).collect();
            }
            if queries.iter().all(|q| matches!(q, Query::Marginals(_))) {
                let ws: Vec<&LitWeights> = queries
                    .iter()
                    .map(|q| match q {
                        Query::Marginals(w) => w,
                        _ => unreachable!("checked above"),
                    })
                    .collect();
                let tape = self.tape();
                let answers = if layer_threads > 1 {
                    tape.marginals_batch_layered(&ws, layer_threads)
                } else {
                    tape.marginals_batch(&ws)
                };
                return answers
                    .into_iter()
                    .map(|(wmc, marginals)| QueryAnswer::Marginals { wmc, marginals })
                    .collect();
            }
            if queries
                .iter()
                .all(|q| matches!(q, Query::ModelCountUnder(_)))
            {
                let pas: Vec<&trl_core::PartialAssignment> = queries
                    .iter()
                    .map(|q| match q {
                        Query::ModelCountUnder(pa) => pa,
                        _ => unreachable!("checked above"),
                    })
                    .collect();
                return self
                    .tape()
                    .model_count_under_batch(&pas)
                    .into_iter()
                    .map(QueryAnswer::ModelCount)
                    .collect();
            }
            if queries.iter().all(|q| matches!(q, Query::ModelCount)) {
                // Parameterless: one sweep answers the whole group.
                let count = self.tape().model_count();
                return vec![QueryAnswer::ModelCount(count); queries.len()];
            }
        }
        queries.iter().map(|q| self.answer(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_compiler::DecisionDnnfCompiler;
    use trl_core::PartialAssignment;
    use trl_prop::Cnf;

    #[test]
    fn answers_match_direct_queries() {
        let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let mut w = LitWeights::unit(4);
        w.set(trl_core::Var(1).positive(), 0.4);
        w.set(trl_core::Var(1).negative(), 0.6);
        let p = PreparedCircuit::new(c.clone());

        assert_eq!(p.answer(&Query::Sat), QueryAnswer::Sat(true));
        assert_eq!(
            p.answer(&Query::ModelCount),
            QueryAnswer::ModelCount(c.model_count())
        );
        assert_eq!(
            p.answer(&Query::Wmc(w.clone())),
            QueryAnswer::Wmc(c.wmc(&w))
        );
        let (wmc, marginals) = c.wmc_marginals(&w);
        assert_eq!(
            p.answer(&Query::Marginals(w.clone())),
            QueryAnswer::Marginals { wmc, marginals }
        );
        assert_eq!(
            p.answer(&Query::MaxWeight(w.clone())),
            QueryAnswer::MaxWeight(c.max_weight(&w))
        );
        let mut pa = PartialAssignment::new(4);
        pa.assign(trl_core::Var(0).positive());
        assert_eq!(
            p.answer(&Query::ModelCountUnder(pa.clone())),
            QueryAnswer::ModelCount(c.model_count_under(&pa))
        );
    }

    #[test]
    fn smoothing_is_lazy_until_a_counting_query() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let p = PreparedCircuit::new(c.clone());
        assert!(!p.smoothing_materialized());
        assert_eq!(p.retained_nodes(), p.raw().node_count());

        // Warming materializes everything eagerly.
        let warmed = PreparedCircuit::new(c.clone());
        warmed.warm();
        assert!(warmed.smoothing_materialized());
        assert!(warmed.retained_nodes() > warmed.raw().node_count());

        // SAT never smooths.
        assert_eq!(p.answer(&Query::Sat), QueryAnswer::Sat(true));
        assert!(!p.smoothing_materialized());

        // The first counting query smooths (and builds the tape) once.
        let before = p.retained_nodes();
        assert_eq!(
            p.answer(&Query::ModelCount),
            QueryAnswer::ModelCount(c.model_count())
        );
        assert!(p.smoothing_materialized());
        assert!(p.retained_nodes() > before);
        let after = p.retained_nodes();
        p.answer(&Query::ModelCount);
        assert_eq!(p.retained_nodes(), after, "materialization happens once");
    }

    #[test]
    fn batched_answers_match_per_query_answers() {
        let cnf = Cnf::parse_dimacs("p cnf 5 4\n1 2 0\n-1 3 0\n-2 -4 0\n4 5 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let p = PreparedCircuit::new(c);
        let mut queries = Vec::new();
        for i in 0..13 {
            let mut w = LitWeights::unit(5);
            w.set(trl_core::Var(i % 5).positive(), 0.1 + 0.05 * i as f64);
            queries.push(Query::Wmc(w));
        }
        for layer_threads in [1, 3] {
            let batched = p.answer_batch(&queries, layer_threads);
            for (q, got) in queries.iter().zip(&batched) {
                assert_eq!(*got, p.answer(q), "layer_threads={layer_threads}");
            }
        }

        // Mixed groups fall back to per-query answering.
        let mixed = vec![
            Query::Sat,
            Query::ModelCount,
            Query::Wmc(LitWeights::unit(5)),
        ];
        let batched = p.answer_batch(&mixed, 1);
        for (q, got) in mixed.iter().zip(&batched) {
            assert_eq!(*got, p.answer(q));
        }
    }
}
