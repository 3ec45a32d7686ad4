//! Per-layer timings for the traced run. Each layer is timed from the
//! outside through its public functions — the wire codec, a depth-1
//! round trip, the server's own span trees from `Trace` frames, the
//! engine, registry, prepared tape, kernels, compiler, minimizer, and
//! the role-2/3 artifacts — on the workload's own inputs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{self, RolesInput};
use crate::load::{call, Conn, Pool};
use crate::stats::median;
use crate::Outcome;
use trl_compiler::DecisionDnnfCompiler;
use trl_engine::{Engine, PreparedCircuit, Query};
use trl_minimize::{minimize_circuit, MinimizeConfig};
use trl_nnf::LitWeights;
use trl_obs::{TraceContext, TraceSpanData};
use trl_prop::Cnf;
use trl_server::{read_response, write_request, Request, Response, DEFAULT_MAX_FRAME_LEN};

/// What the per-layer pass measures on.
pub struct LayerInput<'a> {
    /// The separate in-process engine holding the workload's artifacts.
    pub reference: &'a Engine,
    /// The workload's circuit, prepared and warm.
    pub circuit: &'a Arc<PreparedCircuit>,
    /// Its CNF.
    pub cnf: &'a Cnf,
    /// Its registry key.
    pub key: u64,
    /// CNFs timed through the compiler.
    pub compile_sample: Vec<Cnf>,
    /// CNFs whose circuits are minimized.
    pub minimize_sample: Vec<Cnf>,
    /// Inputs of the role-2/3 artifacts.
    pub roles: &'a RolesInput,
    /// Single queries traced through the server.
    pub trace_samples: usize,
}

/// Runs `f` at least `min_reps` times and until `budget` is spent (at
/// most 10 000 times), collecting what each call returns.
fn samples(min_reps: usize, budget: Duration, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || (start.elapsed() < budget && out.len() < 10_000) {
        out.push(f());
    }
    out
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The five stations a wire request passes, plus what no span claims.
const STATIONS: [&str; 5] = [
    "trace.reactor.drain_us",
    "trace.engine.queue_wait_us",
    "trace.executor.batch_us",
    "trace.kernel.sweep_us",
    "trace.server.write_us",
];

/// Self time per station of one server span tree, microseconds, and
/// the root time no station accounts for. Kernel spans count with their
/// whole subtree (pool workers run beneath the sweep).
pub fn station_times(spans: &[TraceSpanData]) -> ([f64; 5], f64) {
    let name_of: HashMap<u64, &str> = spans.iter().map(|s| (s.span_id, s.name.as_str())).collect();
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_us.entry(s.parent_id).or_default() += s.dur_us;
    }
    let mut stations = [0.0; 5];
    let mut root_us = 0.0;
    for s in spans {
        let own = s
            .dur_us
            .saturating_sub(*child_us.get(&s.span_id).unwrap_or(&0)) as f64;
        let parent = name_of.get(&s.parent_id).copied();
        match s.name.as_str() {
            "reactor.drain" => stations[0] += own,
            "engine.queue_wait" => stations[1] += own,
            "executor.batch" => stations[2] += own,
            // Nested kernel spans are already inside their parent's time.
            n if n.starts_with("kernel.") && !parent.is_some_and(|p| p.starts_with("kernel.")) => {
                stations[3] += s.dur_us as f64
            }
            n if n.starts_with("kernel.") => {}
            "server.write" => stations[4] += own,
            _ if parent.is_none() => root_us += s.dur_us as f64,
            _ => {}
        }
    }
    let unattributed = (root_us - stations.iter().sum::<f64>()).max(0.0);
    (stations, unattributed)
}

/// Measures every per-layer metric into `out`.
pub fn measure(input: LayerInput<'_>, conn: &mut Conn, pool: &Pool, out: &mut Outcome) {
    protocol(pool, out);
    wire_and_executor(&input, conn, pool, out);
    traces(&input, conn, pool, out);
    registry(&input, conn, out);
    kernels(&input, out);
    compiler(&input, out);
    minimizer(&input, out);
    roles(&input, out);
}

/// Codec cost on the workload's own frames.
fn protocol(pool: &Pool, out: &mut Outcome) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for i in 0..pool.len().min(64) {
        let (key, queries) = &pool.frames[i];
        let req = Request::PipelinedBatch {
            id: i as u64,
            key: *key,
            queries: queries.clone(),
        };
        let reps = (400_000 / pool.req[i].len().max(1)).max(2);
        let mut buf = Vec::with_capacity(pool.req[i].len());
        let t = Instant::now();
        for _ in 0..reps {
            buf.clear();
            write_request(&mut buf, &req).expect("encode");
            black_box(&buf);
        }
        enc.push(t.elapsed().as_nanos() as f64 / reps as f64);
        let t = Instant::now();
        for _ in 0..reps {
            black_box(
                read_response(&mut &pool.resp[i][..], DEFAULT_MAX_FRAME_LEN).expect("decode"),
            );
        }
        dec.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    let bytes = pool.req.iter().map(Vec::len).sum::<usize>() as f64 / pool.len() as f64;
    out.layer("server.protocol.encode_ns", median(&mut enc), "ns");
    out.layer("server.protocol.decode_ns", median(&mut dec), "ns");
    out.layer("server.protocol.bytes_per_frame", bytes, "bytes");
}

/// Depth-1 wire round trips against in-process `run_artifact_batch` on
/// the same frames.
fn wire_and_executor(input: &LayerInput<'_>, conn: &mut Conn, pool: &Pool, out: &mut Outcome) {
    let mut rtt = Vec::new();
    let mut inproc = Vec::new();
    let mut circuit_batch = Vec::new();
    let frames = pool.len().min(if input.circuit.tape().len() > 10_000 {
        16
    } else {
        128
    });
    for _ in 0..2 {
        for i in 0..frames {
            let t = Instant::now();
            let got = conn.round_trip(&pool.req[i]).expect("depth-1 round trip");
            rtt.push(us(t));
            out.check(got == pool.resp[i], "depth-1 answer", false);
            let (key, queries) = &pool.frames[i];
            let artifact = input.reference.get(*key).expect("reference artifact");
            let queries = queries.clone();
            let t = Instant::now();
            black_box(
                input
                    .reference
                    .run_artifact_batch(&artifact, queries)
                    .expect("batch"),
            );
            let took = us(t);
            inproc.push(took);
            if *key == input.key {
                circuit_batch.push(took);
            }
        }
    }
    out.layer(
        "server.wire_overhead_us",
        median(&mut rtt) - median(&mut inproc),
        "us",
    );
    out.layer("engine.executor.batch_us", median(&mut circuit_batch), "us");
}

/// Station self times from the server's span trees for single queries.
fn traces(input: &LayerInput<'_>, conn: &mut Conn, pool: &Pool, out: &mut Outcome) {
    let mut per_station: Vec<Vec<f64>> = vec![Vec::new(); STATIONS.len()];
    let mut unattributed = Vec::new();
    let mut wire = conn.stream().try_clone().expect("clone connection");
    for s in 0..input.trace_samples {
        let f = s % pool.len();
        let j = s % pool.frames[f].1.len();
        let (key, queries) = &pool.frames[f];
        let resp = call(
            &mut wire,
            &Request::Trace {
                ctx: TraceContext::generate(true),
                key: *key,
                query: queries[j].clone(),
            },
        )
        .expect("wire trace");
        let Response::Traced { answer, spans } = resp else {
            panic!("trace answered with {resp:?}");
        };
        out.check(answer == pool.answers[f][j], "traced answer", false);
        let (stations, rest) = station_times(&spans);
        for (k, v) in stations.into_iter().enumerate() {
            per_station[k].push(v);
        }
        unattributed.push(rest);
    }
    for (name, mut v) in STATIONS.iter().zip(per_station) {
        out.layer(name, median(&mut v), "us");
    }
    out.layer("trace.unattributed_us", median(&mut unattributed), "us");
}

/// Registry hit and miss cost, and the served registry's counters.
fn registry(input: &LayerInput<'_>, conn: &mut Conn, out: &mut Outcome) {
    let mut hit = samples(50, Duration::from_millis(100), || {
        let t = Instant::now();
        black_box(input.reference.compile(input.cnf));
        us(t)
    });
    let mut compile = Vec::new();
    for cnf in &input.compile_sample {
        let fresh = Engine::new(1 << 24, Some(1));
        let t = Instant::now();
        black_box(fresh.compile(cnf));
        compile.push(us(t) / 1e3);
    }
    out.layer("engine.registry.hit_us", median(&mut hit), "us");
    out.layer("engine.registry.compile_ms", median(&mut compile), "ms");
    let mut wire = conn.stream().try_clone().expect("clone connection");
    match call(&mut wire, &Request::Stats).expect("wire stats") {
        Response::Stats(s) => {
            out.layer("engine.registry.hits", s.registry.hits as f64, "count");
            out.layer("engine.registry.misses", s.registry.misses as f64, "count");
            out.layer(
                "engine.registry.evictions",
                s.registry.evictions as f64,
                "count",
            );
        }
        other => panic!("stats answered with {other:?}"),
    }
}

/// Tape build, per-node kernel cost, and layered-vs-lane sweeps.
fn kernels(input: &LayerInput<'_>, out: &mut Outcome) {
    let raw = input.circuit.raw().clone();
    let mut build = samples(2, Duration::from_millis(300), || {
        let fresh = PreparedCircuit::new(raw.clone());
        let t = Instant::now();
        fresh.warm();
        us(t) / 1e3
    });
    out.layer("engine.prepared.tape_build_ms", median(&mut build), "ms");

    let tape = input.circuit.tape();
    let n = input.cnf.num_vars();
    let mut rng = gen::stream(0x1a7e5, 9);
    let weights: Vec<LitWeights> = (0..trl_nnf::LANES)
        .map(|_| gen::weights(&mut rng, n))
        .collect();
    let wmc: Vec<Query> = weights.iter().cloned().map(Query::Wmc).collect();
    let under: Vec<Query> = (0..trl_nnf::LANES)
        .map(|_| Query::ModelCountUnder(gen::evidence(&mut rng, n, 3)))
        .collect();
    let per_node = |qs: &[Query]| {
        let mut v = samples(5, Duration::from_millis(300), || {
            let t = Instant::now();
            black_box(input.circuit.answer_batch(qs, 1));
            t.elapsed().as_nanos() as f64 / (tape.len() * qs.len()) as f64
        });
        median(&mut v)
    };
    out.layer("nnf.kernel.ns_per_node_query.wmc", per_node(&wmc), "ns");
    out.layer(
        "nnf.kernel.ns_per_node_query.count_under",
        per_node(&under),
        "ns",
    );

    let refs: Vec<&LitWeights> = weights.iter().collect();
    let mut lane = samples(5, Duration::from_millis(200), || {
        let t = Instant::now();
        black_box(tape.wmc_batch(&refs));
        us(t)
    });
    let mut layered = samples(5, Duration::from_millis(200), || {
        let t = Instant::now();
        black_box(tape.wmc_batch_layered(&refs, 2));
        us(t)
    });
    out.layer(
        "nnf.pool.layered_vs_lane",
        median(&mut lane) / median(&mut layered).max(1e-9),
        "ratio",
    );
    out.note(
        "lane_backend",
        format!("\"{}\"", tape.lane_backend().name()),
    );
    out.note("tape_nodes", tape.len().to_string());
}

/// Compile time and output size per sampled CNF, compiled twice to
/// check the sizes repeat.
fn compiler(input: &LayerInput<'_>, out: &mut Outcome) {
    let compiler = DecisionDnnfCompiler::default();
    let mut ms = Vec::new();
    let (mut nodes, mut edges, mut repeats) = (0usize, 0usize, 0usize);
    for cnf in &input.compile_sample {
        let t = Instant::now();
        let first = compiler.compile(cnf);
        ms.push(us(t) / 1e3);
        let second = compiler.compile(cnf);
        nodes += first.node_count();
        edges += first.edge_count();
        repeats += usize::from(
            first.node_count() == second.node_count() && first.edge_count() == second.edge_count(),
        );
    }
    let k = input.compile_sample.len().max(1) as f64;
    out.layer("compiler.compile_ms", median(&mut ms), "ms");
    out.layer("compiler.nodes", nodes as f64, "nodes");
    out.layer("compiler.edges", edges as f64, "edges");
    out.layer("compiler.repeat_frac", repeats as f64 / k, "ratio");
}

/// Minimization with the wire's default schedule, run twice per CNF to
/// check the result repeats.
fn minimizer(input: &LayerInput<'_>, out: &mut Outcome) {
    let cfg = MinimizeConfig::default();
    let budget_ms = cfg.time_budget.as_secs_f64() * 1e3;
    let compiler = DecisionDnnfCompiler::default();
    let (mut wall, mut ratio) = (Vec::new(), Vec::new());
    let (mut accepted, mut repeats) = (0usize, 0usize);
    for cnf in &input.minimize_sample {
        let raw = compiler.compile(cnf);
        let (_, first) = minimize_circuit(&raw, &cfg);
        let (_, second) = minimize_circuit(&raw, &cfg);
        wall.push(first.wall_us as f64 / 1e3);
        ratio.push(first.nodes_after as f64 / first.nodes_before.max(1) as f64);
        accepted += usize::from(first.accepted);
        repeats += usize::from(first.nodes_after == second.nodes_after);
    }
    let k = input.minimize_sample.len().max(1) as f64;
    let wall_ms = median(&mut wall);
    out.layer("minimize.wall_ms", wall_ms, "ms");
    out.layer("minimize.budget_ratio", wall_ms / budget_ms, "ratio");
    out.layer("minimize.nodes_ratio", median(&mut ratio), "ratio");
    out.layer("minimize.accepted", accepted as f64 / k, "ratio");
    out.layer("minimize.repeat_frac", repeats as f64 / k, "ratio");
}

/// Per-query answer time of each role-2/3 artifact kind, in process.
fn roles(input: &LayerInput<'_>, out: &mut Outcome) {
    let r = input.roles;
    let engine = input.reference;
    let (pkey, _) = engine.learn_psdd(&r.cnf, &r.data, r.alpha).expect("learn");
    let (skey, _) = engine
        .compile_space(r.num_nodes, &r.edges, r.s, r.t)
        .expect("space");
    let (xkey, _) = engine.compile_classifier(&r.cnf);
    let mut rng = gen::stream(0x201e5, 10);
    let kinds: [(&str, u64, Vec<Query>); 3] = [
        ("psdd.answer_us", pkey, gen::psdd_frame(&mut rng, r)),
        ("spaces.answer_us", skey, gen::space_frame(&mut rng, r)),
        ("xai.answer_us", xkey, gen::classifier_frame(&mut rng, r)),
    ];
    for (name, key, frame) in kinds {
        let artifact = engine.get(key).expect("role artifact");
        let mut v = samples(20, Duration::from_millis(100), || {
            let queries = frame.clone();
            let t = Instant::now();
            black_box(
                engine
                    .run_artifact_batch(&artifact, queries)
                    .expect("role batch"),
            );
            us(t) / frame.len() as f64
        });
        out.layer(name, median(&mut v), "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, dur: u64) -> TraceSpanData {
        TraceSpanData {
            span_id: id,
            parent_id: parent,
            name: name.into(),
            start_us: 0,
            dur_us: dur,
        }
    }

    #[test]
    fn stations_take_self_time_and_whole_kernel_subtrees() {
        let spans = vec![
            span(1, 99, "server.request", 100),
            span(2, 1, "reactor.drain", 10),
            span(3, 1, "engine.queue_wait", 5),
            span(4, 1, "executor.batch", 60),
            span(5, 4, "kernel.sweep.avx2", 40),
            span(6, 5, "kernel.pool.worker", 30),
            span(7, 1, "server.write", 8),
        ];
        let (s, rest) = station_times(&spans);
        assert_eq!(s, [10.0, 5.0, 20.0, 40.0, 8.0]);
        assert_eq!(rest, 100.0 - 83.0);
    }
}
