//! The three workloads. Each builds its inputs from the seed, answers
//! every frame on a separate in-process reference engine, and then runs
//! in rounds: each round sets up an in-process `trl-server` over
//! loopback and measures its share of the window on it. Each figure is
//! what the best quarter of the rounds reach; the last round's server
//! serves the traced run's extra passes.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check::BlockRef;
use crate::gen;
use crate::layers::{self, LayerInput};
use crate::load::{self, call, closed_loop, connect_all, open_loop, Conn, Limit, Pool, Window};
use crate::stats::{best_quarter, median, nearest_rank, Figures, Tally, Verdict};
use crate::{Args, Outcome};
use trl_engine::{Engine, PreparedCircuit, Query, QueryAnswer};
use trl_prop::Cnf;
use trl_server::{Request, Response, Server, ServerConfig, ServerHandle};

/// Registry node budget for the served and the reference engine.
const BUDGET: usize = 1 << 24;
/// Load connections (and, with the build thread, generator threads).
const CONNECTIONS: usize = 2;
/// Length of the read loops `build_mix` repeats until a round's builds
/// have returned.
const READ_CHUNK: Duration = Duration::from_millis(100);
/// Rounds of a serving workload that also optimize a fresh circuit over
/// the wire after their measured segment, giving `optimize_p50_ms` its
/// samples (each takes the 1 s minimize budget plus its overrun).
const SERVE_OPTIMIZES: usize = 9;

/// `serve_small`: frames in the pool (deep enough that an open-loop
/// backlog of half a second never reuses a frame id still in flight),
/// rounds per run, closed-loop depth per connection, frames of warm-up
/// per set-up, and the phase-A share of each round's measured segment.
const SMALL_POOL: usize = 2048;
const SMALL_ROUNDS: usize = 25;
const SMALL_DEPTH: usize = 4;
const SMALL_WARM: u64 = 512;
const PHASE_A_SHARE: f64 = 0.4;
/// Phase B's offered load, frames per second (8 queries each): a ninth
/// to a fifth of phase A's throughput on a 2-CPU shared host, low
/// enough that the host's swings in speed do not push the open loop
/// into a growing queue.
pub const OFFERED_FRAMES_PER_S: f64 = 4000.0;

/// `serve_large`: pool, rounds (more than `SERVE_OPTIMIZES`), depth,
/// warm-up frames.
const LARGE_POOL: usize = 32;
const LARGE_ROUNDS: usize = 20;
const LARGE_DEPTH: usize = 2;
const LARGE_WARM: u64 = 4;

/// `build_mix`: corpus slots generated, optimized builds whose sizes are
/// summed into `artifact_nodes` (always built, even past the deadline),
/// rounds, read depth, and read frames of warm-up. Every second build
/// (the even slots) is optimized: an `Optimize` takes the 1 s minimize
/// budget and more, so optimizing every build would leave a run about
/// 25 samples of the time to first answer, too few for a steady median
/// on a shared 2-CPU host.
const BUILD_CORPUS: usize = 64;
const BUILD_SUMMED: usize = 12;
const BUILD_ROUNDS: usize = 10;
const BUILD_DEPTH: usize = 4;
const BUILD_WARM: u64 = 512;

fn bind() -> ServerHandle {
    let engine = Arc::new(Engine::new(BUDGET, None));
    // A queue far above the offered load: the measured phases must not
    // shed frames, and shed frames would count as failures.
    let config = ServerConfig {
        queue_capacity: 1 << 16,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, config).expect("bind the benchmark server")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The workload's own circuit on the reference engine.
struct Circuit {
    cnf: Cnf,
    key: u64,
    prepared: Arc<PreparedCircuit>,
    count: QueryAnswer,
}

fn reference_circuit(reference: &Engine, cnf: Cnf) -> Circuit {
    let (key, prepared) = reference.compile(&cnf);
    prepared.warm();
    let count = prepared.answer(&Query::ModelCount);
    Circuit {
        cnf,
        key,
        prepared,
        count,
    }
}

/// Compiles `c` over the wire and asks for its model count: the
/// time-to-first-answer path. Returns the served circuit's node count.
fn compile_and_count(conn: &mut TcpStream, c: &Circuit, out: &mut Outcome) -> u32 {
    let (key, nodes) = (c.key, c.prepared.raw().node_count());
    let compiled = call(conn, &Request::Compile(c.cnf.clone())).expect("wire compile");
    let Response::Compiled {
        key: got,
        nodes: got_nodes,
        ..
    } = compiled
    else {
        panic!("compile answered with {compiled:?}");
    };
    out.check(
        got == key && got_nodes as usize == nodes,
        "compiled summary",
        false,
    );
    let answer = call(
        conn,
        &Request::Query {
            key,
            query: Query::ModelCount,
        },
    )
    .expect("wire query");
    out.check(
        answer == Response::Answer(c.count.clone()),
        "first answer",
        false,
    );
    got_nodes
}

/// Optimizes `key` over the wire; returns (round trip ms, nodes after).
fn optimize(conn: &mut TcpStream, key: u64, nodes: u32, out: &mut Outcome) -> (f64, u32) {
    let t = Instant::now();
    let resp = call(conn, &Request::Optimize { key }).expect("wire optimize");
    let round_trip = ms(t);
    let Response::Optimized {
        key: got,
        nodes_before,
        nodes_after,
        ..
    } = resp
    else {
        panic!("optimize answered with {resp:?}");
    };
    out.check(
        got == key && nodes_before == nodes && nodes_after <= nodes_before,
        "optimize summary",
        false,
    );
    (round_trip, nodes_after)
}

fn stream_of(conn: &Conn) -> TcpStream {
    conn.stream().try_clone().expect("clone connection")
}

/// Runs the traced run's extra phases: an untraced and a fully traced
/// closed loop of equal length (the tracing overhead), then the
/// per-layer timings. `lags_us` are the measured phases' send lags.
fn traced_extras(
    args: &Args,
    conns: &mut [Conn],
    pool: &Pool,
    depth: usize,
    input: LayerInput<'_>,
    lags_us: &[f64],
    out: &mut Outcome,
) {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let untraced = closed_loop(conns, pool, depth, Limit::Time(quarter));
    out.absorb(&untraced);
    trl_obs::set_trace_sampling(1.0);
    let traced = closed_loop(conns, pool, depth, Limit::Time(quarter));
    trl_obs::set_trace_sampling(0.0);
    out.absorb(&traced);
    out.layer(
        "trace.qps_overhead",
        1.0 - traced.qps() / untraced.qps().max(1e-9),
        "ratio",
    );
    out.layer(
        "loadgen.lag_p99_us",
        nearest_rank(&mut lags_us.to_vec(), 0.99),
        "us",
    );
    layers::measure(input, &mut conns[0], pool, out);
}

/// Window length: the whole `--seconds` in an untraced run, half of it
/// in a traced run (whose other half runs the tracing-overhead loops).
fn window_secs(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// What a serving workload serves and how it drives it.
struct ServeSpec<'a> {
    reference: &'a Engine,
    circuit: &'a Circuit,
    pool: &'a Pool,
    oracle: &'a BlockRef,
    roles: &'a gen::RolesInput,
    /// Keys of the role artifacts, when the workload serves them.
    role_keys: Option<[u64; 3]>,
    /// Rounds per run; each sets up a fresh server and measures an equal
    /// share of the window on it.
    rounds: usize,
    /// The circuit whose `Optimize` round trip is sampled: compiled (if it
    /// is not the served circuit) and optimized over the wire by
    /// `optimizes` rounds spread evenly over the run, each after its
    /// measured segment. The last round, whose server the traced run goes
    /// on using, never optimizes.
    optimized: &'a Circuit,
    optimizes: usize,
    depth: usize,
    warm: u64,
    /// An open-loop phase B at this many frames per second after a
    /// closed-loop phase A; closed loop throughout when `None`.
    open_rate: Option<f64>,
    trace_samples: usize,
}

/// Whether `round` of `rounds` is one of the `optimizes` rounds that
/// optimize: exactly that many, spread evenly, the first among them.
fn optimizes_in(round: usize, optimizes: usize, rounds: usize) -> bool {
    round * optimizes % rounds < optimizes
}

/// Serves `spec` in rounds spread over the whole window: each round sets
/// up a fresh server (timing `setup_s` and the time to first answer),
/// measures its share of the window on it, and optionally optimizes.
/// Every figure is taken per round and reported by [`best_quarter`], so
/// the host's swings in speed over the run are sampled evenly instead of
/// in one stretch, and stretches of contention do not set the figure.
fn serve(args: &Args, out: &mut Outcome, spec: ServeSpec<'_>) {
    assert!(
        !optimizes_in(spec.rounds - 1, spec.optimizes, spec.rounds),
        "the last round stays unoptimized"
    );
    let (circuit, pool) = (spec.circuit, spec.pool);
    let segment = window_secs(args) / spec.rounds as f64;
    let mut setups = Vec::new();
    let mut ttfa = Vec::new();
    let mut optimize_ms = Vec::new();
    let mut nodes_after = Vec::new();
    let mut figures = Vec::new();
    let mut lags_us = Vec::new();
    let (mut throughput_frames, mut latency_frames, mut latency_s) = (0, 0, 0.0);
    let mut role_nodes = 0;
    let mut served_nodes = 0;
    let mut live = None;
    for round in 0..spec.rounds {
        let t0 = Instant::now();
        let handle = bind();
        let mut conns = connect_all(handle.addr(), CONNECTIONS, pool.len());
        let mut wire = stream_of(&conns[0]);
        let t = Instant::now();
        let served = compile_and_count(&mut wire, circuit, out);
        ttfa.push(ms(t));
        served_nodes = served;
        if let Some(keys) = spec.role_keys {
            role_nodes = build_roles(&mut wire, spec.roles, keys, out);
        }
        let warm = closed_loop(&mut conns, pool, spec.depth, Limit::Frames(spec.warm));
        out.absorb(&warm);
        setups.push(secs(t0));

        let (throughput, latency) = match spec.open_rate {
            Some(rate) => {
                let a = Duration::from_secs_f64(segment * PHASE_A_SHARE);
                let phase_a = closed_loop(&mut conns, pool, spec.depth, Limit::Time(a));
                out.absorb(&phase_a);
                let b = Duration::from_secs_f64(segment * (1.0 - PHASE_A_SHARE));
                let phase_b = open_loop(&mut conns, pool, rate, b);
                out.absorb(&phase_b);
                (phase_a, Some(phase_b))
            }
            None => {
                let d = Duration::from_secs_f64(segment);
                let window = closed_loop(&mut conns, pool, spec.depth, Limit::Time(d));
                out.absorb(&window);
                (window, None)
            }
        };
        let latency = latency.as_ref().unwrap_or(&throughput);
        figures.push(Figures {
            qps: throughput.qps(),
            ..latency.figures()
        });
        lags_us.extend_from_slice(&latency.lags_us);
        throughput_frames += throughput.frames;
        latency_frames += latency.latencies_us.len();
        latency_s += latency.elapsed_s;

        if optimizes_in(round, spec.optimizes, spec.rounds) {
            let target = spec.optimized;
            let nodes = if target.key == circuit.key {
                served
            } else {
                compile_and_count(&mut wire, target, out)
            };
            let (round_trip, after) = optimize(&mut wire, target.key, nodes, out);
            optimize_ms.push(round_trip);
            nodes_after.push(after);
        }
        if round + 1 < spec.rounds {
            drop((conns, wire));
            handle.shutdown();
        } else {
            live = Some((handle, conns));
        }
    }
    let (handle, mut conns) = live.expect("set up");
    let rss_mb = crate::stats::peak_rss_mb();
    if args.trace {
        let input = LayerInput {
            reference: spec.reference,
            circuit: &circuit.prepared,
            cnf: &circuit.cnf,
            key: circuit.key,
            compile_sample: vec![circuit.cnf.clone()],
            minimize_sample: vec![circuit.cnf.clone()],
            roles: spec.roles,
            trace_samples: spec.trace_samples,
        };
        traced_extras(args, &mut conns, pool, spec.depth, input, &lags_us, out);
    }
    drop(conns);
    handle.shutdown();

    out.note("rounds", spec.rounds.to_string());
    out.note("ttfa_ms", format!("{ttfa:.1?}"));
    out.note("throughput_frames", throughput_frames.to_string());
    out.note("latency_frames", latency_frames.to_string());
    out.note(
        "latency_phase_frames_per_s",
        format!("{:.1}", latency_frames as f64 / latency_s),
    );
    out.note(
        "loadgen_lag_p99_us",
        format!("{:.1}", nearest_rank(&mut lags_us, 0.99)),
    );
    out.note(
        "oracle_block_models",
        spec.oracle.block_models().to_string(),
    );
    note_pool(out, pool);
    out.note("optimized_nodes", format!("{nodes_after:?}"));
    let mut after: Vec<f64> = nodes_after.iter().map(|&x| f64::from(x)).collect();
    out.note("peak_rss_mb", format!("{rss_mb:.1}"));
    out.e2e_shared(setups, Figures::best_of(&figures));
    out.e2e("ttfa_p50_ms", best_quarter(&mut ttfa), "ms");
    out.e2e("optimize_p50_ms", best_quarter(&mut optimize_ms), "ms");
    // Every artifact a set-up builds, the optimized one after Optimize.
    let unoptimized = if spec.optimized.key == circuit.key {
        0
    } else {
        served_nodes
    };
    out.e2e(
        "artifact_nodes",
        median(&mut after) + f64::from(unoptimized) + role_nodes as f64,
        "nodes",
    );
}

pub fn serve_small(args: &Args, out: &mut Outcome) {
    let reference = Engine::new(BUDGET, None);
    let circuit = reference_circuit(&reference, gen::small_cnf());
    let roles = gen::roles_input();
    let (pkey, _) = reference
        .learn_psdd(&roles.cnf, &roles.data, roles.alpha)
        .expect("learn the reference PSDD");
    let (skey, _) = reference
        .compile_space(roles.num_nodes, &roles.edges, roles.s, roles.t)
        .expect("compile the reference space");
    let (xkey, _) = reference.compile_classifier(&roles.cnf);
    let n = circuit.cnf.num_vars();
    let mut rng = gen::stream(args.seed, 2);
    let frames = (0..SMALL_POOL)
        .map(|f| match f % 8 {
            5 => (pkey, gen::psdd_frame(&mut rng, &roles)),
            6 => (skey, gen::space_frame(&mut rng, &roles)),
            7 => (xkey, gen::classifier_frame(&mut rng, &roles)),
            _ => (circuit.key, gen::circuit_frame(&mut rng, n)),
        })
        .collect();
    let oracle = BlockRef::new(&circuit.cnf, gen::BLOCK_VARS);
    let pool = Pool::build(&reference, frames, &oracle);
    let spec = ServeSpec {
        reference: &reference,
        circuit: &circuit,
        pool: &pool,
        oracle: &oracle,
        roles: &roles,
        role_keys: Some([pkey, skey, xkey]),
        rounds: SMALL_ROUNDS,
        optimized: &circuit,
        optimizes: SERVE_OPTIMIZES,
        depth: SMALL_DEPTH,
        warm: SMALL_WARM,
        open_rate: Some(OFFERED_FRAMES_PER_S),
        trace_samples: 64,
    };
    serve(args, out, spec);
}

/// Builds the three role artifacts over the wire; returns their summed
/// node counts.
fn build_roles(
    wire: &mut TcpStream,
    roles: &gen::RolesInput,
    keys: [u64; 3],
    out: &mut Outcome,
) -> u64 {
    let learned = call(
        wire,
        &Request::LearnPsdd {
            cnf: roles.cnf.clone(),
            alpha: roles.alpha,
            data: roles.data.clone(),
        },
    )
    .expect("wire learn");
    let space = call(
        wire,
        &Request::CompileSpace {
            num_nodes: roles.num_nodes as u32,
            edges: roles.edges.clone(),
            s: roles.s,
            t: roles.t,
        },
    )
    .expect("wire space");
    let classifier =
        call(wire, &Request::CompileClassifier(roles.cnf.clone())).expect("wire classifier");
    match (learned, space, classifier) {
        (
            Response::Learned {
                key: a, nodes: na, ..
            },
            Response::SpaceCompiled {
                key: b, nodes: nb, ..
            },
            Response::ClassifierCompiled {
                key: c, nodes: nc, ..
            },
        ) => {
            out.check([a, b, c] == keys, "role artifact keys", false);
            u64::from(na) + u64::from(nb) + u64::from(nc)
        }
        other => panic!("role builds answered with {other:?}"),
    }
}

pub fn serve_large(args: &Args, out: &mut Outcome) {
    let reference = Engine::new(BUDGET, None);
    let circuit = reference_circuit(&reference, gen::large_cnf(args.seed));
    let n = circuit.cnf.num_vars();
    let mut rng = gen::stream(args.seed, 2);
    let frames = (0..LARGE_POOL)
        .map(|_| (circuit.key, gen::large_frame(&mut rng, n)))
        .collect();
    let oracle = BlockRef::new(&circuit.cnf, gen::BLOCK_VARS);
    let pool = Pool::build(&reference, frames, &oracle);
    let roles = gen::roles_input();
    // Minimizing the large circuit overruns the 1 s budget by 2-3 s, in
    // two modes that depend on host speed, so its round trip is no
    // steady metric; the traced run times it as `minimize.wall_ms`.
    // Every workload reports every end-to-end metric, so this one's
    // `optimize_p50_ms` repeats `serve_small`'s measurement: the small
    // circuit's round trip, which nothing on this workload's path moves.
    let small = reference_circuit(&reference, gen::small_cnf());
    let spec = ServeSpec {
        reference: &reference,
        circuit: &circuit,
        pool: &pool,
        oracle: &oracle,
        roles: &roles,
        role_keys: None,
        rounds: LARGE_ROUNDS,
        optimized: &small,
        optimizes: SERVE_OPTIMIZES,
        depth: LARGE_DEPTH,
        warm: LARGE_WARM,
        open_rate: None,
        trace_samples: 16,
    };
    serve(args, out, spec);
}

/// What the build connection measured.
#[derive(Default)]
struct BuildLog {
    /// The next corpus slot to build.
    next: usize,
    ttfa_ms: Vec<f64>,
    optimize_ms: Vec<f64>,
    nodes_after: Vec<u32>,
    tally: Tally,
    problems: Vec<String>,
}

/// Builds corpus slots from `log.next` on until `deadline`, and past it
/// until `summed` builds have been optimized. Even slots are optimized.
fn run_builds(
    conn: &mut TcpStream,
    corpus: &[Circuit],
    deadline: Instant,
    summed: usize,
    log: &mut BuildLog,
) {
    let mut scratch = Outcome::default();
    while let Some(b) = corpus.get(log.next) {
        if Instant::now() >= deadline && log.nodes_after.len() >= summed {
            break;
        }
        let slot = log.next;
        log.next += 1;
        let t = Instant::now();
        let nodes = compile_and_count(conn, b, &mut scratch);
        log.ttfa_ms.push(ms(t));
        if slot % 2 == 1 {
            continue;
        }
        let (round_trip, after) = optimize(conn, b.key, nodes, &mut scratch);
        log.optimize_ms.push(round_trip);
        log.nodes_after.push(after);
    }
    log.tally.merge(&scratch.tally);
    log.problems.extend(scratch.problems);
}

/// `build_mix` runs in rounds like the serving workloads: each round sets
/// up a fresh server, then builds the next corpus slots on one connection
/// for its share of the window while the other connection reads. The
/// reads go on until the round's last build has returned, so every build
/// is timed under the same read load; a round that runs over shortens
/// the rounds after it, so the rounds together last about the window.
pub fn build_mix(args: &Args, out: &mut Outcome) {
    let reference = Engine::new(BUDGET, None);
    let circuit = reference_circuit(&reference, gen::small_cnf());
    let n = circuit.cnf.num_vars();
    let mut rng = gen::stream(args.seed, 2);
    let frames = (0..SMALL_POOL)
        .map(|_| (circuit.key, gen::circuit_frame(&mut rng, n)))
        .collect();
    let oracle = BlockRef::new(&circuit.cnf, gen::BLOCK_VARS);
    let pool = Pool::build(&reference, frames, &oracle);
    let roles = gen::roles_input();

    let corpus: Vec<Circuit> = gen::corpus(args.seed, BUILD_CORPUS)
        .into_iter()
        .map(|cnf| reference_circuit(&reference, cnf))
        .collect();

    let span = window_secs(args);
    let mut measured = 0.0;
    let mut setups = Vec::new();
    let mut figures = Vec::new();
    let mut lags_us = Vec::new();
    let mut read_frames = 0;
    let mut log = BuildLog::default();
    let mut live = None;
    for round in 0..BUILD_ROUNDS {
        let t0 = Instant::now();
        let handle = bind();
        let mut build_conn = TcpStream::connect(handle.addr()).expect("connect");
        build_conn.set_nodelay(true).expect("nodelay");
        let mut read = [Conn::connect(handle.addr(), 0)];
        compile_and_count(&mut build_conn, &circuit, out);
        let warm = closed_loop(&mut read, &pool, BUILD_DEPTH, Limit::Frames(BUILD_WARM));
        out.absorb(&warm);
        setups.push(secs(t0));

        let last = round + 1 == BUILD_ROUNDS;
        let summed = if last { BUILD_SUMMED } else { 0 };
        let left = (span - measured).max(0.0) / (BUILD_ROUNDS - round) as f64;
        let deadline = Instant::now() + Duration::from_secs_f64(left);
        let building = AtomicBool::new(true);
        let mut window = Window::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                run_builds(&mut build_conn, &corpus, deadline, summed, &mut log);
                building.store(false, Ordering::Release);
            });
            while building.load(Ordering::Acquire) {
                let chunk = closed_loop(&mut read, &pool, BUILD_DEPTH, Limit::Time(READ_CHUNK));
                window.append(chunk);
            }
        });
        measured += window.elapsed_s;
        out.absorb(&window);
        figures.push(window.figures());
        lags_us.extend_from_slice(&window.lags_us);
        read_frames += window.latencies_us.len();
        if last {
            live = Some((handle, read, build_conn));
        } else {
            drop((read, build_conn));
            handle.shutdown();
        }
    }
    let (handle, mut read, build_conn) = live.expect("set up");
    let rss_mb = crate::stats::peak_rss_mb();
    out.tally.merge(&log.tally);
    for p in std::mem::take(&mut log.problems) {
        load::note(&mut out.problems, p);
    }
    if args.trace {
        let input = LayerInput {
            reference: &reference,
            circuit: &circuit.prepared,
            cnf: &circuit.cnf,
            key: circuit.key,
            compile_sample: corpus.iter().take(4).map(|b| b.cnf.clone()).collect(),
            minimize_sample: corpus.iter().take(2).map(|b| b.cnf.clone()).collect(),
            roles: &roles,
            trace_samples: 64,
        };
        traced_extras(args, &mut read, &pool, BUILD_DEPTH, input, &lags_us, out);
    }
    drop(read);
    drop(build_conn);
    handle.shutdown();

    let summed: u64 = log
        .nodes_after
        .iter()
        .take(BUILD_SUMMED)
        .map(|&x| u64::from(x))
        .sum();
    let compiled: usize = corpus
        .iter()
        .step_by(2)
        .take(BUILD_SUMMED)
        .map(|b| b.prepared.raw().node_count())
        .sum();
    out.note("builds", log.ttfa_ms.len().to_string());
    out.note("ttfa_ms", format!("{:.1?}", log.ttfa_ms));
    out.note("compiled_nodes_summed", compiled.to_string());
    out.note("optimized_nodes", format!("{:?}", log.nodes_after));
    out.note("rounds", BUILD_ROUNDS.to_string());
    out.note("latency_frames", read_frames.to_string());
    note_pool(out, &pool);
    out.note("peak_rss_mb", format!("{rss_mb:.1}"));
    out.e2e_shared(setups, Figures::best_of(&figures));
    // Rounds differ in which builds they ran (a chained build takes a
    // fifth of a banded one's time), so per-round figures would follow
    // the draw: the build times are medians over all of the run's builds.
    out.e2e("ttfa_p50_ms", median(&mut log.ttfa_ms), "ms");
    out.e2e("optimize_p50_ms", median(&mut log.optimize_ms), "ms");
    out.e2e("artifact_nodes", summed as f64, "nodes");
}

/// Records how one pass over the frame pool grades against the
/// independent reference: the per-run defect rates in miniature.
fn note_pool(out: &mut Outcome, pool: &Pool) {
    let mut once = Tally::default();
    pool.tally.iter().for_each(|t| once.merge(t));
    out.note(
        "pool_verdicts",
        format!(
            "{{\"answers\": {}, \"floats\": {}, \"wrapped\": {}, \"degenerate\": {}, \"wrong\": {}}}",
            once.attempted, once.float_answers, once.wrapped, once.degenerate, once.wrong
        ),
    );
}

impl Outcome {
    /// Records the end-to-end metrics every workload takes the same way:
    /// set-up time (one per round), closed-loop throughput and median
    /// latency (`figures`, already over rounds).
    fn e2e_shared(&mut self, mut setups: Vec<f64>, figures: Figures) {
        self.e2e("setup_s", best_quarter(&mut setups), "s");
        self.e2e("qps", figures.qps, "queries/s");
        self.e2e("p50_us", figures.p50_us, "us");
        // Recorded, not gated: on a shared 2-CPU host the tail is set by
        // how often the hypervisor stalls a vCPU, which swings several-fold
        // between runs of one seed (p95 once spread 0.81 of its median
        // over ten runs).
        self.note("p95_us", format!("{}", figures.p95_us));
        self.note("p99_us", format!("{}", figures.p99_us));
    }

    /// Counts one wire operation as correct or not.
    pub fn check(&mut self, ok: bool, what: &str, float: bool) {
        let verdict = if ok {
            Verdict::Ok
        } else {
            Verdict::EngineMismatch
        };
        self.tally.record(verdict, float, 1);
        if !ok {
            load::note(
                &mut self.problems,
                format!("{what} differs from the reference engine"),
            );
        }
    }

    /// Folds a measured phase's grading into the run's.
    pub fn absorb(&mut self, w: &Window) {
        self.tally.merge(&w.tally);
        for p in &w.problems {
            load::note(&mut self.problems, p.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizing_rounds_are_counted_spread_and_spare_the_last() {
        for rounds in [SMALL_ROUNDS, LARGE_ROUNDS] {
            let picked: Vec<usize> = (0..rounds)
                .filter(|&r| optimizes_in(r, SERVE_OPTIMIZES, rounds))
                .collect();
            assert_eq!(picked.len(), SERVE_OPTIMIZES);
            assert_eq!(picked[0], 0);
            assert!(*picked.last().unwrap() < rounds - 1);
            // No two picked rounds further apart than an even spread allows.
            let gap = rounds.div_ceil(SERVE_OPTIMIZES);
            assert!(picked.windows(2).all(|w| w[1] - w[0] <= gap));
        }
    }
}
