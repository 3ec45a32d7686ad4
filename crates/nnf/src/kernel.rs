//! Lane-batched, SIMD-dispatched, cache-ordered evaluation kernels over a
//! linearized tape.
//!
//! The polytime queries of [`crate::queries`] are linear arena sweeps — the
//! same DAG walked again and again with different leaf values. That is the
//! hot path of a compile-once/query-many deployment, and it is
//! embarrassingly regular, so this module trades the pointer-chasing
//! `NnfNode` walk for a dense instruction tape built once per circuit:
//!
//! * **[`EvalTape`]** — the reachable arena linearized into struct-of-arrays
//!   form: one op tag per node, child edges in a single CSR arc array, and
//!   literals in a parallel column. A sweep is a forward scan over
//!   contiguous slices; nothing is re-discovered per query. Within each
//!   dependency layer, slots are reordered so gates appear in the order of
//!   their first child's slot (children-contiguous CSR ordering): a layer's
//!   child reads then advance roughly monotonically through the previous
//!   layers instead of hopping across them, which keeps the sweep inside
//!   the cache lines it just filled.
//! * **Lane batching with explicit SIMD** — [`EvalTape::wmc_batch`] and
//!   friends give every node a `[f64; LANES]` value plane and answer
//!   `LANES` queries per tape scan. The per-node inner loops run on the
//!   widest [`LaneBackend`] the CPU supports — one AVX-512 register or two
//!   AVX2 registers per plane on `x86_64`, four NEON registers on
//!   `aarch64` — with the plain `[f64; 8]` scalar-lane path always
//!   compiled as the bit-identical fallback (and the only path when the
//!   `simd` cargo feature is off).
//! * **Layer scheduling on a persistent pool** — nodes are stored grouped
//!   by dependency depth (children always in strictly earlier layers), so
//!   each layer is a contiguous block that [`EvalTape::wmc_batch_layered`]
//!   fans out across the persistent [`SweepPool`]: workers claim chunks of
//!   each layer off a shared cursor (chunked work-stealing) and meet at
//!   one barrier per layer. No threads are spawned per sweep.
//! * **Counting in narrow lanes** — [`EvalTape::model_count_under_batch`]
//!   sweeps every slot whose static count bound fits in `u64` in `u64`
//!   lanes, and only the few slots above it (the top gates of a large
//!   conjunction) in wrapping `u128`, so counts keep the scalar sweep's
//!   exact mod-2^128 semantics.
//!
//! Every kernel returns answers **bit-identical** to the corresponding
//! scalar entry point in [`crate::queries`] (`wmc_presmoothed`,
//! `model_count_presmoothed`, `model_count_under_presmoothed`,
//! `wmc_marginals_presmoothed`): per node, the same floating-point
//! operations run in the same per-lane order on every backend and under
//! every schedule, and the order-sensitive derivative accumulation of the
//! marginal kernel replays the original arena order via a stored
//! permutation. `crates/nnf/tests/kernel_equiv.rs` and
//! `tests/kernel_props.rs` assert this across the crosscheck corpus, for
//! every supported backend.
//!
//! Preconditions match the `_presmoothed` queries: the circuit must be
//! decomposable, deterministic, and already smooth with the root covering
//! the full universe (`trl-engine`'s `PreparedCircuit` guarantees this).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use crate::circuit::{Circuit, NnfId, NnfNode};
use crate::pool::SweepPool;
use crate::queries::LitWeights;
use crate::simd::LaneBackend;
use trl_core::{Lit, PartialAssignment, Var};

/// Queries answered per tape scan by the lane-batched kernels. Eight `f64`
/// lanes fill one AVX-512 register, two AVX2 registers, or four NEON
/// registers; the scalar-lane fallback is written so the compiler
/// auto-vectorizes it at the baseline feature level.
pub const LANES: usize = 8;

/// Tape slots a pool worker claims per cursor fetch in the layered sweep:
/// small enough to load-balance ragged layers, large enough that the
/// atomic claim is amortized over thousands of lane operations.
const POOL_CHUNK: usize = 256;

/// Publishes one batched-kernel entry to the process metrics: one sweep
/// per lane group, plus the lanes actually filled (dead lanes excluded) —
/// the ratio is the batch's lane utilization. A few relaxed atomic adds
/// per *batch*, not per query.
fn record_sweeps(queries: usize) {
    trl_obs::counter!("kernel.sweeps").add(queries.div_ceil(LANES) as u64);
    trl_obs::counter!("kernel.lanes_filled").add(queries as u64);
}

/// Trace-span name for a batched sweep on `backend`. Span names must be
/// `&'static str` (the flight recorder stores them by pointer), so the
/// backend is baked into the name — a trace shows which lane path
/// actually ran, not just that a sweep happened.
fn sweep_span_name(backend: LaneBackend) -> &'static str {
    match backend {
        LaneBackend::Scalar => "kernel.sweep.scalar",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        LaneBackend::Avx2 => "kernel.sweep.avx2",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        LaneBackend::Avx512 => "kernel.sweep.avx512",
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        LaneBackend::Neon => "kernel.sweep.neon",
    }
}

/// One instruction tag on the tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// The constant false.
    False,
    /// The constant true.
    True,
    /// A literal leaf; the literal lives in the parallel `lits` column.
    Lit,
    /// An and-gate over a CSR edge slice.
    And,
    /// An or-gate over a CSR edge slice.
    Or,
}

/// A 64-byte-aligned backing buffer of `[f64; LANES]` value planes. A
/// plain `Vec<[f64; LANES]>` is only 8-byte aligned, so a full-width
/// register access to a plane would span two cache lines seven times out
/// of eight; aligning the first plane to a line boundary makes every
/// plane line-exact (one plane is exactly one 64-byte line).
struct PlaneBuf {
    buf: Vec<f64>,
    /// Offset (in `f64`s) of the first aligned plane.
    off: usize,
    /// Number of planes.
    len: usize,
}

impl PlaneBuf {
    fn new(len: usize) -> PlaneBuf {
        let buf = vec![0.0f64; len * LANES + LANES - 1];
        let off = buf.as_ptr().align_offset(64).min(LANES - 1);
        PlaneBuf { buf, off, len }
    }

    fn as_mut_ptr(&mut self) -> *mut [f64; LANES] {
        unsafe { self.buf.as_mut_ptr().add(self.off) as *mut [f64; LANES] }
    }

    fn planes(&self) -> &[[f64; LANES]] {
        // SAFETY: the buffer holds `len * LANES` doubles starting at
        // `off`, and `[f64; LANES]` has alignment 8 which `off` respects.
        unsafe {
            std::slice::from_raw_parts(
                self.buf.as_ptr().add(self.off) as *const [f64; LANES],
                self.len,
            )
        }
    }
}

/// A raw pointer to the value plane, shared with pool workers for the
/// duration of one layered sweep. Workers write disjoint slot ranges
/// (chunked cursor claims are unique) and a barrier separates each
/// layer's writes from the next layer's reads, so no cell is ever written
/// and read concurrently.
struct SharedPlane(*mut [f64; LANES]);

// SAFETY: disjoint writes per layer plus barrier-ordered cross-layer
// reads; see `SharedPlane`'s doc comment and `forward_lanes_pooled`.
unsafe impl Sync for SharedPlane {}

/// The reachable arena of a smooth circuit, linearized into a contiguous,
/// layer-ordered instruction tape (struct-of-arrays). Build once per
/// circuit with [`EvalTape::new`], then answer any number of counting-style
/// queries through the kernels; see the module docs for the layout.
#[derive(Clone, Debug)]
pub struct EvalTape {
    num_vars: usize,
    /// Op tag per tape slot.
    ops: Vec<Op>,
    /// Literal per tape slot; meaningful only where `ops` says `Lit`.
    lits: Vec<Lit>,
    /// CSR offsets into `edges`, one entry per tape slot plus a sentinel.
    edge_start: Vec<u32>,
    /// Child tape indices of every gate, concatenated in gate-input order.
    edges: Vec<u32>,
    /// Layer boundaries: nodes `layer_start[l]..layer_start[l+1]` form
    /// dependency layer `l`; all their children sit in earlier layers.
    layer_start: Vec<u32>,
    /// Tape indices listed in original arena order — the replay schedule
    /// for the order-sensitive derivative pass of the marginal kernel.
    arena_order: Vec<u32>,
    /// The root's tape slot (always the last slot: the root is an ancestor
    /// of every reachable node, so it alone occupies the top layer).
    root: u32,
    /// The *wide* slots of the counting sweep, ascending: those whose
    /// count under some evidence may not fit in `u64`, or that have a wide
    /// child (see [`EvalTape::count_bounds`]). Upward-closed, so when
    /// non-empty the root is its last entry; every other slot is *narrow*
    /// and counts exactly in `u64` lanes.
    wide: Vec<u32>,
    /// The SIMD backend the lane-batched sweeps dispatch to; detected at
    /// build time, overridable per tape via [`EvalTape::set_lane_backend`].
    backend: LaneBackend,
}

impl EvalTape {
    /// Linearizes the nodes reachable from the root of `circuit`.
    ///
    /// Unreachable arena nodes are dropped; the survivors are stored
    /// grouped by dependency layer with gate inputs rewritten to tape
    /// indices. Layer 0 (the leaves) keeps its arena-relative order — the
    /// marginal kernels rely on that — while every later layer is sorted
    /// by first-child slot so a layer's CSR reads walk the earlier layers
    /// roughly in storage order (cache locality; the effect shows up in
    /// the `kernel.tape_nodes`-normalized sweep times of `bench_eval`).
    pub fn new(circuit: &Circuit) -> EvalTape {
        let root = circuit.root().index();
        // Reachability: the arena is topological, so one reverse scan from
        // the root marks every reachable node.
        let mut reach = vec![false; root + 1];
        reach[root] = true;
        for i in (0..=root).rev() {
            if !reach[i] {
                continue;
            }
            if let NnfNode::And(xs) | NnfNode::Or(xs) = circuit.node(NnfId(i as u32)) {
                for x in xs {
                    reach[x.index()] = true;
                }
            }
        }

        // Dependency depth per reachable node: leaves are layer 0, gates
        // sit one past their deepest input.
        let mut level = vec![0u32; root + 1];
        let mut max_level = 0u32;
        for i in 0..=root {
            if !reach[i] {
                continue;
            }
            if let NnfNode::And(xs) | NnfNode::Or(xs) = circuit.node(NnfId(i as u32)) {
                let l = xs.iter().map(|x| level[x.index()] + 1).max().unwrap_or(0);
                level[i] = l;
                max_level = max_level.max(l);
            }
        }

        // Group members per layer in arena order (stable), then assign
        // tape slots layer by layer. Layers past the leaves are reordered
        // by (op, first-child slot) before assignment: since every child's
        // slot is already fixed (strictly earlier layer), the sort key is
        // exact. Grouping by op first turns the kernel's per-node dispatch
        // into long predictable runs; within a run the CSR reads advance
        // monotonically in the common chain/fan-out shapes.
        let layers = max_level as usize + 1;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); layers];
        for i in 0..=root {
            if reach[i] {
                members[level[i] as usize].push(i as u32);
            }
        }
        let mut layer_start = vec![0u32; layers + 1];
        for (l, m) in members.iter().enumerate() {
            layer_start[l + 1] = layer_start[l] + m.len() as u32;
        }
        let mut slot = vec![u32::MAX; root + 1];
        let mut next = 0u32;
        for (l, member) in members.iter_mut().enumerate() {
            if l > 0 {
                member.sort_by_key(|&i| match circuit.node(NnfId(i)) {
                    NnfNode::And(xs) => (0u8, xs.first().map_or(u32::MAX, |x| slot[x.index()])),
                    NnfNode::Or(xs) => (1u8, xs.first().map_or(u32::MAX, |x| slot[x.index()])),
                    _ => (2u8, u32::MAX),
                });
            }
            for &i in member.iter() {
                slot[i as usize] = next;
                next += 1;
            }
        }
        let count = next as usize;
        let mut arena_order = Vec::with_capacity(count);
        for i in 0..=root {
            if reach[i] {
                arena_order.push(slot[i]);
            }
        }

        // Fill the tape columns in tape order.
        let mut ops = vec![Op::False; count];
        let mut lits = vec![Var(0).positive(); count];
        let mut edge_start = vec![0u32; count + 1];
        let mut edges = Vec::new();
        let mut inverse = vec![0u32; count];
        for i in 0..=root {
            if reach[i] {
                inverse[slot[i] as usize] = i as u32;
            }
        }
        for t in 0..count {
            let node = circuit.node(NnfId(inverse[t]));
            edge_start[t] = edges.len() as u32;
            ops[t] = match node {
                NnfNode::False => Op::False,
                NnfNode::True => Op::True,
                NnfNode::Lit(l) => {
                    lits[t] = *l;
                    Op::Lit
                }
                NnfNode::And(xs) => {
                    edges.extend(xs.iter().map(|x| slot[x.index()]));
                    Op::And
                }
                NnfNode::Or(xs) => {
                    edges.extend(xs.iter().map(|x| slot[x.index()]));
                    Op::Or
                }
            };
        }
        edge_start[count] = edges.len() as u32;

        debug_assert_eq!(slot[root] as usize, count - 1, "root tops the tape");
        trl_obs::counter!("kernel.tape_builds").inc();
        trl_obs::counter!("kernel.tape_nodes").add(count as u64);
        let mut tape = EvalTape {
            num_vars: circuit.num_vars(),
            ops,
            lits,
            edge_start,
            edges,
            layer_start,
            arena_order,
            root: (count - 1) as u32,
            wide: Vec::new(),
            backend: LaneBackend::detect(),
        };
        tape.wide = (0..count as u32)
            .zip(tape.count_bounds())
            .filter_map(|(i, bound)| (bound == u64::MAX).then_some(i))
            .collect();
        tape
    }

    /// A structural upper bound on every slot's model count, `u64::MAX`
    /// marking the *wide* slots: `⊥` is 0, `⊤` and literals 1, and-gates
    /// multiply and or-gates add their children's bounds. Evidence only
    /// lowers leaves from 1 to 0 and both operations are monotone on the
    /// naturals, so no count under any evidence exceeds its slot's bound.
    /// Both operations saturate at `u64::MAX` and let it absorb, so a
    /// slot below it has only children below it and its bound is its
    /// exact empty-evidence count. A zero factor zeroes a product with no
    /// wide factor; the other factors are at least 1, so their running
    /// product saturates only when the exact one does not fit.
    fn count_bounds(&self) -> Vec<u64> {
        let mut bound = vec![0u64; self.len()];
        for i in 0..self.len() {
            let children = self.children(i).iter().map(|&ch| bound[ch as usize]);
            bound[i] = match self.ops[i] {
                Op::False => 0,
                Op::True | Op::Lit => 1,
                Op::And if children.clone().any(|b| b == u64::MAX) => u64::MAX,
                Op::And if children.clone().any(|b| b == 0) => 0,
                Op::And => children.fold(1, u64::saturating_mul),
                Op::Or => children.fold(0, u64::saturating_add),
            };
        }
        bound
    }

    /// Number of tape slots (reachable circuit nodes).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (never: even `⊥` occupies one slot).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of dependency layers.
    pub fn num_layers(&self) -> usize {
        self.layer_start.len() - 1
    }

    /// The variable universe size of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The [`LaneBackend`] the lane-batched sweeps currently dispatch to.
    pub fn lane_backend(&self) -> LaneBackend {
        self.backend
    }

    /// Forces the lane-batched sweeps onto `backend`. Unsupported requests
    /// fall back to [`LaneBackend::Scalar`] (always available) rather than
    /// risking an illegal instruction; answers are bit-identical either
    /// way, so this is a pure performance/testing knob — forcing `Scalar`
    /// keeps the fallback path exercised on SIMD-capable hosts.
    pub fn set_lane_backend(&mut self, backend: LaneBackend) {
        self.backend = if backend.is_supported() {
            backend
        } else {
            LaneBackend::Scalar
        };
    }

    /// The tape's child slice for slot `i`.
    #[inline]
    fn children(&self, i: usize) -> &[u32] {
        &self.edges[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    // ------------------------------------------------------------------
    // Scalar tape kernels: one query per scan, no `NnfNode` dispatch.
    // ------------------------------------------------------------------

    /// Weighted model count: bit-identical to
    /// [`Circuit::wmc_presmoothed`](crate::circuit::Circuit).
    pub fn wmc(&self, w: &LitWeights) -> f64 {
        // Single-query scans never touch the lane backends, so the span
        // name distinguishes them from the lane-batched sweeps.
        let _sweep = trl_obs::trace_span("kernel.sweep.single");
        let mut val = vec![0.0f64; self.len()];
        for i in 0..self.len() {
            val[i] = match self.ops[i] {
                Op::False => 0.0,
                Op::True => 1.0,
                Op::Lit => w.get(self.lits[i]),
                Op::And => {
                    let mut acc = 1.0;
                    for &ch in self.children(i) {
                        acc *= val[ch as usize];
                    }
                    acc
                }
                Op::Or => {
                    let mut acc = 0.0;
                    for &ch in self.children(i) {
                        acc += val[ch as usize];
                    }
                    acc
                }
            };
        }
        val[self.root as usize]
    }

    /// Model count: equal to
    /// [`Circuit::model_count_presmoothed`](crate::circuit::Circuit).
    pub fn model_count(&self) -> u128 {
        self.count_with(|_| 1)
    }

    /// Model count under evidence: equal to
    /// [`Circuit::model_count_under_presmoothed`](crate::circuit::Circuit).
    pub fn model_count_under(&self, pa: &PartialAssignment) -> u128 {
        self.count_with(|l| (pa.eval(l) != Some(false)) as u128)
    }

    /// The scalar `u128` count sweep, the oracle of the lane-batched one.
    /// Counts wrap modulo 2^128 (in every build profile) like the arena
    /// queries.
    fn count_with(&self, leaf: impl Fn(Lit) -> u128) -> u128 {
        self.slot_counts(leaf)[self.root as usize]
    }

    /// Every slot's value in the [`EvalTape::count_with`] sweep.
    fn slot_counts(&self, leaf: impl Fn(Lit) -> u128) -> Vec<u128> {
        let _sweep = trl_obs::trace_span("kernel.sweep.single");
        let mut val = vec![0u128; self.len()];
        for i in 0..self.len() {
            let children = self.children(i).iter().map(|&ch| val[ch as usize]);
            val[i] = match self.ops[i] {
                Op::False => 0,
                Op::True => 1,
                Op::Lit => leaf(self.lits[i]),
                Op::And => children.fold(1, u128::wrapping_mul),
                Op::Or => children.fold(0, u128::wrapping_add),
            };
        }
        val
    }

    /// WMC plus all literal marginals: bit-identical to
    /// [`Circuit::wmc_marginals_presmoothed`](crate::circuit::Circuit).
    pub fn marginals(&self, w: &LitWeights) -> (f64, Vec<(f64, f64)>) {
        let mut out = self.marginals_batch(&[w]);
        out.pop().expect("one lane in, one answer out")
    }

    // ------------------------------------------------------------------
    // Lane-batched kernels: LANES queries per scan, SIMD per node.
    // ------------------------------------------------------------------

    /// Answers one WMC query per weight table, `LANES` at a time: a single
    /// tape scan fills every lane of a `[f64; LANES]` value plane through
    /// the active [`LaneBackend`], so the traversal cost is amortized
    /// across the group and each node's arithmetic runs on the widest
    /// vector unit available. Answers are bit-identical to calling
    /// [`EvalTape::wmc`] per table, on every backend.
    pub fn wmc_batch(&self, weights: &[&LitWeights]) -> Vec<f64> {
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(weights.len());
        let mut out = Vec::with_capacity(weights.len());
        let mut plane = PlaneBuf::new(self.len());
        for group in weights.chunks(LANES) {
            self.wmc_lanes(group, &mut plane);
            let root = &plane.planes()[self.root as usize];
            out.extend_from_slice(&root[..group.len()]);
        }
        out
    }

    /// One lane-group forward sweep; `group.len() <= LANES`, dead lanes
    /// evaluate under all-zero weights (harmlessly finite).
    fn wmc_lanes(&self, group: &[&LitWeights], plane: &mut PlaneBuf) {
        debug_assert!(group.len() <= LANES && plane.len == self.len());
        // SAFETY: `plane` is exclusively borrowed and covers the tape, and
        // the full range is swept in layer order, so every child is
        // written before its parent reads it.
        unsafe { self.sweep_range(group, plane.as_mut_ptr(), 0, self.len()) }
    }

    /// Computes tape slots `lo..hi` of one lane-group forward sweep,
    /// dispatching to the active backend's specialized loop.
    ///
    /// # Safety
    ///
    /// `plane` must be valid for `self.len()` slots; the caller must have
    /// exclusive write access to slots `lo..hi` and every child of those
    /// slots must already be written (layer ordering guarantees children
    /// sit below `lo` when sweeping layer slices in order).
    unsafe fn sweep_range(
        &self,
        group: &[&LitWeights],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        match self.backend {
            LaneBackend::Scalar => self.sweep_range_with::<lanes::ScalarOps>(group, plane, lo, hi),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx2 => self.sweep_range_avx2(group, plane, lo, hi),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx512 => self.sweep_range_avx512(group, plane, lo, hi),
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            LaneBackend::Neon => self.sweep_range_with::<lanes::NeonOps>(group, plane, lo, hi),
        }
    }

    /// The backend-generic forward-sweep loop. Monomorphized per
    /// [`lanes::LaneOps`] impl and inlined into the `target_feature`
    /// wrappers, so the vector backends compile with their full
    /// instruction set. Per lane, every backend performs the identical
    /// IEEE-754 operation sequence — that is the bit-identity contract.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range`], plus: `O`'s target feature must be
    /// available on the executing CPU.
    #[inline(always)]
    unsafe fn sweep_range_with<O: lanes::LaneOps>(
        &self,
        group: &[&LitWeights],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        let ops = self.ops.as_ptr();
        let lits = self.lits.as_ptr();
        let edge_start = self.edge_start.as_ptr();
        let edges = self.edges.as_ptr();
        // Leaves (layer 0) are filled transposed: one wide constant store
        // per slot, then one pass per lane writing that lane's literal
        // weights. No wide load ever reads freshly written scalar lanes
        // (a guaranteed store-forwarding stall), and each per-lane pass
        // walks the literal column sequentially.
        let leaf_hi = hi.min(self.layer_start[1] as usize);
        for i in lo..leaf_hi {
            let out = plane.add(i) as *mut f64;
            match *ops.add(i) {
                // Lit planes are zeroed now (dead lanes stay 0.0) and get
                // their live lanes in the passes below. Childless gates
                // land in layer 0 too: an empty product is 1, an empty
                // sum 0 — exactly the constant stores.
                Op::False | Op::Lit | Op::Or => O::store(out, O::splat(0.0)),
                Op::True | Op::And => O::store(out, O::splat(1.0)),
            }
        }
        for (lane, w) in group.iter().enumerate() {
            for i in lo..leaf_hi {
                if *ops.add(i) == Op::Lit {
                    *(plane.add(i) as *mut f64).add(lane) = w.get(*lits.add(i));
                }
            }
        }
        let lo = leaf_hi.max(lo);
        // The edge cursor advances monotonically with the slot index, so
        // the inner loops never re-read CSR offsets or build slices.
        let mut e = *edge_start.add(lo) as usize;
        for i in lo..hi {
            let out = plane.add(i) as *mut f64;
            let e_end = *edge_start.add(i + 1) as usize;
            match *ops.add(i) {
                Op::False => O::store(out, O::splat(0.0)),
                Op::True => O::store(out, O::splat(1.0)),
                Op::Lit => {
                    // Unreachable for well-formed tapes (literals live in
                    // layer 0), kept for sweep-range generality: assemble
                    // lanes in a stack buffer, publish with one store.
                    let l = *lits.add(i);
                    let mut vals = [0.0f64; LANES];
                    for (lane, w) in group.iter().enumerate() {
                        vals[lane] = w.get(l);
                    }
                    O::store(out, O::load(vals.as_ptr()));
                }
                // The leading identity element is kept in the fold —
                // `0.0 + x` is not a bitwise no-op when `x` is `-0.0` —
                // so every backend runs the identical per-lane op
                // sequence as the scalar kernels.
                Op::And => {
                    let mut acc = O::splat(1.0);
                    for k in e..e_end {
                        let ch = *edges.add(k) as usize;
                        acc = O::mul(acc, O::load(plane.add(ch) as *const f64));
                    }
                    O::store(out, acc);
                }
                Op::Or => {
                    let mut acc = O::splat(0.0);
                    for k in e..e_end {
                        let ch = *edges.add(k) as usize;
                        acc = O::add(acc, O::load(plane.add(ch) as *const f64));
                    }
                    O::store(out, acc);
                }
            }
            e = e_end;
        }
    }

    /// [`EvalTape::sweep_range_with`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range`]; the CPU must support AVX2 (the
    /// dispatcher only routes here when [`LaneBackend::Avx2`] is active,
    /// which [`EvalTape::set_lane_backend`] only permits when detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_range_avx2(
        &self,
        group: &[&LitWeights],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        self.sweep_range_with::<lanes::Avx2Ops>(group, plane, lo, hi)
    }

    /// [`EvalTape::sweep_range_with`] compiled with AVX-512F enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range_avx2`], for AVX-512F.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_range_avx512(
        &self,
        group: &[&LitWeights],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        self.sweep_range_with::<lanes::Avx512Ops>(group, plane, lo, hi)
    }

    /// Lane-batched model counting under evidence, equal per query to
    /// [`EvalTape::model_count_under`] (wrap modulo 2^128 included).
    ///
    /// Each group of partial assignments is one tape scan in two passes:
    /// the narrow slots in `u64` lanes, where a count cannot exceed its
    /// static bound and so is exact, then the few wide slots (on a
    /// conjunction of independent blocks: the top gates) in wrapping
    /// `u128` lanes that read narrow children widened. Planes are as wide
    /// as the group needs: 4 lanes for up to 4 queries, [`LANES`] beyond.
    pub fn model_count_under_batch(&self, evidence: &[&PartialAssignment]) -> Vec<u128> {
        // Exact counting never touches the SIMD lanes, so the span
        // carries its own name rather than the backend's.
        let _sweep = trl_obs::trace_span("kernel.sweep.count");
        record_sweeps(evidence.len());
        // A served frame's four count queries mostly reach the kernel as
        // one group of 4 (the rest as 8, two frames merged). On the
        // 600-block serving tape (2-CPU AVX-512 host) a 4-lane sweep
        // takes about 4.6 ns per node and query on such a group against
        // 7.0 for a LANES-lane one, whose dead lanes still multiply; on
        // 8 queries one LANES sweep (3.7) beats two 4-lane ones (4.2).
        if evidence.len() <= 4 {
            self.count_groups::<4>(evidence)
        } else {
            self.count_groups::<LANES>(evidence)
        }
    }

    /// [`EvalTape::model_count_under_batch`] in `W`-lane groups, the
    /// planes reused across groups.
    fn count_groups<const W: usize>(&self, evidence: &[&PartialAssignment]) -> Vec<u128> {
        let mut out = Vec::with_capacity(evidence.len());
        let mut narrow = Vec::with_capacity(self.len());
        let mut wide = Vec::with_capacity(self.wide.len());
        for group in evidence.chunks(W) {
            let root = self.count_lanes::<W>(group, &mut narrow, &mut wide);
            out.extend_from_slice(&root[..group.len()]);
        }
        out
    }

    /// One `W`-lane count sweep; returns the root's plane. `narrow` gets
    /// one `u64` plane per slot (a zero placeholder at each wide slot,
    /// never read), `wide` one `u128` plane per entry of `self.wide`.
    fn count_lanes<const W: usize>(
        &self,
        group: &[&PartialAssignment],
        narrow: &mut Vec<[u64; W]>,
        wide: &mut Vec<[u128; W]>,
    ) -> [u128; W] {
        narrow.clear();
        let run = |narrow: &mut Vec<[u64; W]>, slots: std::ops::Range<usize>| {
            for i in slots {
                let v = self.count_slot(i, group, |ch| narrow[ch]);
                narrow.push(v);
            }
        };
        // Narrow pass over the runs between wide slots. The root is the
        // last wide slot when there is one, so the final run is then empty.
        let mut lo = 0;
        for &w in &self.wide {
            run(narrow, lo..w as usize);
            narrow.push([0; W]);
            lo = w as usize + 1;
        }
        run(narrow, lo..self.len());
        wide.clear();
        for &w in &self.wide {
            let v = self.count_slot(w as usize, group, |ch| {
                match self.wide.binary_search(&(ch as u32)) {
                    Ok(k) => wide[k],
                    Err(_) => narrow[ch].map(u128::from),
                }
            });
            wide.push(v);
        }
        match wide.last() {
            Some(&root) => root,
            None => narrow[self.root as usize].map(u128::from),
        }
    }

    /// One slot of a count sweep in `W` lanes of `T`, reading child
    /// planes through `child`. Evidence-refuted literals count 0, every
    /// other leaf 1; dead lanes (past `group.len()`) count 0 at literals.
    #[inline(always)]
    fn count_slot<T: CountWord, const W: usize>(
        &self,
        i: usize,
        group: &[&PartialAssignment],
        child: impl Fn(usize) -> [T; W],
    ) -> [T; W] {
        match self.ops[i] {
            Op::False => [T::ZERO; W],
            Op::True => [T::ONE; W],
            Op::Lit => {
                let l = self.lits[i];
                let mut v = [T::ZERO; W];
                for (x, pa) in v.iter_mut().zip(group) {
                    if pa.eval(l) != Some(false) {
                        *x = T::ONE;
                    }
                }
                v
            }
            Op::And => {
                let mut acc = [T::ONE; W];
                for &ch in self.children(i) {
                    for (a, x) in acc.iter_mut().zip(child(ch as usize)) {
                        *a = a.mul(x);
                    }
                }
                acc
            }
            Op::Or => {
                let mut acc = [T::ZERO; W];
                for &ch in self.children(i) {
                    for (a, x) in acc.iter_mut().zip(child(ch as usize)) {
                        *a = a.add(x);
                    }
                }
                acc
            }
        }
    }

    /// Lane-batched marginals: one upward plane sweep plus one downward
    /// derivative sweep per group of `LANES` weight tables. Bit-identical
    /// to [`Circuit::wmc_marginals_presmoothed`](crate::circuit::Circuit)
    /// per lane: the downward pass replays the original arena order and
    /// skips zero derivatives exactly like the scalar code.
    pub fn marginals_batch(&self, weights: &[&LitWeights]) -> Vec<(f64, Vec<(f64, f64)>)> {
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(weights.len());
        let n = self.num_vars;
        let mut out = Vec::with_capacity(weights.len());
        let mut plane = PlaneBuf::new(self.len());
        let mut der = vec![[0.0f64; LANES]; self.len()];
        let mut prefix: Vec<[f64; LANES]> = Vec::new();
        for group in weights.chunks(LANES) {
            self.wmc_lanes(group, &mut plane);
            self.derivative_lanes(plane.planes(), &mut der, &mut prefix);
            // Per-lane literal marginal accumulation, leaves in arena order
            // (layer 0 is stably sorted, so tape order agrees).
            let mut marginals = vec![vec![(0.0f64, 0.0f64); n]; group.len()];
            self.accumulate_lit_marginals(group, &der, &mut marginals);
            let root = plane.planes()[self.root as usize];
            for (lane, m) in marginals.into_iter().enumerate() {
                out.push((root[lane], m));
            }
        }
        out
    }

    /// Folds each literal slot's weighted derivative into the per-lane
    /// marginal table (positive/negative split per variable).
    fn accumulate_lit_marginals(
        &self,
        group: &[&LitWeights],
        der: &[[f64; LANES]],
        marginals: &mut [Vec<(f64, f64)>],
    ) {
        for ((op, l), d) in self.ops.iter().zip(&self.lits).zip(der) {
            if *op != Op::Lit {
                continue;
            }
            for (lane, w) in group.iter().enumerate() {
                let m = w.get(*l) * d[lane];
                let slot = &mut marginals[lane][l.var().index()];
                if l.is_positive() {
                    slot.0 += m;
                } else {
                    slot.1 += m;
                }
            }
        }
    }

    /// The downward derivative sweep shared by the marginal kernels. The
    /// accumulation into a child's derivative is order-sensitive, so the
    /// sweep replays the reverse of the original arena order.
    fn derivative_lanes(
        &self,
        plane: &[[f64; LANES]],
        der: &mut Vec<[f64; LANES]>,
        prefix: &mut Vec<[f64; LANES]>,
    ) {
        der.clear();
        der.resize(self.len(), [0.0; LANES]);
        der[self.root as usize] = [1.0; LANES];
        for &t in self.arena_order.iter().rev() {
            let i = t as usize;
            let d = der[i];
            if d.iter().all(|&x| x == 0.0) {
                continue;
            }
            match self.ops[i] {
                Op::Or => {
                    for &ch in self.children(i) {
                        for lane in 0..LANES {
                            if d[lane] != 0.0 {
                                der[ch as usize][lane] += d[lane];
                            }
                        }
                    }
                }
                Op::And => {
                    // ∂(∏ v_i)/∂v_j via prefix and suffix products, exactly
                    // as the scalar pass: d * prefix[i] * suffix, in order.
                    let children = self.children(i);
                    let k = children.len();
                    prefix.clear();
                    prefix.resize(k + 1, [1.0; LANES]);
                    for (c, &ch) in children.iter().enumerate() {
                        let v = plane[ch as usize];
                        for lane in 0..LANES {
                            prefix[c + 1][lane] = prefix[c][lane] * v[lane];
                        }
                    }
                    let mut suffix = [1.0f64; LANES];
                    for c in (0..k).rev() {
                        let ch = children[c] as usize;
                        for lane in 0..LANES {
                            if d[lane] != 0.0 {
                                der[ch][lane] += d[lane] * prefix[c][lane] * suffix[lane];
                            }
                            suffix[lane] *= plane[ch][lane];
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Layer-parallel kernels: one lane group, many cores, zero spawns.
    // ------------------------------------------------------------------

    /// [`EvalTape::wmc_batch`] with each dependency layer fanned out
    /// across up to `threads` workers of the process-global persistent
    /// [`SweepPool`] (chunked work-stealing within a layer, one barrier
    /// per layer, no thread spawned per sweep). Intended for large
    /// circuits, where a layer holds enough nodes to amortize the
    /// synchronization; answers remain bit-identical because every node
    /// still runs the same per-node arithmetic — only the schedule
    /// changes. Falls back to the sequential lane-batched kernel when
    /// fewer than two workers are available (`threads <= 1`, or a
    /// single-CPU host whose global pool has size 1).
    pub fn wmc_batch_layered(&self, weights: &[&LitWeights], threads: usize) -> Vec<f64> {
        self.wmc_batch_pooled(weights, SweepPool::global(), threads)
    }

    /// [`EvalTape::wmc_batch_layered`] against an explicit pool — the
    /// entry point tests and benchmarks use to exercise real worker
    /// threads regardless of the host's CPU count.
    pub fn wmc_batch_pooled(
        &self,
        weights: &[&LitWeights],
        pool: &SweepPool,
        threads: usize,
    ) -> Vec<f64> {
        let participants = threads.min(pool.size());
        if participants <= 1 || self.len() < 2 {
            return self.wmc_batch(weights);
        }
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(weights.len());
        let mut out = Vec::with_capacity(weights.len());
        let mut plane = PlaneBuf::new(self.len());
        for group in weights.chunks(LANES) {
            self.forward_lanes_pooled(group, &mut plane, pool, participants);
            let root = &plane.planes()[self.root as usize];
            out.extend_from_slice(&root[..group.len()]);
        }
        out
    }

    /// Layer-parallel marginals: the upward sweep fans out across the
    /// pool; the order-sensitive downward sweep stays sequential so the
    /// derivative accumulation replays the arena order bit-for-bit.
    pub fn marginals_batch_layered(
        &self,
        weights: &[&LitWeights],
        threads: usize,
    ) -> Vec<(f64, Vec<(f64, f64)>)> {
        self.marginals_batch_pooled(weights, SweepPool::global(), threads)
    }

    /// [`EvalTape::marginals_batch_layered`] against an explicit pool.
    pub fn marginals_batch_pooled(
        &self,
        weights: &[&LitWeights],
        pool: &SweepPool,
        threads: usize,
    ) -> Vec<(f64, Vec<(f64, f64)>)> {
        let participants = threads.min(pool.size());
        if participants <= 1 || self.len() < 2 {
            return self.marginals_batch(weights);
        }
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(weights.len());
        let n = self.num_vars;
        let mut plane = PlaneBuf::new(self.len());
        let mut der = vec![[0.0f64; LANES]; self.len()];
        let mut prefix: Vec<[f64; LANES]> = Vec::new();
        let mut out = Vec::with_capacity(weights.len());
        for group in weights.chunks(LANES) {
            self.forward_lanes_pooled(group, &mut plane, pool, participants);
            self.derivative_lanes(plane.planes(), &mut der, &mut prefix);
            let mut marginals = vec![vec![(0.0f64, 0.0f64); n]; group.len()];
            self.accumulate_lit_marginals(group, &der, &mut marginals);
            let root = plane.planes()[self.root as usize];
            for (lane, m) in marginals.into_iter().enumerate() {
                out.push((root[lane], m));
            }
        }
        out
    }

    /// The pooled layered forward sweep: `participants` pool workers
    /// (caller included) claim [`POOL_CHUNK`]-slot chunks of each
    /// contiguous layer block off a shared cursor and meet at a barrier
    /// before anyone reads that layer. The cursor makes the schedule
    /// work-stealing: a worker that drains its static share keeps
    /// claiming chunks that would have belonged to slower siblings
    /// (counted as `kernel.pool_steals`).
    fn forward_lanes_pooled(
        &self,
        group: &[&LitWeights],
        plane: &mut PlaneBuf,
        pool: &SweepPool,
        participants: usize,
    ) {
        trl_obs::counter!("kernel.pool_sweeps").inc();
        let barrier = Barrier::new(participants);
        let cursors: Vec<AtomicUsize> = (0..self.num_layers())
            .map(|_| AtomicUsize::new(0))
            .collect();
        let chunks = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        // Pool workers are long-lived threads with no trace context of
        // their own, so the dispatching thread's context is captured here
        // and re-installed inside every participant: worker 0 (the caller)
        // narrates one `kernel.pool.layer` span per layer barrier, and
        // each extra worker contributes a `kernel.pool.worker` span so the
        // request tree shows the sweep's actual fan-out. All timing is
        // skipped when the request is untraced (`ctx` is `None`).
        let ctx = trl_obs::current_trace();
        let shared = SharedPlane(plane.as_mut_ptr());
        pool.run(participants, &|t| {
            trl_obs::with_current_trace(ctx, || {
                let plane = &shared;
                let worker_start = ctx.map(|_| std::time::Instant::now());
                let (mut my_chunks, mut my_steals) = (0u64, 0u64);
                for (l, cursor) in cursors.iter().enumerate() {
                    let layer_start = if t == 0 {
                        worker_start.map(|_| std::time::Instant::now())
                    } else {
                        None
                    };
                    let a = self.layer_start[l] as usize;
                    let b = self.layer_start[l + 1] as usize;
                    let len = b - a;
                    // Static share bounds are used for the steal metric only;
                    // claiming is purely cursor-driven.
                    let share_lo = len * t / participants;
                    let share_hi = len * (t + 1) / participants;
                    loop {
                        let c = cursor.fetch_add(POOL_CHUNK, Ordering::Relaxed);
                        if c >= len {
                            break;
                        }
                        let hi = (c + POOL_CHUNK).min(len);
                        // SAFETY: cursor claims are disjoint (each fetch_add
                        // yields a unique chunk), every child sits in a
                        // strictly earlier layer fully written before the
                        // previous barrier, and the barrier below separates
                        // this layer's writes from the next layer's reads.
                        unsafe { self.sweep_range(group, plane.0, a + c, a + hi) };
                        my_chunks += 1;
                        if c < share_lo || c >= share_hi {
                            my_steals += 1;
                        }
                    }
                    barrier.wait();
                    if let Some(started) = layer_start {
                        trl_obs::record_trace_at("kernel.pool.layer", started, started.elapsed());
                    }
                }
                chunks.fetch_add(my_chunks, Ordering::Relaxed);
                steals.fetch_add(my_steals, Ordering::Relaxed);
                if t != 0 {
                    if let Some(started) = worker_start {
                        trl_obs::record_trace_at("kernel.pool.worker", started, started.elapsed());
                    }
                }
            });
        });
        trl_obs::counter!("kernel.pool_chunks").add(chunks.load(Ordering::Relaxed));
        trl_obs::counter!("kernel.pool_steals").add(steals.load(Ordering::Relaxed));
    }
}

/// The lane element of a count sweep: `u64` on narrow slots, `u128` on
/// wide ones. Both operations wrap, which is exact wherever the true count
/// fits the type and the scalar oracle's mod-2^128 semantics otherwise.
trait CountWord: Copy {
    const ZERO: Self;
    const ONE: Self;
    fn add(self, other: Self) -> Self;
    fn mul(self, other: Self) -> Self;
}

impl CountWord for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = 1;

    #[inline(always)]
    fn add(self, other: u64) -> u64 {
        self.wrapping_add(other)
    }

    #[inline(always)]
    fn mul(self, other: u64) -> u64 {
        self.wrapping_mul(other)
    }
}

impl CountWord for u128 {
    const ZERO: u128 = 0;
    const ONE: u128 = 1;

    #[inline(always)]
    fn add(self, other: u128) -> u128 {
        self.wrapping_add(other)
    }

    #[inline(always)]
    fn mul(self, other: u128) -> u128 {
        self.wrapping_mul(other)
    }
}

/// The per-backend lane arithmetic the generic sweep loop is
/// monomorphized over. Each impl covers one whole `[f64; LANES]` value
/// plane; per lane, `mul`/`add` are single IEEE-754 operations, so every
/// backend produces bit-identical planes.
mod lanes {
    use super::LANES;

    /// One backend's register set covering a full value plane.
    pub(super) trait LaneOps {
        /// The register tuple holding `LANES` lanes.
        type V: Copy;
        /// Broadcasts `x` to every lane.
        ///
        /// # Safety
        /// The backend's target feature must be available on this CPU.
        unsafe fn splat(x: f64) -> Self::V;
        /// Loads `LANES` contiguous doubles.
        ///
        /// # Safety
        /// As [`LaneOps::splat`]; `p` must be valid for `LANES` reads.
        unsafe fn load(p: *const f64) -> Self::V;
        /// Stores `LANES` contiguous doubles.
        ///
        /// # Safety
        /// As [`LaneOps::splat`]; `p` must be valid for `LANES` writes.
        unsafe fn store(p: *mut f64, v: Self::V);
        /// Lane-wise IEEE-754 multiply.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        /// Lane-wise IEEE-754 add.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    }

    /// The always-available `[f64; LANES]` reference implementation.
    pub(super) struct ScalarOps;

    impl LaneOps for ScalarOps {
        type V = [f64; LANES];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            [x; LANES]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            *(p as *const [f64; LANES])
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            *(p as *mut [f64; LANES]) = v;
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            std::array::from_fn(|i| a[i] * b[i])
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            std::array::from_fn(|i| a[i] + b[i])
        }
    }

    /// Two 256-bit registers per plane.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    pub(super) struct Avx2Ops;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    impl LaneOps for Avx2Ops {
        type V = [core::arch::x86_64::__m256d; 2];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            use core::arch::x86_64::_mm256_set1_pd;
            [_mm256_set1_pd(x), _mm256_set1_pd(x)]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            use core::arch::x86_64::_mm256_loadu_pd;
            [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))]
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            use core::arch::x86_64::_mm256_storeu_pd;
            _mm256_storeu_pd(p, v[0]);
            _mm256_storeu_pd(p.add(4), v[1]);
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::x86_64::_mm256_mul_pd;
            [_mm256_mul_pd(a[0], b[0]), _mm256_mul_pd(a[1], b[1])]
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::x86_64::_mm256_add_pd;
            [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])]
        }
    }

    /// One 512-bit register per plane: an and-gate's per-child update is
    /// a single `vmulpd`.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    pub(super) struct Avx512Ops;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    impl LaneOps for Avx512Ops {
        type V = core::arch::x86_64::__m512d;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            core::arch::x86_64::_mm512_set1_pd(x)
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            core::arch::x86_64::_mm512_loadu_pd(p)
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            core::arch::x86_64::_mm512_storeu_pd(p, v);
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            core::arch::x86_64::_mm512_mul_pd(a, b)
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            core::arch::x86_64::_mm512_add_pd(a, b)
        }
    }

    /// Four 128-bit registers per plane (`aarch64` NEON).
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    pub(super) struct NeonOps;

    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    impl LaneOps for NeonOps {
        type V = [core::arch::aarch64::float64x2_t; 4];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            use core::arch::aarch64::vdupq_n_f64;
            [vdupq_n_f64(x); 4]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            use core::arch::aarch64::vld1q_f64;
            std::array::from_fn(|i| vld1q_f64(p.add(2 * i)))
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            use core::arch::aarch64::vst1q_f64;
            for (i, r) in v.into_iter().enumerate() {
                vst1q_f64(p.add(2 * i), r);
            }
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::aarch64::vmulq_f64;
            std::array::from_fn(|i| vmulq_f64(a[i], b[i]))
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::aarch64::vaddq_f64;
            std::array::from_fn(|i| vaddq_f64(a[i], b[i]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::properties::smooth;
    use trl_core::SplitMix64;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// A small smooth d-DNNF: ((x0 ∧ (x1 ∨ ¬x1)) ∨ (¬x0 ∧ x1)).
    fn small_smooth() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let nx0 = b.lit(v(0).negative());
        let nx1 = b.lit(v(1).negative());
        let taut = b.or_raw([x1, nx1]);
        let left = b.and([x0, taut]);
        let right = b.and([nx0, x1]);
        let root = b.or_raw([left, right]);
        b.finish(root)
    }

    fn skewed(n: usize, seed: u64) -> LitWeights {
        let mut rng = SplitMix64::new(seed);
        let mut w = LitWeights::unit(n);
        for i in 0..n as u32 {
            let p = 0.05 + 0.9 * rng.uniform();
            w.set(v(i).positive(), p);
            w.set(v(i).negative(), 1.0 - p);
        }
        w
    }

    #[test]
    fn tape_matches_scalar_queries_on_small_circuit() {
        let c = small_smooth();
        let tape = EvalTape::new(&c);
        assert_eq!(tape.num_vars(), 2);
        assert_eq!(tape.model_count(), c.model_count_presmoothed());
        let w = skewed(2, 7);
        assert_eq!(tape.wmc(&w).to_bits(), c.wmc_presmoothed(&w).to_bits());
        let (total, marg) = tape.marginals(&w);
        let (total2, marg2) = c.wmc_marginals_presmoothed(&w);
        assert_eq!(total.to_bits(), total2.to_bits());
        assert_eq!(marg, marg2);
    }

    #[test]
    fn tape_drops_unreachable_nodes() {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let _orphan = b.and([x0, x1]); // never referenced by the root
        let nx0 = b.lit(v(0).negative());
        let root = b.or_raw([x0, nx0]);
        let c = b.finish(root);
        let tape = EvalTape::new(&c);
        assert!(tape.len() < c.node_count());
        assert_eq!(tape.model_count(), c.model_count_presmoothed());
    }

    #[test]
    fn layer_order_respects_dependencies_after_reorder() {
        let mut rng = SplitMix64::new(0xDE9);
        // A few random-ish smooth circuits via the builder: chains of
        // alternating gates over a handful of variables.
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let _ = rng.next_u64();
        // Every gate's children live in strictly earlier layers, layer
        // bounds are monotone, and the root is the last slot.
        let layer_of = |slot: u32| {
            (0..tape.num_layers())
                .find(|&l| slot < tape.layer_start[l + 1])
                .expect("slot within bounds")
        };
        for l in 0..tape.num_layers() {
            assert!(tape.layer_start[l] <= tape.layer_start[l + 1]);
        }
        for i in 0..tape.len() {
            for &ch in tape.children(i) {
                assert!(ch < i as u32, "children precede parents on the tape");
                assert!(
                    layer_of(ch) < layer_of(i as u32),
                    "children sit in strictly earlier layers"
                );
            }
        }
        assert_eq!(tape.root as usize, tape.len() - 1);
    }

    #[test]
    fn batch_kernels_agree_with_scalar_tape() {
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..19).map(|s| skewed(2, 100 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let batched = tape.wmc_batch(&refs);
        let layered = tape.wmc_batch_layered(&refs, 3);
        for (i, w) in weights.iter().enumerate() {
            let scalar = tape.wmc(w);
            assert_eq!(batched[i].to_bits(), scalar.to_bits(), "lane {i}");
            assert_eq!(layered[i].to_bits(), scalar.to_bits(), "layered {i}");
        }
        let marg_b = tape.marginals_batch(&refs);
        let marg_l = tape.marginals_batch_layered(&refs, 3);
        for (i, w) in weights.iter().enumerate() {
            let scalar = c.wmc_marginals_presmoothed(w);
            assert_eq!(marg_b[i].0.to_bits(), scalar.0.to_bits());
            assert_eq!(marg_b[i].1, scalar.1);
            assert_eq!(marg_l[i].0.to_bits(), scalar.0.to_bits());
            assert_eq!(marg_l[i].1, scalar.1);
        }
    }

    #[test]
    fn every_supported_backend_bit_matches_scalar_lanes() {
        let c = smooth(&small_smooth());
        let mut tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..19).map(|s| skewed(2, 500 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        tape.set_lane_backend(LaneBackend::Scalar);
        let reference: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
        let ref_marg = tape.marginals_batch(&refs);
        for backend in LaneBackend::all_supported() {
            tape.set_lane_backend(backend);
            assert_eq!(tape.lane_backend(), backend);
            let got: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, reference, "backend {}", backend.name());
            let marg = tape.marginals_batch(&refs);
            for (a, b) in marg.iter().zip(&ref_marg) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "backend {}", backend.name());
                assert_eq!(a.1, b.1, "backend {}", backend.name());
            }
        }
    }

    #[test]
    fn forced_scalar_fallback_always_sticks() {
        let c = smooth(&small_smooth());
        let mut tape = EvalTape::new(&c);
        // Whatever was detected, forcing the fallback must take effect and
        // keep answering identically — this is the test that exercises the
        // non-SIMD path on SIMD-capable hosts.
        let auto = tape.wmc(&skewed(2, 11));
        tape.set_lane_backend(LaneBackend::Scalar);
        assert_eq!(tape.lane_backend(), LaneBackend::Scalar);
        let w = skewed(2, 11);
        assert_eq!(tape.wmc_batch(&[&w])[0].to_bits(), auto.to_bits());
    }

    #[test]
    fn pooled_sweeps_with_real_workers_bit_match() {
        let pool = SweepPool::new(3);
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..21).map(|s| skewed(2, 900 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let sequential = tape.wmc_batch(&refs);
        let pooled = tape.wmc_batch_pooled(&refs, &pool, 3);
        for (a, b) in pooled.iter().zip(&sequential) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let marg_seq = tape.marginals_batch(&refs);
        let marg_pool = tape.marginals_batch_pooled(&refs, &pool, 3);
        for (a, b) in marg_pool.iter().zip(&marg_seq) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn evidence_counts_match_conditioning() {
        let c = small_smooth();
        let tape = EvalTape::new(&c);
        let mut pa = PartialAssignment::new(2);
        assert_eq!(tape.model_count_under(&pa), 3);
        pa.assign(v(0).positive());
        assert_eq!(tape.model_count_under(&pa), 2);
        assert_eq!(
            tape.model_count_under(&pa),
            c.model_count_under_presmoothed(&pa)
        );
        let mut pb = PartialAssignment::new(2);
        pb.assign(v(0).negative());
        pb.assign(v(1).negative());
        let empty = PartialAssignment::new(2);
        let batch = tape.model_count_under_batch(&[&empty, &pa, &pb]);
        assert_eq!(batch, vec![3, 2, 0]);
    }

    #[test]
    fn single_node_circuits_linearize() {
        type Build = fn(&mut CircuitBuilder) -> NnfId;
        let cases: [(Build, u128); 2] = [(|b| b.true_(), 2), (|b| b.false_(), 0)];
        for (build, expect) in cases {
            let mut b = CircuitBuilder::new(1);
            let root = build(&mut b);
            let c = b.finish(root);
            let tape = EvalTape::new(&smooth(&c));
            assert!(!tape.is_empty());
            assert_eq!(tape.model_count(), expect);
            let unit = LitWeights::unit(1);
            assert_eq!(tape.wmc_batch_layered(&[&unit], 2), vec![expect as f64]);
        }
    }

    /// A d-DNNF deciding `vars` in order, the variables `forced` picks
    /// pinned true and every other one free (count: 2 to the number of
    /// free variables).
    fn decision_chain(
        b: &mut CircuitBuilder,
        vars: std::ops::Range<u32>,
        mut forced: impl FnMut(u32) -> bool,
    ) -> NnfId {
        let mut node = b.true_();
        for x in vars.rev() {
            let pos = b.var(v(x));
            let hi = b.and([pos, node]);
            node = if forced(x) {
                hi
            } else {
                let neg = b.lit(v(x).negative());
                let lo = b.and([neg, node]);
                b.or_raw([hi, lo])
            };
        }
        node
    }

    fn random_evidence(rng: &mut SplitMix64, n: usize, assigned: usize) -> PartialAssignment {
        let mut pa = PartialAssignment::new(n);
        for _ in 0..assigned {
            pa.assign(v(rng.below(n) as u32).literal(rng.coin()));
        }
        pa
    }

    /// The bound facts the two-width count sweep relies on, on one tape:
    /// no narrow slot counts more than its bound under any of `evidence`,
    /// a narrow bound is the exact empty-evidence count, narrow slots have
    /// only narrow children, a wide slot with only narrow children really
    /// passes `u64`, the wide list ends at the root, and the batched sweep
    /// equals the scalar one. Returns the number of wide slots.
    fn check_bounds(tape: &EvalTape, evidence: &[PartialAssignment]) -> usize {
        let bound = tape.count_bounds();
        for pa in evidence {
            let counts = tape.slot_counts(|l| u128::from(pa.eval(l) != Some(false)));
            for (i, (&b, count)) in bound.iter().zip(counts).enumerate() {
                assert!(b == u64::MAX || count <= u128::from(b), "slot {i}");
            }
        }
        let empty = tape.slot_counts(|_| 1);
        let wide: Vec<u32> = (0..tape.len() as u32)
            .filter(|&i| bound[i as usize] == u64::MAX)
            .collect();
        assert_eq!(tape.wide, wide);
        for (i, &b) in bound.iter().enumerate() {
            let children = tape.children(i).iter().map(|&ch| bound[ch as usize]);
            if b < u64::MAX {
                assert_eq!(u128::from(b), empty[i], "slot {i}: narrow bounds are exact");
                assert!(children.clone().all(|c| c < u64::MAX), "slot {i}");
            } else if children.clone().all(|c| c < u64::MAX) {
                let mut children = children.map(u128::from);
                let exact = match tape.ops[i] {
                    Op::And => children.try_fold(1, u128::checked_mul),
                    Op::Or => children.try_fold(0, u128::checked_add),
                    _ => unreachable!("leaves are narrow"),
                };
                assert!(exact.is_none_or(|e| e >= u128::from(u64::MAX)), "slot {i}");
            }
        }
        if let Some(&last) = tape.wide.last() {
            assert_eq!(last, tape.root, "wide slots are upward-closed");
        }
        let refs: Vec<&PartialAssignment> = evidence.iter().collect();
        let scalar: Vec<u128> = refs.iter().map(|pa| tape.model_count_under(pa)).collect();
        assert_eq!(tape.model_count_under_batch(&refs), scalar);
        tape.wide.len()
    }

    #[test]
    fn count_bounds_are_sound_on_random_circuits() {
        let mut rng = SplitMix64::new(0xB0_0D);
        let mut widest = 0;
        for round in 0..40 {
            let n = 3 + round % 6;
            let mut b = CircuitBuilder::new(n);
            let mut ids: Vec<NnfId> = (0..n as u32)
                .flat_map(|x| [v(x).positive(), v(x).negative()])
                .map(|l| b.lit(l))
                .collect();
            ids.extend([b.true_(), b.false_()]);
            // Gates over recent nodes, so values compound with depth and
            // some circuits pass 2^64 (and 2^128) below the root.
            for _ in 0..60 {
                let inputs: Vec<NnfId> = (0..1 + rng.below(4))
                    .map(|_| ids[ids.len() - 1 - rng.below(ids.len().min(8))])
                    .collect();
                let gate = if rng.coin() {
                    b.and_raw(inputs)
                } else {
                    b.or_raw(inputs)
                };
                ids.push(gate);
            }
            let c = b.finish(*ids.last().expect("gates were added"));
            let tape = EvalTape::new(&c);
            let evidence: Vec<PartialAssignment> = (0..1 + round % 9)
                .map(|_| random_evidence(&mut rng, n, 2))
                .collect();
            widest = widest.max(check_bounds(&tape, &evidence));
        }
        assert!(
            widest > 1,
            "some random circuit has wide slots below its root"
        );
    }

    #[test]
    fn six_hundred_blocks_leave_a_handful_of_wide_slots() {
        // The serving benchmark's large circuit: one and-gate over 600
        // independent 18-variable blocks, whose counts each fit in u64.
        let mut rng = SplitMix64::new(600);
        let mut b = CircuitBuilder::new(600 * 18);
        let blocks: Vec<NnfId> = (0..600u32)
            .map(|k| decision_chain(&mut b, 18 * k..18 * (k + 1), |_| rng.below(4) == 0))
            .collect();
        let top = b.and_raw(blocks);
        let tape = EvalTape::new(&smooth(&b.finish(top)));
        let evidence = [random_evidence(&mut rng, 600 * 18, 3)];
        let wide = check_bounds(&tape, &evidence);
        assert!(tape.len() > 600 * 18, "{} slots", tape.len());
        assert!(
            (1..=4).contains(&wide),
            "{wide} wide slots of {}",
            tape.len()
        );
    }

    #[test]
    fn a_wide_fan_in_or_over_narrow_children_is_wide() {
        // Four 2^63-count children: the or-gate's sum is the first value
        // past u64, and the and-gate above it is wide through it.
        let mut b = CircuitBuilder::new(68);
        let free = decision_chain(&mut b, 0..63, |_| false);
        let children: Vec<NnfId> = (63..67)
            .map(|x| {
                let pin = b.var(v(x));
                b.and_raw([free, pin])
            })
            .collect();
        let or = b.or_raw(children);
        let top = b.var(v(67));
        let root = b.and_raw([or, top]);
        let tape = EvalTape::new(&b.finish(root));
        let mut rng = SplitMix64::new(0x0F_A2);
        let mut evidence = vec![PartialAssignment::new(68)];
        evidence.extend((0..8).map(|_| random_evidence(&mut rng, 68, 2)));
        assert_eq!(check_bounds(&tape, &evidence), 2);
        assert_eq!(tape.ops[tape.wide[0] as usize], Op::Or);
        assert_eq!(tape.model_count_under(&evidence[0]), 1 << 65);
    }
}
