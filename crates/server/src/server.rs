//! The TCP serving frontend: a readiness-driven multiplexed server over
//! nonblocking sockets, with admission control and graceful shutdown.
//!
//! Architecture (all std, no external deps — the workspace builds
//! air-gapped; the epoll wrapper lives in [`crate::reactor`]):
//!
//! * an **accept thread** owns the listener. Before each `accept` it takes
//!   a permit from a bounded connection gate ([`ServerConfig::max_connections`]),
//!   so excess clients queue in the kernel backlog instead of piling into
//!   the reactors — no connection is ever dropped by admission. Accepted
//!   sockets are handed round-robin to the reactors;
//! * **N reactor threads** ([`ServerConfig::reactors`]) each run an epoll
//!   event loop over their shard of connections. Every socket is
//!   nonblocking and registered edge-triggered; a per-connection state
//!   machine accumulates partial frames in a read buffer, peels complete
//!   frames off with [`crate::protocol::scan_frame`], and stages encoded
//!   responses in a write buffer flushed as the socket allows. Idle
//!   connections cost **zero** wakeups — the old 25 ms idle-poll loop (and
//!   its `server.idle_wakeups` counter) is gone; shutdown and completed
//!   work arrive through a per-reactor eventfd [`crate::reactor::Waker`];
//! * **pipelining**: a connection may have any number of frames in
//!   flight. Every request kind except [`Request::PipelinedBatch`] is
//!   answered strictly in arrival order (a reorder buffer holds responses
//!   that complete early); pipelined frames carry a client-chosen id and
//!   are answered the moment they complete, out of order;
//! * **one query path**: every query-bearing frame (`Query`, `Batch`,
//!   `Trace`, `PipelinedBatch`) that arrives in one readiness drain is
//!   staged as a segment of a per-(registry key, trace context) group, and
//!   each group is **one executor submission**, so the engine's
//!   lane-batched kernels see one big batch instead of many small ones.
//!   On completion the outcomes are split back per segment and each is
//!   framed the way its request asked;
//! * a **bounded submission queue** guards the shared [`Engine`]: each
//!   admitted query holds one unit of [`ServerConfig::queue_capacity`]
//!   until answered. A frame that would exceed the bound is rejected with
//!   a typed [`WireError::Overloaded`] response — backpressure, not
//!   buffering — and the connection stays usable;
//! * **one build path**: artifact builds (compile, learn, space,
//!   classifier, optimize) each run on their own thread through one spawn
//!   function, so a long build never stalls the reactor;
//! * **graceful shutdown** ([`ServerHandle::shutdown`], or a wire
//!   [`Request::Shutdown`]) stops accepting, stops reading, lets every
//!   in-flight request finish and flush its response, then joins the
//!   accept thread, every reactor, and any outstanding build threads.
//!
//! Protocol-level failures (corrupt frame, oversized length prefix, a
//! version other than [`crate::protocol::PROTOCOL_VERSION`]) are answered
//! with a typed [`Response::Error`] frame where the stream still permits
//! one, and the connection is closed — a broken framing layer cannot be
//! resynchronized.

use std::collections::BTreeMap;
use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{
    scan_frame, write_response, FrameScan, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN,
};
use crate::reactor::{Event, Reactor, Waker};
use trl_engine::{Artifact, Engine, EngineError, Query, QueryAnswer, QueryOutcome};
use trl_obs::{ForcedTracing, TraceContext, TraceSpanData};

/// Tunables for a [`Server`]. The defaults suit tests and small
/// deployments; serving real traffic wants them set explicitly.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients wait in
    /// the kernel accept backlog.
    pub max_connections: usize,
    /// Maximum queries admitted into the engine at once, across all
    /// connections. A request pushing past this is answered with
    /// [`WireError::Overloaded`].
    pub queue_capacity: usize,
    /// Cap on a mid-frame stall: a connection holding a partial frame
    /// longer than this is closed.
    pub read_timeout: Duration,
    /// Cap on a write stall: a connection that cannot absorb its staged
    /// responses for this long is closed.
    pub write_timeout: Duration,
    /// Ceiling on an inbound frame's payload length.
    pub max_frame_len: u32,
    /// Reactor (event-loop) threads the connections are sharded across.
    /// Zero means "pick from available parallelism".
    pub reactors: usize,
    /// When set, any request whose handling time exceeds this threshold
    /// is logged to stderr as one JSON line with its span breakdown.
    pub slow_query: Option<Duration>,
    /// Probability in `[0, 1]` that a request is traced into the flight
    /// recorder (`--trace-sample`). Zero disables sampling; explicit
    /// [`Request::Trace`] frames are always traced regardless.
    pub trace_sample: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            queue_capacity: 1024,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            reactors: 0,
            slow_query: None,
            trace_sample: 0.0,
        }
    }
}

impl ServerConfig {
    /// The reactor count after resolving `0` to a hardware-derived
    /// default (capped: reactors are I/O multiplexers, not compute).
    fn effective_reactors(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        std::thread::available_parallelism().map_or(1, |p| p.get().min(4))
    }
}

/// Counters the server keeps about its own traffic (monotonic since bind).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    /// Response frames enqueued (answers and typed errors alike).
    pub served: u64,
    /// Requests rejected with [`WireError::Overloaded`].
    pub overloaded: u64,
    /// Connections accepted.
    pub connections: u64,
}

/// A semaphore built from a mutex and condvar (std has no semaphore).
struct Gate {
    held: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            held: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free or `cancel` turns true; returns
    /// whether a permit was taken. Cancellation is wakeup-driven
    /// ([`Gate::cancel_wake`]), not polled.
    fn acquire(&self, max: usize, cancel: &AtomicBool) -> bool {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if cancel.load(Ordering::Acquire) {
                return false;
            }
            if *held < max {
                *held += 1;
                return true;
            }
            held = self.freed.wait(held).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn release(&self) {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        *held = held.saturating_sub(1);
        drop(held);
        self.freed.notify_all();
    }

    /// Wakes every waiter so it can observe a cancellation flag. Taking
    /// the lock first closes the check-then-wait race: a waiter between
    /// its flag check and its park holds the lock, so the notification
    /// cannot slip past it.
    fn cancel_wake(&self) {
        drop(self.held.lock().unwrap_or_else(|p| p.into_inner()));
        self.freed.notify_all();
    }
}

/// One encoded response frame headed back to a connection.
///
/// `seq` is `Some` for ordered request kinds, which the server answers
/// strictly in arrival order (the sequence number is the request's
/// arrival index on its connection); `None` for pipelined responses,
/// which are written the moment they complete.
type ResponseFrame = (Option<u64>, Vec<u8>);

/// A completed piece of offloaded work (an executor batch or a build),
/// routed back to the owning reactor through its inbox.
struct Completion {
    /// The connection's registration token; stale tokens (the connection
    /// died first) are dropped.
    token: u64,
    frames: Vec<ResponseFrame>,
}

/// What other threads hand a reactor: fresh connections from the accept
/// thread, completions from executor workers and build threads.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// The cross-thread half of one reactor: its inbox and the eventfd that
/// interrupts its epoll wait.
struct ReactorShared {
    waker: Waker,
    inbox: Mutex<Inbox>,
}

impl ReactorShared {
    fn push_completion(&self, completion: Completion) {
        let was_empty = {
            let mut inbox = self.inbox.lock().unwrap_or_else(|p| p.into_inner());
            let was_empty = inbox.conns.is_empty() && inbox.completions.is_empty();
            inbox.completions.push(completion);
            was_empty
        };
        // A non-empty inbox already has an undrained wake pending (the
        // reactor drains its eventfd before it empties the inbox), so
        // only the emptiness edge needs the syscall.
        if was_empty {
            self.waker.wake();
        }
    }
}

/// State shared by the accept thread, the reactors, and the
/// [`ServerHandle`].
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Pair used to block [`ServerHandle::wait`] until shutdown.
    shutdown_signal: (Mutex<bool>, Condvar),
    conn_gate: Gate,
    /// Queries admitted into the engine and not yet answered.
    admitted: AtomicUsize,
    reactors: Vec<Arc<ReactorShared>>,
    /// Reactor threads plus any in-flight build threads.
    threads: Mutex<Vec<JoinHandle<()>>>,
    served: AtomicU64,
    overloaded: AtomicU64,
    connections: AtomicU64,
    /// Connections currently being served (accepted, not yet closed).
    active: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let (lock, cv) = &self.shutdown_signal;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        // Wake the accept thread if it is parked waiting for a permit…
        self.conn_gate.cancel_wake();
        // …wake every reactor so it starts draining…
        for r in &self.reactors {
            r.waker.wake();
        }
        // …and unblock an accept() parked in the kernel: a throwaway
        // connection to ourselves makes it return, after which it sees
        // the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Admits `n` queries against the bounded submission queue, or reports
    /// the typed overload. Admission is all-or-nothing per frame.
    fn try_admit(&self, n: usize) -> Result<(), WireError> {
        let cap = self.config.queue_capacity;
        let admit = self
            .admitted
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur + n <= cap).then_some(cur + n)
            });
        match admit {
            Ok(_) => Ok(()),
            Err(cur) => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                trl_obs::counter!("server.overloaded").inc();
                Err(WireError::Overloaded {
                    queue_depth: cur as u64,
                    capacity: cap as u64,
                })
            }
        }
    }

    fn release_admitted(&self, n: usize) {
        self.admitted.fetch_sub(n, Ordering::AcqRel);
    }

    /// Tracks a spawned thread (reactor or offloaded build), reaping
    /// finished handles so a long-lived server's list stays bounded.
    fn track_thread(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock().unwrap_or_else(|p| p.into_inner());
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }
}

/// A running server. Bind with [`Server::bind`]; the returned
/// [`ServerHandle`] is the only way to address or stop it.
pub struct Server;

/// Handle to a bound, accepting server: its address, a shutdown trigger,
/// and the join points for every thread it spawned.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawns
    /// the reactors and the accept thread, and returns the handle. The
    /// engine is shared — several servers (or in-process callers) may
    /// serve one engine.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Only a nonzero rate touches the process-global sampling knob:
        // a default-config server must not stomp a rate the embedding
        // process (or another server on the same engine) already set.
        if config.trace_sample > 0.0 {
            trl_obs::set_trace_sampling(config.trace_sample);
        }
        let num_reactors = config.effective_reactors();
        let mut reactors = Vec::with_capacity(num_reactors);
        for _ in 0..num_reactors {
            reactors.push(Arc::new(ReactorShared {
                waker: Waker::new()?,
                inbox: Mutex::new(Inbox::default()),
            }));
        }
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            conn_gate: Gate::new(),
            admitted: AtomicUsize::new(0),
            reactors,
            threads: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        for idx in 0..num_reactors {
            let reactor_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("trl-server-reactor-{idx}"))
                .spawn(move || reactor_loop(idx, &reactor_shared))?;
            shared.track_thread(handle);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("trl-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            served: self.shared.served.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        }
    }

    /// Whether shutdown has been triggered (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Triggers graceful shutdown and joins every server thread: stops
    /// accepting, drains in-flight requests, then returns final counters.
    pub fn shutdown(mut self) -> ServerCounters {
        self.shared.begin_shutdown();
        self.join_all()
    }

    /// Blocks until something triggers shutdown (a wire
    /// [`Request::Shutdown`], or [`ServerHandle::shutdown`] from another
    /// thread via a clone — there is none, so in practice the wire), then
    /// joins every server thread.
    pub fn wait(mut self) -> ServerCounters {
        let (lock, cv) = &self.shared.shutdown_signal;
        {
            let mut down = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*down {
                down = cv.wait(down).unwrap_or_else(|p| p.into_inner());
            }
        }
        self.join_all()
    }

    fn join_all(&mut self) -> ServerCounters {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads = std::mem::take(
            &mut *self
                .shared
                .threads
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        for t in threads {
            let _ = t.join();
        }
        self.counters()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still stops the server; shutdown()/wait() only
        // add the explicit join-and-report path.
        if self.accept_thread.is_some() {
            self.shared.begin_shutdown();
            self.join_all();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_reactor = 0usize;
    loop {
        // Gate wait is the server-side queue delay a connection pays
        // before it can even be accepted — the counterpart of the
        // per-request service time recorded at completion.
        let gate_wait = Instant::now();
        if !shared
            .conn_gate
            .acquire(shared.config.max_connections, &shared.shutdown)
        {
            return; // shutdown while waiting for a permit
        }
        trl_obs::histogram!("server.gate_wait_us").record(gate_wait.elapsed());
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                shared.conn_gate.release();
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // The wake-up connection from begin_shutdown, or a client that
            // raced shutdown; either way, stop accepting.
            shared.conn_gate.release();
            return;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::Relaxed);
        trl_obs::counter!("server.connections_accepted").inc();
        trl_obs::gauge!("server.connections_active").inc();
        // Shard round-robin: the permit travels with the connection and
        // is released by the owning reactor when it closes.
        let reactor = &shared.reactors[next_reactor % shared.reactors.len()];
        next_reactor = next_reactor.wrapping_add(1);
        let was_empty = {
            let mut inbox = reactor.inbox.lock().unwrap_or_else(|p| p.into_inner());
            let was_empty = inbox.conns.is_empty() && inbox.completions.is_empty();
            inbox.conns.push(stream);
            was_empty
        };
        if was_empty {
            reactor.waker.wake();
        }
    }
}

// ---------------------------------------------------------- reactor side

/// The inbox token reserved for the reactor's own waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Write buffer backlog beyond which the flushed prefix is compacted away
/// instead of waiting for the buffer to drain completely.
const OUTBUF_COMPACT: usize = 64 * 1024;

/// Per-connection state machine: partial-frame read buffer, staged write
/// buffer, pipelining bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Registration token: `generation << 32 | slot`.
    token: u64,
    /// Accumulated inbound bytes; `inpos` marks the consumed prefix.
    inbuf: Vec<u8>,
    inpos: usize,
    /// Staged outbound bytes; `outpos` marks the flushed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Offloaded work items (executor batches, builds) not yet delivered
    /// back as completions.
    in_flight: usize,
    /// Arrival index handed to the next ordered request.
    next_seq: u64,
    /// The ordered sequence number allowed to enter `outbuf` next.
    next_enqueue: u64,
    /// Ordered responses that completed before their turn.
    held: BTreeMap<u64, Vec<u8>>,
    /// No more requests will be read (peer EOF, protocol error, or
    /// shutdown drain); the connection closes once quiescent.
    read_closed: bool,
    /// Unrecoverable transport failure; close immediately, discarding
    /// any staged output.
    broken: bool,
    /// When the current partial frame started stalling.
    partial_since: Option<Instant>,
    /// When the current write backlog started stalling.
    blocked_since: Option<Instant>,
    /// When the readiness drain that produced the frame currently being
    /// dispatched began — the closest observable proxy for "the request's
    /// bytes arrived", and the start instant of a traced request's root
    /// span (so the root duration tracks client-observed latency).
    drain_start: Instant,
}

impl Conn {
    /// Hands out the arrival index of the next ordered request.
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Stages a response frame: a pipelined one goes straight to the
    /// write buffer; an ordered one waits for its turn, releasing any held
    /// successors that become eligible.
    fn enqueue(&mut self, (seq, bytes): ResponseFrame) {
        let Some(seq) = seq else {
            self.outbuf.extend_from_slice(&bytes);
            return;
        };
        self.held.insert(seq, bytes);
        while let Some(bytes) = self.held.remove(&self.next_enqueue) {
            self.outbuf.extend_from_slice(&bytes);
            self.next_enqueue += 1;
        }
    }

    /// Whether the connection has nothing left to do and can close.
    fn drained(&self) -> bool {
        self.broken
            || (self.read_closed
                && self.in_flight == 0
                && self.held.is_empty()
                && self.outpos == self.outbuf.len())
    }
}

/// One reactor's slab of connections. Tokens carry a generation so a
/// completion for a closed connection can never be misdelivered to the
/// slot's next tenant.
struct Slab {
    slots: Vec<Option<Conn>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.generations.push(0);
            self.slots.len() - 1
        });
        let token = (self.generations[slot] << 32) | slot as u64;
        self.slots[slot] = Some(make(token));
        self.live += 1;
        slot
    }

    /// The connection registered under `token`, if it still exists.
    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let slot = (token & 0xffff_ffff) as usize;
        self.slots
            .get_mut(slot)
            .and_then(|s| s.as_mut())
            .filter(|c| c.token == token)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take()?;
        self.generations[slot] += 1;
        self.free.push(slot);
        self.live -= 1;
        Some(conn)
    }
}

fn reactor_loop(idx: usize, shared: &Arc<Shared>) {
    let rshared = Arc::clone(&shared.reactors[idx]);
    let reactor = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trl-server: reactor {idx} failed to create epoll instance: {e}");
            return;
        }
    };
    if let Err(e) = reactor.register_read(rshared.waker.raw_fd(), WAKER_TOKEN) {
        eprintln!("trl-server: reactor {idx} failed to register waker: {e}");
        return;
    }
    let conn_gauge = trl_obs::gauge(&format!("server.reactor.{idx}.connections"));
    let mut slab = Slab::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut draining = false;

    loop {
        // 1. Take in what other threads handed over.
        let (new_conns, completions) = {
            let mut inbox = rshared.inbox.lock().unwrap_or_else(|p| p.into_inner());
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
            )
        };
        for stream in new_conns {
            conn_gauge.inc();
            register_conn(
                stream,
                &reactor,
                &mut slab,
                shared,
                &rshared,
                conn_gauge,
                &mut scratch,
            );
        }
        for completion in completions {
            let Some(conn) = slab.get_mut(completion.token) else {
                continue; // connection died before its work finished
            };
            conn.in_flight -= 1;
            shared
                .served
                .fetch_add(completion.frames.len() as u64, Ordering::Relaxed);
            for frame in completion.frames {
                conn.enqueue(frame);
            }
            flush(conn);
            let slot = (completion.token & 0xffff_ffff) as usize;
            close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
        }

        // 2. Shutdown turns every connection into drain mode: stop
        // reading, finish in-flight work, flush, close. The sweep runs
        // every iteration while draining so connections that raced the
        // flag (or finished their last completion) are reaped.
        if shared.shutdown.load(Ordering::Acquire) {
            draining = true;
        }
        if draining {
            for slot in 0..slab.slots.len() {
                if let Some(conn) = slab.slots[slot].as_mut() {
                    if !conn.read_closed {
                        conn.read_closed = true;
                    }
                    flush(conn);
                }
                close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
            }
            if slab.live == 0 {
                return;
            }
        }

        // 3. Park. With no deadlines pending the wait is indefinite —
        // idle connections cost zero wakeups; the waker interrupts for
        // new connections, completions, and shutdown.
        let has_deadlines = slab
            .slots
            .iter()
            .flatten()
            .any(|c| c.partial_since.is_some() || c.blocked_since.is_some());
        let timeout = if has_deadlines || draining {
            Some(Duration::from_millis(100))
        } else {
            None
        };
        let n = match reactor.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("trl-server: reactor {idx} wait failed: {e}");
                break;
            }
        };
        trl_obs::counter!("server.reactor.wakeups").inc();
        trl_obs::histogram!("server.reactor.ready_events").record_us(n as u64);

        // 4. Service readiness.
        for &event in &events {
            if event.token == WAKER_TOKEN {
                rshared.waker.drain();
                continue;
            }
            let Some(conn) = slab.get_mut(event.token) else {
                continue;
            };
            if event.writable {
                flush(conn);
            }
            if event.readable || event.hangup {
                read_drain(conn, shared, &rshared, &mut scratch);
            }
            let slot = (event.token & 0xffff_ffff) as usize;
            close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
        }

        // 5. Enforce stall deadlines (only armed connections pay).
        if has_deadlines {
            let now = Instant::now();
            for slot in 0..slab.slots.len() {
                if let Some(conn) = slab.slots[slot].as_mut() {
                    let read_stalled = conn
                        .partial_since
                        .is_some_and(|t| now.duration_since(t) > shared.config.read_timeout);
                    let write_stalled = conn
                        .blocked_since
                        .is_some_and(|t| now.duration_since(t) > shared.config.write_timeout);
                    if read_stalled || write_stalled {
                        conn.broken = true;
                    }
                }
                close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
            }
        }
    }

    // Abnormal exit (epoll failure): release what we still hold so the
    // accept gate cannot wedge.
    for slot in 0..slab.slots.len() {
        if slab.slots[slot].is_some() {
            if let Some(conn) = slab.remove(slot) {
                let _ = reactor.deregister(conn.stream.as_raw_fd());
                release_conn(shared, conn_gauge);
            }
        }
    }
}

/// Registers a fresh connection with the reactor and performs its initial
/// read/flush (readiness present before registration would otherwise
/// never deliver an edge).
fn register_conn(
    stream: TcpStream,
    reactor: &Reactor,
    slab: &mut Slab,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
    conn_gauge: &'static trl_obs::Gauge,
    scratch: &mut [u8],
) {
    if stream.set_nonblocking(true).is_err() {
        release_conn(shared, conn_gauge);
        return;
    }
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    let slot = slab.insert(|token| Conn {
        stream,
        token,
        inbuf: Vec::new(),
        inpos: 0,
        outbuf: Vec::new(),
        outpos: 0,
        in_flight: 0,
        next_seq: 0,
        next_enqueue: 0,
        held: BTreeMap::new(),
        read_closed: false,
        broken: false,
        partial_since: None,
        blocked_since: None,
        drain_start: Instant::now(),
    });
    let token = slab.slots[slot].as_ref().map(|c| c.token).unwrap_or(0);
    if reactor.register_edge(fd, token).is_err() {
        slab.remove(slot);
        release_conn(shared, conn_gauge);
        return;
    }
    let conn = slab.slots[slot].as_mut().expect("just inserted");
    if shared.shutdown.load(Ordering::Acquire) {
        conn.read_closed = true;
    } else {
        read_drain(conn, shared, rshared, scratch);
        flush(conn);
    }
}

/// Undoes the accept-side accounting for one connection.
fn release_conn(shared: &Arc<Shared>, conn_gauge: &'static trl_obs::Gauge) {
    conn_gauge.dec();
    shared.active.fetch_sub(1, Ordering::Relaxed);
    trl_obs::gauge!("server.connections_active").dec();
    shared.conn_gate.release();
}

/// Closes the connection in `slot` if it has fully drained.
fn close_if_drained(
    slab: &mut Slab,
    slot: usize,
    reactor: &Reactor,
    shared: &Arc<Shared>,
    conn_gauge: &'static trl_obs::Gauge,
) {
    let done = matches!(
        slab.slots.get(slot),
        Some(Some(conn)) if conn.drained()
    );
    if done {
        if let Some(conn) = slab.remove(slot) {
            let _ = reactor.deregister(conn.stream.as_raw_fd());
            release_conn(shared, conn_gauge);
            // The stream drops (and closes) here; pending completions for
            // this token are dropped by the generation check.
        }
    }
}

/// Drains the socket into the connection's read buffer (edge-triggered
/// discipline: read until `WouldBlock`), then processes every complete
/// frame that arrived.
fn read_drain(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
    scratch: &mut [u8],
) {
    if conn.read_closed || conn.broken {
        return;
    }
    conn.drain_start = Instant::now();
    let mut total = 0u64;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                total += n as u64;
                conn.inbuf.extend_from_slice(&scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
    if total > 0 {
        trl_obs::counter!("server.bytes_read").add(total);
    }
    process_frames(conn, shared, rshared);
}

/// Peels complete frames off the read buffer, dispatches each, and
/// submits the drain's staged query groups to the executor.
fn process_frames(conn: &mut Conn, shared: &Arc<Shared>, rshared: &Arc<ReactorShared>) {
    let mut groups: Vec<QueryGroup> = Vec::new();
    while !conn.read_closed && !conn.broken {
        match scan_frame(&conn.inbuf[conn.inpos..], shared.config.max_frame_len) {
            Ok(FrameScan::Incomplete { .. }) => break,
            Ok(FrameScan::Frame {
                kind,
                payload,
                consumed,
            }) => {
                conn.inpos += consumed;
                match Request::decode(kind, &payload) {
                    Ok(request) => dispatch(conn, request, &mut groups, shared, rshared),
                    Err(e) => protocol_reject(conn, &e.to_string()),
                }
            }
            Err(e) => {
                protocol_reject(conn, &e.to_string());
                break;
            }
        }
    }
    // Compact the consumed prefix away.
    if conn.inpos == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.inpos = 0;
    } else if conn.inpos > 0 {
        conn.inbuf.drain(..conn.inpos);
        conn.inpos = 0;
    }
    // A leftover partial frame arms the read deadline; an empty buffer
    // (or a closed read side) disarms it.
    conn.partial_since = if conn.inbuf.is_empty() || conn.read_closed {
        None
    } else if conn.partial_since.is_some() {
        conn.partial_since
    } else {
        Some(Instant::now())
    };
    for group in groups {
        submit(conn, group, shared, rshared);
    }
    flush(conn);
}

/// Typed rejection, then drain-and-close: framing cannot resync.
fn protocol_reject(conn: &mut Conn, message: &str) {
    let seq = conn.take_seq();
    let resp = Response::Error(WireError::Invalid(message.to_string()));
    conn.enqueue((Some(seq), encode_response(&resp)));
    conn.read_closed = true;
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = write_response(&mut bytes, resp);
    bytes
}

/// Handles one decoded request. Inline kinds (ping, stats, shutdown)
/// answer immediately; builds offload to a thread ([`spawn_build`]);
/// query-bearing kinds are staged into this drain's `groups` ([`stage`])
/// and submitted once the drain ends.
fn dispatch(
    conn: &mut Conn,
    request: Request,
    groups: &mut Vec<QueryGroup>,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
) {
    trl_obs::counter!("server.requests").inc();
    match request {
        Request::Ping => {
            trl_obs::counter!("server.requests.ping").inc();
            respond_inline(conn, shared, &Response::Pong);
        }
        Request::Stats => {
            trl_obs::counter!("server.requests.stats").inc();
            let started = Instant::now();
            // The engine fills everything it can see; the connection
            // counters are the server's to overlay.
            let mut snapshot = shared.engine.stats();
            snapshot.connections_accepted = shared.connections.load(Ordering::Relaxed);
            snapshot.connections_active = shared.active.load(Ordering::Relaxed);
            let resp = Response::Stats(snapshot);
            trl_obs::histogram!("server.service_us").record(started.elapsed());
            respond_inline(conn, shared, &resp);
        }
        Request::Shutdown => {
            trl_obs::counter!("server.requests.shutdown").inc();
            respond_inline(conn, shared, &Response::ShuttingDown);
            conn.read_closed = true;
            shared.begin_shutdown();
        }
        Request::Query { key, query } => {
            trl_obs::counter!("server.requests.query").inc();
            let reply = Reply::Answer(conn.take_seq());
            stage(conn, reply, key, vec![query], groups, shared);
        }
        Request::Batch { key, queries } => {
            trl_obs::counter!("server.requests.batch").inc();
            let reply = Reply::Batch(conn.take_seq());
            stage(conn, reply, key, queries, groups, shared);
        }
        Request::Trace { ctx, key, query } => {
            trl_obs::counter!("server.requests.trace").inc();
            let reply = Reply::Traced {
                seq: conn.take_seq(),
                client: ctx,
            };
            stage(conn, reply, key, vec![query], groups, shared);
        }
        Request::PipelinedBatch { id, key, queries } => {
            trl_obs::counter!("server.requests.pipeline").inc();
            trl_obs::histogram!("server.pipeline.batch_size").record_us(queries.len() as u64);
            stage(conn, Reply::Pipelined(id), key, queries, groups, shared);
        }
        request @ (Request::Compile(_)
        | Request::LearnPsdd { .. }
        | Request::CompileSpace { .. }
        | Request::CompileClassifier(_)
        | Request::Optimize { .. }) => {
            let kind = build_kind(&request);
            trl_obs::counter(&format!("server.requests.{kind}")).inc();
            let admitted = match request {
                // Reject an unknown key on the reactor thread: no admission
                // slot or build thread for a request that cannot do work.
                Request::Optimize { key } if shared.engine.get(key).is_none() => {
                    Err(WireError::UnknownKey(key))
                }
                _ => shared.try_admit(1),
            };
            match admitted {
                Ok(()) => {
                    let seq = conn.take_seq();
                    spawn_build(conn, seq, kind, request, shared, rshared);
                }
                Err(e) => respond_inline(conn, shared, &Response::Error(e)),
            }
        }
    }
}

/// Stages an inline (order-preserving) response produced on the reactor
/// thread itself.
fn respond_inline(conn: &mut Conn, shared: &Arc<Shared>, resp: &Response) {
    let seq = conn.take_seq();
    answer_now(conn, shared, (Some(seq), encode_response(resp)));
}

/// Stages a response produced on the reactor thread.
fn answer_now(conn: &mut Conn, shared: &Arc<Shared>, frame: ResponseFrame) {
    shared.served.fetch_add(1, Ordering::Relaxed);
    conn.enqueue(frame);
}

/// How one staged segment's answers go back on the wire: the request kind
/// that carried the queries decides the response framing.
#[derive(Clone, Copy)]
enum Reply {
    /// A [`Request::PipelinedBatch`]: out of order, under the client's id.
    Pipelined(u64),
    /// A [`Request::Query`]: one ordered [`Response::Answer`] at `seq`.
    Answer(u64),
    /// A [`Request::Batch`]: one ordered [`Response::Batch`] at `seq`.
    Batch(u64),
    /// A [`Request::Trace`]: one ordered [`Response::Traced`] at `seq`,
    /// its span tree rooted under the client's context.
    Traced { seq: u64, client: TraceContext },
}

impl Reply {
    /// The name this request kind carries in the slow-query log.
    fn kind(self) -> &'static str {
        match self {
            Reply::Pipelined(_) => "pipeline",
            Reply::Answer(_) => "query",
            Reply::Batch(_) => "batch",
            Reply::Traced { .. } => "trace",
        }
    }

    /// Frames a result for this segment. A traced segment's answers frame
    /// as a plain [`Response::Answer`] — what an untraced request writes;
    /// the [`Response::Traced`] frame is built once its span tree is
    /// collected.
    fn frame(self, result: Result<Vec<QueryAnswer>, WireError>) -> ResponseFrame {
        let (seq, resp) = match (self, result) {
            (Reply::Pipelined(id), result) => (None, Response::PipelinedBatch { id, result }),
            (Reply::Answer(seq) | Reply::Batch(seq) | Reply::Traced { seq, .. }, Err(e)) => {
                (Some(seq), Response::Error(e))
            }
            (Reply::Batch(seq), Ok(answers)) => (Some(seq), Response::Batch(answers)),
            (Reply::Answer(seq) | Reply::Traced { seq, .. }, Ok(answers)) => {
                (Some(seq), single_answer(answers, Response::Answer))
            }
        };
        (seq, encode_response(&resp))
    }
}

/// The response for a single-query request: `wrap` applied to its one
/// answer. A single query always yields one outcome; guard anyway rather
/// than panic on a worker thread.
fn single_answer(
    answers: Vec<QueryAnswer>,
    wrap: impl FnOnce(QueryAnswer) -> Response,
) -> Response {
    match answers.into_iter().next() {
        Some(answer) => wrap(answer),
        None => Response::Error(WireError::Engine("empty batch result".into())),
    }
}

/// Query-bearing frames from one readiness drain, grouped per (registry
/// key, trace context) so the executor sees one submission per group
/// instead of one per frame. Only a [`Request::Trace`] brings a context
/// at staging time, and it is freshly adopted, so every traced request
/// gets a group — and a submission — of its own.
struct QueryGroup {
    key: u64,
    artifact: Artifact,
    /// The forced context of a traced request's group.
    ctx: Option<TraceContext>,
    /// Keeps recording on for a traced request until its tree is
    /// collected, whatever the sampling rate.
    forced: Option<ForcedTracing>,
    /// `(reply framing, that request's queries)` in arrival order.
    segments: Vec<(Reply, Vec<Query>)>,
}

/// Admits, resolves and validates one query-bearing request and stages it
/// into this drain's groups. A request that fails a step is answered at
/// once with its typed error and leaves the rest of the drain untouched;
/// validating per request up front means one malformed frame cannot
/// poison the coalesced submission its neighbors ride in.
fn stage(
    conn: &mut Conn,
    reply: Reply,
    key: u64,
    queries: Vec<Query>,
    groups: &mut Vec<QueryGroup>,
    shared: &Arc<Shared>,
) {
    if queries.is_empty() && matches!(reply, Reply::Pipelined(_)) {
        // A zero-length pipelined frame is a legal no-op.
        answer_now(conn, shared, reply.frame(Ok(Vec::new())));
        return;
    }
    let n = queries.len();
    if let Err(e) = shared.try_admit(n) {
        answer_now(conn, shared, reply.frame(Err(e)));
        return;
    }
    let artifact = match groups.iter().find(|g| g.key == key) {
        Some(g) => Some(g.artifact.clone()),
        None => shared.engine.get(key),
    };
    let checked = artifact.ok_or(WireError::UnknownKey(key)).and_then(|a| {
        queries
            .iter()
            .try_for_each(|q| a.validate(q))
            .map_err(engine_error_to_wire)?;
        Ok(a)
    });
    let artifact = match checked {
        Ok(a) => a,
        Err(e) => {
            shared.release_admitted(n);
            answer_now(conn, shared, reply.frame(Err(e)));
            return;
        }
    };
    // A traced request adopts the client's trace id with a fresh root
    // span for the server's subtree.
    let ctx = match reply {
        Reply::Traced { client, .. } => Some(TraceContext::adopt(client.trace_id)),
        _ => None,
    };
    match groups.iter_mut().find(|g| g.key == key && g.ctx == ctx) {
        Some(g) => g.segments.push((reply, queries)),
        None => groups.push(QueryGroup {
            key,
            artifact,
            ctx,
            forced: ctx.map(|_| trl_obs::force_tracing()),
            segments: vec![(reply, queries)],
        }),
    }
}

fn engine_error_to_wire(e: EngineError) -> WireError {
    match e {
        EngineError::Structure(m) => WireError::Invalid(m),
        other => WireError::Engine(other.to_string()),
    }
}

/// Submits one staged group as a single executor batch. On completion the
/// outcomes are split back per segment, each segment's reply is encoded,
/// and — for a sampled or traced group — the request's root span closes
/// the tree. The one place the server hands queries to the executor.
fn submit(conn: &mut Conn, group: QueryGroup, shared: &Arc<Shared>, rshared: &Arc<ReactorShared>) {
    let QueryGroup {
        artifact,
        ctx,
        forced,
        segments,
        ..
    } = group;
    let replies: Vec<(Reply, usize)> = segments.iter().map(|(r, q)| (*r, q.len())).collect();
    let total: usize = replies.iter().map(|(_, n)| n).sum();
    let queries: Vec<Query> = segments.into_iter().flat_map(|(_, q)| q).collect();
    // The client's span parents a traced request's root; a sampled one
    // is rooted locally.
    let parent = match replies[0].0 {
        Reply::Traced { client, .. } => client.span_id,
        _ => 0,
    };
    let ctx = ctx.or_else(trl_obs::maybe_sample);
    let drain_start = conn.drain_start;
    if let Some(ctx) = ctx {
        trl_obs::record_span_under(ctx, "reactor.drain", drain_start, drain_start.elapsed());
    }
    let token = conn.token;
    let cb_shared = Arc::clone(shared);
    let cb_rshared = Arc::clone(rshared);
    let submitted = Instant::now();
    let slow_query = shared.config.slow_query;
    let fallback: Vec<Reply> = replies.iter().map(|(r, _)| *r).collect();
    let on_done = move |outcomes: Vec<QueryOutcome>| {
        cb_shared.release_admitted(total);
        let handle_time = submitted.elapsed();
        trl_obs::record_span("server.handle", handle_time);
        let wstart = Instant::now();
        let mut frames = Vec::with_capacity(replies.len());
        let mut traced = None;
        let mut outcomes = outcomes.into_iter();
        for &(reply, len) in &replies {
            trl_obs::histogram!("server.service_us").record(handle_time);
            trl_obs::histogram!("server.request_us").record(handle_time);
            let answers: Vec<QueryAnswer> = outcomes.by_ref().take(len).map(|o| o.answer).collect();
            match reply {
                // The traced frame cannot contain the cost of its own
                // encode, so the plain answer frame is encoded as the
                // write probe and the answer waits for its span tree.
                Reply::Traced { seq, .. } => {
                    drop(reply.frame(Ok(answers.clone())));
                    traced = Some((seq, answers));
                }
                _ => frames.push(reply.frame(Ok(answers))),
            }
        }
        if let Some(ctx) = ctx {
            trl_obs::record_span_under(ctx, "server.write", wstart, wstart.elapsed());
            trl_obs::record_root_span(
                ctx,
                parent,
                "server.request",
                drain_start,
                drain_start.elapsed(),
            );
        }
        let slow = slow_query.is_some_and(|threshold| handle_time > threshold);
        let spans = match ctx {
            Some(ctx) if slow || traced.is_some() => trl_obs::collect_trace(ctx.trace_id),
            _ => Vec::new(),
        };
        if slow {
            log_slow_query(replies[0].0.kind(), handle_time, &spans);
        }
        if let Some((seq, answers)) = traced {
            let resp = single_answer(answers, |answer| Response::Traced { answer, spans });
            frames.push((Some(seq), encode_response(&resp)));
        }
        drop(forced);
        cb_rshared.push_completion(Completion { token, frames });
    };
    match shared
        .engine
        .submit_artifact_batch(&artifact, queries, ctx, on_done)
    {
        Ok(()) => conn.in_flight += 1,
        Err(e) => {
            // Unreachable in practice (every segment was validated when it
            // was staged), but a defensive rejection keeps each one
            // answered.
            shared.release_admitted(total);
            let wire = engine_error_to_wire(e);
            for reply in fallback {
                answer_now(conn, shared, reply.frame(Err(wire.clone())));
            }
        }
    }
}

/// The per-kind counter suffix and thread name of a build request.
fn build_kind(request: &Request) -> &'static str {
    match request {
        Request::Compile(_) => "compile",
        Request::LearnPsdd { .. } => "learn",
        Request::CompileSpace { .. } => "space",
        Request::CompileClassifier(_) => "classifier",
        _ => "optimize",
    }
}

/// Runs one artifact build against the engine and frames its answer.
/// PSDD learning reports progress through the stats frame as it runs
/// (`engine.learn.*`); an optimize keeps in-flight queries serving from
/// the original circuit until the smaller one is swapped in.
fn build(engine: &Engine, request: Request) -> Response {
    let built = match request {
        Request::Compile(cnf) => {
            let (key, circuit) = engine.compile(&cnf);
            Ok(Response::Compiled {
                key,
                num_vars: circuit.num_vars() as u32,
                nodes: circuit.raw().node_count() as u32,
                edges: circuit.raw().edge_count() as u32,
            })
        }
        Request::LearnPsdd { cnf, alpha, data } => {
            engine
                .learn_psdd(&cnf, &data, alpha)
                .map(|(key, psdd)| Response::Learned {
                    key,
                    num_vars: psdd.num_vars() as u32,
                    nodes: psdd.node_count() as u32,
                    log_likelihood: psdd.train_log_likelihood(),
                })
        }
        Request::CompileSpace {
            num_nodes,
            edges,
            s,
            t,
        } => engine
            .compile_space(num_nodes as usize, &edges, s, t)
            .map(|(key, space)| Response::SpaceCompiled {
                key,
                num_edge_vars: space.num_edge_vars() as u32,
                nodes: space.node_count() as u32,
                paths: space.path_count(),
            }),
        Request::CompileClassifier(cnf) => {
            let (key, clf) = engine.compile_classifier(&cnf);
            Ok(Response::ClassifierCompiled {
                key,
                num_vars: clf.num_vars() as u32,
                nodes: clf.node_count() as u32,
            })
        }
        Request::Optimize { key } => engine.optimize(key).map(|r| Response::Optimized {
            key: r.key,
            nodes_before: r.nodes_before as u32,
            nodes_after: r.nodes_after as u32,
            swapped: r.swapped,
            wall_us: r.wall_us,
        }),
        other => Err(EngineError::Structure(format!(
            "{other:?} is not a build request"
        ))),
    };
    built.unwrap_or_else(|e| Response::Error(engine_error_to_wire(e)))
}

/// Offloads an admitted artifact build to its own thread: construction
/// can take arbitrarily long and must not stall the reactor's event loop.
/// The thread answers the ordered response for `seq`. The one place the
/// server spawns build threads.
fn spawn_build(
    conn: &mut Conn,
    seq: u64,
    kind: &'static str,
    request: Request,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
) {
    let token = conn.token;
    let cb_shared = Arc::clone(shared);
    let cb_rshared = Arc::clone(rshared);
    let slow_query = shared.config.slow_query;
    let ctx = trl_obs::maybe_sample();
    let spawned = std::thread::Builder::new()
        .name(format!("trl-server-{kind}"))
        .spawn(move || {
            let started = Instant::now();
            // Installing the sampled context means registry hit/compile
            // and minimize-pass spans inside the build land in the tree.
            let resp = trl_obs::with_current_trace(ctx, || build(&cb_shared.engine, request));
            cb_shared.release_admitted(1);
            let handle_time = started.elapsed();
            trl_obs::record_span("server.handle", handle_time);
            trl_obs::histogram!("server.service_us").record(handle_time);
            trl_obs::histogram!("server.request_us").record(handle_time);
            if let Some(ctx) = ctx {
                trl_obs::record_root_span(ctx, 0, "server.request", started, handle_time);
            }
            if let Some(threshold) = slow_query {
                if handle_time > threshold {
                    let spans = ctx.map_or_else(Vec::new, |c| trl_obs::collect_trace(c.trace_id));
                    log_slow_query(kind, handle_time, &spans);
                }
            }
            cb_rshared.push_completion(Completion {
                token,
                frames: vec![(Some(seq), encode_response(&resp))],
            });
        });
    match spawned {
        Ok(handle) => {
            conn.in_flight += 1;
            shared.track_thread(handle);
        }
        Err(_) => {
            // Could not spawn a thread (resource exhaustion): the request
            // still gets an answer, just a typed failure.
            shared.release_admitted(1);
            let resp = Response::Error(WireError::Engine(format!(
                "server could not spawn a {kind} thread"
            )));
            answer_now(conn, shared, (Some(seq), encode_response(&resp)));
        }
    }
}

/// One JSON line on stderr describing a request that blew the
/// [`ServerConfig::slow_query`] threshold. A sampled request logs its
/// full collected span tree under `"spans"`; an unsampled one logs a
/// synthesized root-only tree so the line's shape is uniform either way.
fn log_slow_query(kind: &'static str, total: Duration, spans: &[TraceSpanData]) {
    let spans_json = if spans.is_empty() {
        trl_obs::tree_json(&[TraceSpanData {
            span_id: 0,
            parent_id: 0,
            name: "server.request".into(),
            start_us: 0,
            dur_us: total.as_micros() as u64,
        }])
    } else {
        trl_obs::tree_json(spans)
    };
    // A failed stderr write has no recovery path worth taking.
    let _ = writeln!(
        io::stderr().lock(),
        "{{\"slow_query\":\"{kind}\",\"total_us\":{},\"spans\":{spans_json}}}",
        total.as_micros(),
    );
}

/// Writes staged response bytes until the socket stops accepting them
/// (edge-triggered discipline).
fn flush(conn: &mut Conn) {
    if conn.broken {
        return;
    }
    let mut total = 0u64;
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => {
                conn.broken = true;
                break;
            }
            Ok(n) => {
                conn.outpos += n;
                total += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
    if total > 0 {
        trl_obs::counter!("server.bytes_written").add(total);
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        conn.blocked_since = None;
    } else {
        if conn.outpos > OUTBUF_COMPACT {
            conn.outbuf.drain(..conn.outpos);
            conn.outpos = 0;
        }
        if conn.blocked_since.is_none() {
            conn.blocked_since = Some(Instant::now());
        }
    }
}
