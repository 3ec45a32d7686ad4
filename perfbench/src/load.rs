//! The load generator: pre-encoded pipelined frames over at most two
//! loopback connections, driven closed-loop from one thread or
//! open-loop from two (a sender that sleeps until each frame is due and
//! a receiver blocked in epoll). Every response is compared byte for
//! byte with the in-process engine's pre-encoded answer.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::check::BlockRef;
use crate::stats::{latency_from_due_us, Figures, Tally, Verdict};
use trl_engine::{Engine, Query, QueryAnswer};
use trl_server::protocol::HEADER_LEN;
use trl_server::{
    read_response, scan_frame, write_request, write_response, Event, FrameScan, Reactor, Request,
    Response, DEFAULT_MAX_FRAME_LEN,
};

/// A run gives up on a connection that makes no progress for this long.
const STALL: Duration = Duration::from_secs(30);

/// A fixed pool of frames with their encoded requests (the frame id is
/// the pool index), the expected encoded responses, and the verdicts a
/// byte-identical response earns.
pub struct Pool {
    /// `(registry key, queries)` per frame.
    pub frames: Vec<(u64, Vec<Query>)>,
    /// The reference engine's answers per frame.
    pub answers: Vec<Vec<QueryAnswer>>,
    /// Encoded request frames.
    pub req: Vec<Vec<u8>>,
    /// Expected encoded response frames.
    pub resp: Vec<Vec<u8>>,
    /// What one byte-identical response adds to the tally.
    pub tally: Vec<Tally>,
}

impl Pool {
    /// Answers every frame on the separate reference engine, encodes
    /// requests and expected responses, and grades each answer against
    /// the independent reference where one covers it.
    pub fn build(reference: &Engine, frames: Vec<(u64, Vec<Query>)>, oracle: &BlockRef) -> Pool {
        let mut pool = Pool {
            frames: Vec::with_capacity(frames.len()),
            answers: Vec::with_capacity(frames.len()),
            req: Vec::with_capacity(frames.len()),
            resp: Vec::with_capacity(frames.len()),
            tally: Vec::with_capacity(frames.len()),
        };
        for (id, (key, queries)) in frames.into_iter().enumerate() {
            let artifact = reference.get(key).expect("reference artifact resident");
            let answers: Vec<QueryAnswer> = reference
                .run_artifact_batch(&artifact, queries.clone())
                .expect("reference answers the frame")
                .into_iter()
                .map(|o| o.answer)
                .collect();
            let mut tally = Tally::default();
            for (q, a) in queries.iter().zip(&answers) {
                let verdict = oracle.verdict(q, a).unwrap_or(Verdict::Ok);
                tally.record(verdict, is_float(a), 1);
            }
            let id = id as u64;
            let mut req = Vec::new();
            write_request(
                &mut req,
                &Request::PipelinedBatch {
                    id,
                    key,
                    queries: queries.clone(),
                },
            )
            .expect("encode request");
            let mut resp = Vec::new();
            write_response(
                &mut resp,
                &Response::PipelinedBatch {
                    id,
                    result: Ok(answers.clone()),
                },
            )
            .expect("encode expected response");
            pool.frames.push((key, queries));
            pool.answers.push(answers);
            pool.req.push(req);
            pool.resp.push(resp);
            pool.tally.push(tally);
        }
        pool
    }

    /// Frames in the pool.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Grades one received response frame for frame `id`.
    fn grade(&self, id: usize, frame: &[u8], tally: &mut Tally, problems: &mut Vec<String>) {
        if frame == self.resp[id].as_slice() {
            tally.merge(&self.tally[id]);
            return;
        }
        let n = self.frames[id].1.len() as u64;
        let verdict = match read_response(&mut &frame[..], DEFAULT_MAX_FRAME_LEN) {
            Ok(Response::PipelinedBatch { result: Err(e), .. }) => {
                note(problems, format!("frame {id} refused: {e}"));
                Verdict::Error
            }
            other => {
                note(
                    problems,
                    format!("frame {id} differs from the engine: {other:?}"),
                );
                Verdict::EngineMismatch
            }
        };
        tally.record(verdict, false, n);
    }
}

/// Whether an answer is float-valued.
pub fn is_float(a: &QueryAnswer) -> bool {
    matches!(
        a,
        QueryAnswer::Wmc(_)
            | QueryAnswer::Marginals { .. }
            | QueryAnswer::MaxWeight(Some(_))
            | QueryAnswer::LogLikelihood(_)
            | QueryAnswer::Probability(_)
    )
}

/// Keeps the first few problem reports of a run.
pub fn note(problems: &mut Vec<String>, p: String) {
    if problems.len() < 8 {
        problems.push(p);
    }
}

/// One blocking request/response exchange.
pub fn call(stream: &mut TcpStream, req: &Request) -> Result<Response, String> {
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    write_request(stream, req).map_err(|e| format!("send: {e}"))?;
    match read_response(stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Response::Error(e)) => Err(format!("server error: {e}")),
        Ok(r) => Ok(r),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// One load connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    inpos: usize,
    /// `(pool index, bytes already written)` of frames being sent.
    out: VecDeque<(usize, usize)>,
    /// `(frame id, reference instant)` of frames awaiting an answer.
    in_flight: Vec<(u64, Instant)>,
    cursor: usize,
}

impl Conn {
    /// Connects with Nagle off; `start` is where this connection begins
    /// walking the frame pool.
    pub fn connect(addr: SocketAddr, start: usize) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            stream,
            inbuf: Vec::new(),
            inpos: 0,
            out: VecDeque::new(),
            in_flight: Vec::new(),
            cursor: start,
        }
    }

    /// The underlying socket.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one pre-encoded request and reads its response, blocking:
    /// a depth-1 round trip. Returns the raw response frame.
    pub fn round_trip(&mut self, req: &[u8]) -> Result<Vec<u8>, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        self.stream.write_all(req).map_err(|e| e.to_string())?;
        let mut frame = vec![0u8; HEADER_LEN];
        self.stream
            .read_exact(&mut frame)
            .map_err(|e| e.to_string())?;
        let need = match scan_frame(&frame, DEFAULT_MAX_FRAME_LEN).map_err(|e| e.to_string())? {
            FrameScan::Incomplete { need } => need,
            FrameScan::Frame { consumed, .. } => consumed,
        };
        frame.resize(need, 0);
        self.stream
            .read_exact(&mut frame[HEADER_LEN..])
            .map_err(|e| e.to_string())?;
        Ok(frame)
    }

    fn next_frame(&mut self, pool_len: usize) -> usize {
        let idx = self.cursor % pool_len;
        self.cursor += 1;
        idx
    }

    /// Writes queued bytes until the socket would block.
    fn flush(&mut self, pool: &Pool) -> Result<(), String> {
        while let Some(&mut (idx, ref mut pos)) = self.out.front_mut() {
            let bytes = &pool.req[idx];
            match self.stream.write(&bytes[*pos..]) {
                Ok(0) => return Err("server closed a load connection".into()),
                Ok(n) => {
                    *pos += n;
                    if *pos == bytes.len() {
                        self.out.pop_front();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        Ok(())
    }

    /// Reads until the socket would block; false if the peer closed.
    fn fill_inbuf(&mut self, scratch: &mut [u8]) -> Result<(), String> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err("server closed a load connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// Pops the next complete response frame, with its id.
    fn next_response(&mut self) -> Result<Option<(u64, std::ops::Range<usize>)>, String> {
        let pending = &self.inbuf[self.inpos..];
        match scan_frame(pending, DEFAULT_MAX_FRAME_LEN) {
            Ok(FrameScan::Incomplete { .. }) => {
                if self.inpos == self.inbuf.len() {
                    self.inbuf.clear();
                    self.inpos = 0;
                } else if self.inpos > 1 << 16 {
                    self.inbuf.drain(..self.inpos);
                    self.inpos = 0;
                }
                Ok(None)
            }
            Ok(FrameScan::Frame { consumed, .. }) => {
                let range = self.inpos..self.inpos + consumed;
                let id_bytes = self
                    .inbuf
                    .get(self.inpos + HEADER_LEN..self.inpos + HEADER_LEN + 8)
                    .ok_or("response frame shorter than an id")?;
                let id = u64::from_le_bytes(id_bytes.try_into().expect("8 bytes"));
                self.inpos += consumed;
                Ok(Some((id, range)))
            }
            Err(e) => Err(format!("malformed response frame: {e}")),
        }
    }
}

/// When a measured phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this long.
    Time(Duration),
    /// After this many frames have been answered.
    Frames(u64),
}

/// What one measured phase saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Frames answered inside the phase.
    pub frames: u64,
    /// Queries in those frames.
    pub queries: u64,
    /// Phase wall time, seconds.
    pub elapsed_s: f64,
    /// Per answered frame, latency in microseconds (from send, or from
    /// due time in the open loop).
    pub latencies_us: Vec<f64>,
    /// How late each frame was sent, microseconds.
    pub lags_us: Vec<f64>,
    /// Every answer received, graded.
    pub tally: Tally,
    /// The first few problems seen.
    pub problems: Vec<String>,
}

impl Window {
    /// Queries answered per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed_s.max(1e-9)
    }

    /// Appends a phase that followed this one straight away.
    pub fn append(&mut self, next: Window) {
        self.frames += next.frames;
        self.queries += next.queries;
        self.elapsed_s += next.elapsed_s;
        self.latencies_us.extend(next.latencies_us);
        self.lags_us.extend(next.lags_us);
        self.tally.merge(&next.tally);
        for p in next.problems {
            note(&mut self.problems, p);
        }
    }

    /// Throughput and latency percentiles of the phase.
    pub fn figures(&self) -> Figures {
        Figures::of(self.queries, self.elapsed_s, &self.latencies_us)
    }
}

/// Closed loop: each connection keeps `depth` frames in flight, sending
/// the next the moment one is answered, all from this thread.
pub fn closed_loop(conns: &mut [Conn], pool: &Pool, depth: usize, limit: Limit) -> Window {
    let mut w = Window::default();
    let reactor = Reactor::new().expect("load reactor");
    for (i, c) in conns.iter_mut().enumerate() {
        c.stream.set_nonblocking(true).expect("nonblocking");
        reactor
            .register_edge(c.stream.as_raw_fd(), i as u64)
            .expect("register load connection");
    }
    let start = Instant::now();
    let (deadline, max_frames) = match limit {
        Limit::Time(d) => (start + d, u64::MAX),
        Limit::Frames(n) => (start + STALL, n),
    };
    let mut issued = 0u64;
    let open = |c: &mut Conn, now: Instant, freed: Instant, issued: &mut u64, w: &mut Window| {
        while c.in_flight.len() < depth && now < deadline && *issued < max_frames {
            let idx = c.next_frame(pool.len());
            c.out.push_back((idx, 0));
            c.in_flight.push((idx as u64, Instant::now()));
            w.lags_us
                .push(now.saturating_duration_since(freed).as_secs_f64() * 1e6);
            *issued += 1;
        }
    };
    for c in conns.iter_mut() {
        open(c, start, start, &mut issued, &mut w);
        if let Err(e) = c.flush(pool) {
            note(&mut w.problems, e);
        }
    }
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 1 << 18];
    let mut last_progress = Instant::now();
    let mut ended: Option<Instant> = None;
    'outer: loop {
        let now = Instant::now();
        let idle = conns.iter().all(|c| c.in_flight.is_empty());
        if idle && (now >= deadline || issued >= max_frames) {
            break;
        }
        if now.duration_since(last_progress) > STALL {
            note(&mut w.problems, "load connection stalled".into());
            break;
        }
        if reactor
            .wait(&mut events, Some(Duration::from_millis(10)))
            .is_err()
        {
            continue;
        }
        for ev in &events {
            let c = &mut conns[ev.token as usize];
            if ev.writable {
                if let Err(e) = c.flush(pool) {
                    note(&mut w.problems, e);
                    break 'outer;
                }
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            if let Err(e) = c.fill_inbuf(&mut scratch) {
                note(&mut w.problems, e);
                break 'outer;
            }
            loop {
                let (id, range) = match c.next_response() {
                    Ok(Some(r)) => r,
                    Ok(None) => break,
                    Err(e) => {
                        note(&mut w.problems, e);
                        break 'outer;
                    }
                };
                let arrived = Instant::now();
                last_progress = arrived;
                let Some(at) = c.in_flight.iter().position(|(f, _)| *f == id) else {
                    note(
                        &mut w.problems,
                        format!("response id {id} was not in flight"),
                    );
                    break 'outer;
                };
                let (_, sent) = c.in_flight.swap_remove(at);
                pool.grade(id as usize, &c.inbuf[range], &mut w.tally, &mut w.problems);
                if arrived <= deadline && w.frames < max_frames {
                    w.frames += 1;
                    w.queries += pool.frames[id as usize].1.len() as u64;
                    w.latencies_us.push(latency_from_due_us(sent, arrived));
                    ended = Some(arrived);
                }
                open(c, Instant::now(), arrived, &mut issued, &mut w);
            }
            if let Err(e) = c.flush(pool) {
                note(&mut w.problems, e);
                break 'outer;
            }
        }
    }
    let end = match limit {
        Limit::Time(_) => deadline,
        Limit::Frames(_) => ended.unwrap_or_else(Instant::now),
    };
    w.elapsed_s = end.duration_since(start).as_secs_f64();
    for c in conns.iter() {
        let _ = reactor.deregister(c.stream.as_raw_fd());
    }
    w
}

/// Open loop: frames fall due at a fixed `rate` per second, round-robin
/// over the connections, whatever the server's progress. The calling
/// thread sends (sleeping until each due time); one spawned thread
/// receives. Latency counts from each frame's due time.
pub fn open_loop(conns: &mut [Conn], pool: &Pool, rate: f64, duration: Duration) -> Window {
    const FREE: u64 = u64::MAX;
    let due_ns: Vec<AtomicU64> = (0..pool.len()).map(|_| AtomicU64::new(FREE)).collect();
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut writers: Vec<TcpStream> = Vec::new();
    for c in conns.iter_mut() {
        c.stream.set_nonblocking(true).expect("nonblocking");
        writers.push(c.stream.try_clone().expect("clone load connection"));
    }
    let start = Instant::now();
    let (mut w, lags, problems) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive_open(conns, pool, &due_ns, &sent, &done, start));
        let mut lags = Vec::new();
        let mut problems = Vec::new();
        let mut k = 0u64;
        'send: loop {
            let due_off = Duration::from_secs_f64(k as f64 / rate);
            if due_off >= duration {
                break;
            }
            let due = start + due_off;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let idx = (k % pool.len() as u64) as usize;
            // A backlog deeper than the pool holds this frame back until
            // its id is answered; it stays due at its original instant.
            let blocked = Instant::now();
            while due_ns[idx].load(Ordering::Acquire) != FREE {
                if blocked.elapsed() > STALL {
                    note(&mut problems, "open-loop backlog never drained".into());
                    break 'send;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            due_ns[idx].store(due_off.as_nanos() as u64, Ordering::Release);
            let which = (k % writers.len() as u64) as usize;
            let stream = &mut writers[which];
            let sent_at = Instant::now();
            lags.push(latency_from_due_us(due, sent_at));
            let bytes = &pool.req[idx];
            let mut pos = 0;
            while pos < bytes.len() {
                match stream.write(&bytes[pos..]) {
                    Ok(0) => {
                        note(&mut problems, "server closed a load connection".into());
                        break 'send;
                    }
                    Ok(n) => pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(20))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        note(&mut problems, format!("write failed: {e}"));
                        break 'send;
                    }
                }
            }
            sent.fetch_add(1, Ordering::Release);
            k += 1;
        }
        done.store(true, Ordering::Release);
        let w = receiver.join().expect("open-loop receiver");
        (w, lags, problems)
    });
    w.lags_us = lags;
    for p in problems {
        note(&mut w.problems, p);
    }
    w.elapsed_s = duration.as_secs_f64();
    w
}

fn receive_open(
    conns: &mut [Conn],
    pool: &Pool,
    due_ns: &[AtomicU64],
    sent: &AtomicU64,
    done: &AtomicBool,
    start: Instant,
) -> Window {
    let mut w = Window::default();
    let reactor = Reactor::new().expect("receiver reactor");
    for (i, c) in conns.iter().enumerate() {
        reactor
            .register_edge(c.stream.as_raw_fd(), i as u64)
            .expect("register load connection");
    }
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 1 << 18];
    let mut received = 0u64;
    let mut last_progress = Instant::now();
    'outer: loop {
        if done.load(Ordering::Acquire) && received == sent.load(Ordering::Acquire) {
            break;
        }
        if last_progress.elapsed() > STALL {
            note(&mut w.problems, "open-loop receiver stalled".into());
            break;
        }
        if reactor
            .wait(&mut events, Some(Duration::from_millis(10)))
            .is_err()
        {
            continue;
        }
        for ev in &events {
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let c = &mut conns[ev.token as usize];
            if let Err(e) = c.fill_inbuf(&mut scratch) {
                note(&mut w.problems, e);
                break 'outer;
            }
            loop {
                let (id, range) = match c.next_response() {
                    Ok(Some(r)) => r,
                    Ok(None) => break,
                    Err(e) => {
                        note(&mut w.problems, e);
                        break 'outer;
                    }
                };
                let arrived = Instant::now();
                last_progress = arrived;
                let Some(slot) = due_ns.get(id as usize) else {
                    note(
                        &mut w.problems,
                        format!("response id {id} outside the pool"),
                    );
                    break 'outer;
                };
                let due = slot.swap(u64::MAX, Ordering::AcqRel);
                if due == u64::MAX {
                    note(
                        &mut w.problems,
                        format!("response id {id} was not in flight"),
                    );
                    break 'outer;
                }
                let due_at = start + Duration::from_nanos(due);
                pool.grade(id as usize, &c.inbuf[range], &mut w.tally, &mut w.problems);
                received += 1;
                w.frames += 1;
                w.queries += pool.frames[id as usize].1.len() as u64;
                w.latencies_us.push(latency_from_due_us(due_at, arrived));
            }
        }
    }
    for c in conns.iter() {
        let _ = reactor.deregister(c.stream.as_raw_fd());
    }
    w
}

/// Connects `n` load connections spread evenly over the pool.
pub fn connect_all(addr: SocketAddr, n: usize, pool_len: usize) -> Vec<Conn> {
    (0..n)
        .map(|i| Conn::connect(addr, i * pool_len / n))
        .collect()
}
