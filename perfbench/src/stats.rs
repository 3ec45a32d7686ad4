//! The benchmark's own arithmetic: nearest-rank percentiles, medians,
//! and the answer-quality fractions, kept small so the tests below can
//! pin each rule against hand-made inputs.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (sorted in place), `q` in
/// `[0, 1]`. Every value it returns is an observed sample; an empty set
/// yields `0.0`. Same rule as `trl_obs::LatencySummary`.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median by the same nearest-rank rule.
pub fn median(samples: &mut [f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// What the best quarter of a run's rounds reach, for a lower-is-better
/// figure: the nearest-rank 25th percentile of the per-round values. A
/// shared host's contention only ever slows a round, and it comes in
/// stretches that can cover half a run; the best quarter stays put while
/// up to three rounds in four are slowed, where a median moves once half
/// are.
pub fn best_quarter(per_round: &mut [f64]) -> f64 {
    nearest_rank(per_round, 0.25)
}

/// Microseconds from `due` to `arrived`. Open-loop latency is counted
/// from the instant a frame was *due*, not from when the generator got
/// round to sending it, so a late generator cannot hide server queueing.
pub fn latency_from_due_us(due: Instant, arrived: Instant) -> f64 {
    arrived.saturating_duration_since(due).as_secs_f64() * 1e6
}

/// A phase's throughput and latency percentiles, or what the best
/// quarter of a run's rounds reach.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figures {
    /// Queries answered per second.
    pub qps: f64,
    /// Nearest-rank p50 of per-frame latency.
    pub p50_us: f64,
    /// Nearest-rank p95 of per-frame latency.
    pub p95_us: f64,
    /// Nearest-rank p99 of per-frame latency.
    pub p99_us: f64,
}

impl Figures {
    /// One phase's figures: `queries` answered in `span_s` seconds, and
    /// the percentiles of its per-frame latencies (0 when it has none).
    pub fn of(queries: u64, span_s: f64, latencies_us: &[f64]) -> Figures {
        let mut l = latencies_us.to_vec();
        Figures {
            qps: queries as f64 / span_s.max(1e-9),
            p50_us: nearest_rank(&mut l, 0.50),
            p95_us: nearest_rank(&mut l, 0.95),
            p99_us: nearest_rank(&mut l, 0.99),
        }
    }

    /// Each figure over `rounds` by [`best_quarter`]; throughput, where
    /// higher is better, by the 75th percentile.
    pub fn best_of(rounds: &[Figures]) -> Figures {
        let all = |f: fn(&Figures) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
        Figures {
            qps: nearest_rank(&mut all(|r| r.qps), 0.75),
            p50_us: best_quarter(&mut all(|r| r.p50_us)),
            p95_us: best_quarter(&mut all(|r| r.p95_us)),
            p99_us: best_quarter(&mut all(|r| r.p99_us)),
        }
    }
}

/// How one served answer compared with its references.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to the in-process engine and, where an independent
    /// reference ran, equal to it.
    Ok,
    /// A typed error or refusal came back instead of an answer.
    Error,
    /// The wire answer differs from the in-process engine's.
    EngineMismatch,
    /// A count whose true value needs more than 128 bits came back as the
    /// true value modulo 2^128 (the known u128 wrap).
    Wrapped,
    /// A float whose true value is positive came back as `0.0`, a
    /// subnormal, or a non-finite number (the known f64 underflow).
    Degenerate,
    /// Disagrees with the independent reference in some other way.
    Wrong,
}

/// Tallies of served answers, from which the reported fractions come.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Answers (or errors) the generator received.
    pub attempted: u64,
    /// Float-valued answers among them (WMC, marginals, max weight, ...).
    pub float_answers: u64,
    /// Typed errors and refusals.
    pub errors: u64,
    /// Answers differing from the in-process engine.
    pub engine_mismatches: u64,
    /// Counts that wrapped modulo 2^128.
    pub wrapped: u64,
    /// Floats that collapsed to zero, subnormal, or non-finite.
    pub degenerate: u64,
    /// Other disagreements with an independent reference.
    pub wrong: u64,
}

impl Tally {
    /// Counts one answer with its verdict; `float` says whether the
    /// answer is float-valued.
    pub fn record(&mut self, verdict: Verdict, float: bool, times: u64) {
        self.attempted += times;
        if float {
            self.float_answers += times;
        }
        match verdict {
            Verdict::Ok => {}
            Verdict::Error => self.errors += times,
            Verdict::EngineMismatch => self.engine_mismatches += times,
            Verdict::Wrapped => self.wrapped += times,
            Verdict::Degenerate => self.degenerate += times,
            Verdict::Wrong => self.wrong += times,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.float_answers += other.float_answers;
        self.errors += other.errors;
        self.engine_mismatches += other.engine_mismatches;
        self.wrapped += other.wrapped;
        self.degenerate += other.degenerate;
        self.wrong += other.wrong;
    }

    /// Operations that failed outright: errors, refusals, answers that
    /// differ from the in-process engine, and reference disagreements of
    /// no known defect class. These make a run incorrect.
    pub fn failed_ops(&self) -> u64 {
        self.errors + self.engine_mismatches + self.wrong
    }

    /// (errors + refusals + answers differing from any reference) ÷
    /// attempted — the known defects included.
    pub fn failed_frac(&self) -> f64 {
        let bad = self.failed_ops() + self.wrapped + self.degenerate;
        bad as f64 / self.attempted.max(1) as f64
    }

    /// Degenerate floats ÷ float answers.
    pub fn degenerate_frac(&self) -> f64 {
        self.degenerate as f64 / self.float_answers.max(1) as f64
    }
}

/// Compares a float answer with a positive true value given by its
/// natural log (so values far below `f64::MIN_POSITIVE` still compare).
pub fn float_verdict(answer: f64, true_ln: f64, rel_tol: f64) -> Verdict {
    // Zero, subnormal, or non-finite: the answer says nothing.
    if !answer.is_normal() {
        return Verdict::Degenerate;
    }
    if answer > 0.0 && (answer.ln() - true_ln).abs() <= rel_tol {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Compares a u128 count answer with the true count, given as its log2
/// and its value modulo 2^128 (`None` log2 means the true count is 0).
pub fn count_verdict(answer: u128, true_log2: Option<f64>, true_mod: u128) -> Verdict {
    match true_log2 {
        None if answer == 0 => Verdict::Ok,
        None => Verdict::Wrong,
        Some(_) if answer != true_mod => Verdict::Wrong,
        // The true value needs 128 bits or more: only its residue came back.
        Some(l) if l >= 128.0 => Verdict::Wrapped,
        Some(_) => Verdict::Ok,
    }
}

/// Milliseconds a fixed single-threaded loop of random read-modify-writes
/// over 512 KiB takes: a host-speed reading for the run record, so that
/// drift of a shared host can be told apart from a change in the
/// program. No metric uses it.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut buf = vec![0u64; 1 << 16];
    for i in 0..1u64 << 22 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (buf.len() - 1);
        buf[j] = buf[j].wrapping_add(i);
    }
    std::hint::black_box(&buf);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_agrees_with_latency_summary() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let mut xs: Vec<f64> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 10_000) as f64 / 7.0
                })
                .collect();
            let summary = trl_obs::LatencySummary::from_us(&mut xs.clone());
            assert_eq!(nearest_rank(&mut xs, 0.50), summary.p50_us, "p50 of {len}");
            assert_eq!(nearest_rank(&mut xs, 0.95), summary.p95_us, "p95 of {len}");
            assert_eq!(nearest_rank(&mut xs, 0.99), summary.p99_us, "p99 of {len}");
            assert_eq!(nearest_rank(&mut xs, 1.0), summary.max_us, "max of {len}");
        }
        assert_eq!(nearest_rank(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn rounds_report_the_best_quarter_and_shrug_off_stalls() {
        // Eight 1-s rounds of 100 frames; rounds 2 to 6 stall at a fifth
        // of the throughput and 50 ms per frame.
        let rounds: Vec<Figures> = (0..8)
            .map(|round| {
                let stalled = (2..7).contains(&round);
                let lat: Vec<f64> = (0..100)
                    .map(|i| if stalled { 50_000.0 } else { 100.0 + i as f64 })
                    .collect();
                Figures::of(if stalled { 160 } else { 800 }, 1.0, &lat)
            })
            .collect();
        let f = Figures::best_of(&rounds);
        assert_eq!(f.qps, 800.0);
        assert_eq!(f.p50_us, 149.0);
        assert_eq!(f.p95_us, 194.0);
        assert_eq!(f.p99_us, 198.0);
        // The quarter is by nearest rank: the 2nd of 8, the 6th for qps.
        assert_eq!(
            best_quarter(&mut [5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0]),
            2.0
        );
        // A round without answers has zero throughput and percentiles.
        let f = Figures::of(0, 1.0, &[]);
        assert_eq!((f.qps, f.p50_us, f.p99_us), (0.0, 0.0, 0.0));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let due = Instant::now();
        // Sent 300 us late, answered 100 us after sending: 400 us, not 100.
        let sent = due + Duration::from_micros(300);
        let arrived = sent + Duration::from_micros(100);
        let us = latency_from_due_us(due, arrived);
        assert!((us - 400.0).abs() < 1e-6, "{us}");
        // An answer can never precede its due time.
        assert_eq!(latency_from_due_us(arrived, due), 0.0);
    }

    #[test]
    fn fractions_count_a_handcrafted_answer_set() {
        let mut t = Tally::default();
        // Ten answers: four counts, six floats.
        t.record(Verdict::Ok, false, 2);
        t.record(Verdict::Wrapped, false, 1);
        t.record(Verdict::Error, false, 1);
        t.record(Verdict::Ok, true, 3);
        t.record(Verdict::Degenerate, true, 2);
        t.record(Verdict::EngineMismatch, true, 1);
        assert_eq!(t.attempted, 10);
        assert_eq!(t.float_answers, 6);
        assert_eq!(t.failed_ops(), 2);
        // error + mismatch + wrapped + degenerate = 5 of 10.
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
        // Two of six floats degenerate.
        assert!((t.degenerate_frac() - 2.0 / 6.0).abs() < 1e-12);
        let mut both = t;
        both.merge(&t);
        assert_eq!(both.attempted, 20);
        assert!((both.failed_frac() - 0.5).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
        assert_eq!(Tally::default().degenerate_frac(), 0.0);
    }

    #[test]
    fn verdicts_classify_the_known_defects() {
        // f64 underflow of a positive value.
        assert_eq!(float_verdict(0.0, -4000.0, 1e-9), Verdict::Degenerate);
        assert_eq!(float_verdict(1e-310, -713.0, 1e-9), Verdict::Degenerate);
        assert_eq!(float_verdict(f64::NAN, -1.0, 1e-9), Verdict::Degenerate);
        assert_eq!(float_verdict(0.25, 0.25f64.ln(), 1e-9), Verdict::Ok);
        assert_eq!(float_verdict(0.5, 0.25f64.ln(), 1e-9), Verdict::Wrong);
        // u128 wrap: 2^130 comes back as 0.
        assert_eq!(count_verdict(0, Some(130.0), 0), Verdict::Wrapped);
        assert_eq!(count_verdict(5, Some(130.0), 0), Verdict::Wrong);
        assert_eq!(count_verdict(143, Some(143f64.log2()), 143), Verdict::Ok);
        assert_eq!(count_verdict(142, Some(143f64.log2()), 143), Verdict::Wrong);
        assert_eq!(count_verdict(0, None, 0), Verdict::Ok);
        assert_eq!(count_verdict(1, None, 0), Verdict::Wrong);
    }
}
