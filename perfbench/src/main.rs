//! The repository benchmark. One process binds an in-process
//! `trl-server` on loopback and drives it with at most two connections
//! from at most two load-generator threads; see `README.md` beside this
//! crate for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <serve_small|serve_large|build_mix> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before
//! it is a JSON record of the host and of what the run checked.

mod check;
mod gen;
mod layers;
mod load;
mod stats;
mod workloads;

use stats::Tally;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    e2e: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(String, String)>,
    /// Every graded operation of the run.
    pub tally: Tally,
    /// The first few problems seen.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    /// Adds a field (already JSON-encoded) to the run record.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_small|serve_large|build_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let probe_before = stats::host_probe_ms();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "serve_small" => workloads::serve_small(&args, &mut out),
        "serve_large" => workloads::serve_large(&args, &mut out),
        "build_mix" => workloads::build_mix(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    let probe_after = stats::host_probe_ms();
    let t = out.tally;
    if args.trace {
        out.layer("failed_frac", t.failed_frac(), "ratio");
        out.layer("degenerate_frac", t.degenerate_frac(), "ratio");
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("host_cores".to_string(), cores.to_string()),
        (
            "host_probe_ms".to_string(),
            format!("[{}, {}]", json_num(probe_before), json_num(probe_after)),
        ),
        (
            "host_lane_backend".to_string(),
            json_str(trl_nnf::LaneBackend::detect().name()),
        ),
        ("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))),
        ("git_rev".to_string(), json_str(&git_rev())),
        (
            "offered_frames_per_s".to_string(),
            json_num(workloads::OFFERED_FRAMES_PER_S),
        ),
        ("answers".to_string(), t.attempted.to_string()),
        ("float_answers".to_string(), t.float_answers.to_string()),
        ("errors".to_string(), t.errors.to_string()),
        (
            "engine_mismatches".to_string(),
            t.engine_mismatches.to_string(),
        ),
        ("wrapped_counts".to_string(), t.wrapped.to_string()),
        ("degenerate_floats".to_string(), t.degenerate.to_string()),
        ("other_wrong".to_string(), t.wrong.to_string()),
        ("failed_frac".to_string(), json_num(t.failed_frac())),
        ("degenerate_frac".to_string(), json_num(t.degenerate_frac())),
    ];
    record.append(&mut out.notes);
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    record.push(("problems".to_string(), format!("[{}]", problems.join(", "))));
    let body: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"run\": {{{}}}}}", body.join(", "));

    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let failed = t.failed_ops();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && out.problems.is_empty(),
        t.attempted.max(1),
        failed,
        fields.join(", ")
    );
}

/// The checkout's revision, or `none` when the working directory is not
/// the root of a git checkout. Git is asked only when `.git` is right
/// here, so it never searches the directories above the checkout.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into())
}
