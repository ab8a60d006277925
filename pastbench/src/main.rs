//! The PAST benchmark: replays one seeded workload through the public
//! `past-sim` API, checks the outputs, and prints every end-to-end
//! metric (untraced run) or every per-layer metric (traced run). The
//! last line of standard output is one JSON object with the result.
//!
//! Usage: `pastbench --workload fill|flash|churn --seed N --seconds S
//! --trace 0|1 [--out-dir DIR] [--git-rev REV] [--source-sha1 HEX]`.
//! `run.py` in this directory builds the binary and passes the
//! provenance flags.

mod calib;
mod churn;
mod layers;
mod metrics;
mod replay;
mod spans;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{ratio, Values, END_TO_END, PER_LAYER};
use replay::Kind;
use spans::SpanLog;
use stats::median;

/// Set-ups per run at least, so `setup_s` is a median of several.
const MIN_SETUPS: usize = 9;

/// What one timed phase produced. Deterministic for a given seed:
/// repeated and traced iterations must reproduce it exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Client operations issued in the timed phase.
    pub ops: u64,
    /// Of those, the ones that succeeded (insert stored, lookup found).
    pub ok: u64,
    /// Operations whose outcome broke the correctness checks.
    pub failed: u64,
    /// Messages sent (delivered plus dropped) in the timed phase.
    pub msgs: u64,
    pub utilization: f64,
    pub lookups: u64,
    pub lookup_hops: u64,
    pub cache_hits: u64,
    pub maint_bytes: u64,
    /// Correctness checks: description and whether it held.
    pub checks: Vec<(String, bool)>,
}

pub struct Iteration {
    pub setup_s: f64,
    /// Resident-set growth over the set-up.
    pub build_rss_mb: f64,
    pub timed_s: f64,
    pub outcome: Outcome,
}

/// What a traced iteration collects besides its outcome.
#[derive(Default)]
pub struct Traced {
    pub layer: Values,
    /// Sample counts behind the per-op percentiles.
    pub sample_counts: Vec<(&'static str, usize)>,
}

/// Derives an independent seed for one input stream of the workload.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Replay(Kind),
    Churn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fill" => Some(Workload::Replay(Kind::Fill)),
            "flash" => Some(Workload::Replay(Kind::Flash)),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn describe(self) -> String {
        match self {
            Workload::Replay(k) => k.describe(),
            Workload::Churn => churn::describe(),
        }
    }

    fn iterate(self, seed: u64, log: &mut SpanLog, traced: Option<&mut Traced>) -> Iteration {
        match self {
            Workload::Replay(k) => k.iterate(seed, log, traced),
            Workload::Churn => churn::iterate(seed, log, traced),
        }
    }

    /// A set-up alone, timed, then dropped.
    fn setup_only(self, seed: u64, log: &mut SpanLog) -> f64 {
        match self {
            Workload::Replay(k) => k.setup(seed, log).3,
            Workload::Churn => churn::setup(seed, log).2,
        }
    }
}

struct Opts {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    git_rev: String,
    source_sha1: String,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed").ok_or("missing --seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let seconds = get("--seconds").ok_or("missing --seconds")?;
    let seconds: f64 = seconds
        .parse()
        .map_err(|_| format!("bad --seconds {seconds:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}")),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out-dir",
        "--git-rev",
        "--source-sha1",
    ];
    for flag in args.iter().step_by(2) {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    Ok(Opts {
        workload,
        name,
        seed,
        seconds,
        trace,
        out_dir: get("--out-dir").map(PathBuf::from),
        git_rev: get("--git-rev").unwrap_or_else(|| "unknown".into()),
        source_sha1: get("--source-sha1").unwrap_or_else(|| "unknown".into()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--probe-server"] {
        calib::serve();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pastbench: {e}");
            eprintln!("usage: pastbench --workload fill|flash|churn --seed N --seconds S --trace 0|1 [--out-dir DIR]");
            return ExitCode::from(2);
        }
    };
    let mut prober = match calib::Prober::spawn() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pastbench: cannot start the calibration probe: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts, &mut prober) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pastbench: calibration probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload, prints the report, and returns whether every
/// correctness check held. Wall-clock end-to-end figures are scaled to
/// the reference host speed by probes taken around every iteration
/// (see `calib`).
fn run(opts: &Opts, prober: &mut calib::Prober) -> std::io::Result<bool> {
    let w = opts.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "pastbench workload={} seed={} seconds={} trace={}",
        opts.name, opts.seed, opts.seconds, opts.trace as u8
    );
    println!(
        "provenance: git_rev={} source_sha1={} nproc={nproc} profile={profile} engine=single-threaded (shards=0)",
        opts.git_rev, opts.source_sha1
    );
    println!("sizes: {}", w.describe());

    // Untraced phases are timed, not traced: their spans are dropped.
    let mut log = SpanLog::new();
    // A first iteration warms the heap and the probe server; its
    // outcome is checked but its times are not used.
    prober.probe()?;
    let warm_up = w.iterate(opts.seed, &mut log, None);
    // Probe times: one before the first timed iteration, then one after
    // every iteration and every extra set-up.
    let mut probes = vec![prober.probe()?];
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut measured = 0.0;
    while measured < opts.seconds {
        let it = w.iterate(opts.seed, &mut log, None);
        probes.push(prober.probe()?);
        measured += it.timed_s;
        iterations.push(it);
    }
    let mut setups: Vec<f64> = iterations.iter().map(|i| i.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup_only(opts.seed, &mut log));
        probes.push(prober.probe()?);
    }
    let slowdown = calib::slowdown(&probes);
    let peak_rss_mb = past_obs::mem::peak_rss_kb() as f64 / 1024.0;
    let ops_per_s: Vec<f64> = iterations
        .iter()
        .map(|i| ratio(i.outcome.ops as f64, i.timed_s))
        .collect();
    // Over the timed phases together, not a median of phases: a phase's
    // speed jumps between host states, and a median jumps with it.
    let total_ops: u64 = iterations.iter().map(|i| i.outcome.ops).sum();
    let raw_ops_per_s = ratio(total_ops as f64, measured);
    let raw_setup_s = median(&setups).expect("at least one set-up");
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "timed phases: {} ({measured:.3} s measured), ops/s each: {}",
        iterations.len(),
        fmt(&ops_per_s)
    );
    println!("set-ups: {}, s each: {}", setups.len(), fmt(&setups));
    println!(
        "probes: {}, s each: {}; host slowdown vs reference ({} s): {slowdown:.4}",
        probes.len(),
        fmt(&probes),
        calib::REFERENCE_S
    );
    println!("at host speed: ops_per_s {raw_ops_per_s:.4}, setup_s {raw_setup_s:.4}");

    let first = &warm_up.outcome;
    let mut checks = first.checks.clone();
    checks.push((
        format!(
            "{} untraced iterations reproduce the same outcome",
            iterations.len() + 1
        ),
        iterations.iter().all(|i| &i.outcome == first),
    ));
    let o = first;
    let mut e2e = Values::new();
    e2e.insert("setup_s", raw_setup_s / slowdown);
    e2e.insert("ops_per_s", raw_ops_per_s * slowdown);
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("op_ok_ratio", ratio(o.ok as f64, o.ops as f64));
    e2e.insert("utilization_final", o.utilization);
    e2e.insert("msgs_per_op", ratio(o.msgs as f64, o.ops as f64));
    let mut attempted: u64 = first.ops + iterations.iter().map(|i| i.outcome.ops).sum::<u64>();
    let mut failed: u64 = first.failed + iterations.iter().map(|i| i.outcome.failed).sum::<u64>();

    let mut layer = Values::new();
    let mut sample_counts = Vec::new();
    if opts.trace {
        let mut t = Traced::default();
        log = SpanLog::new();
        let it = w.iterate(opts.seed, &mut log, Some(&mut t));
        checks.push((
            "traced run reproduces the untraced outcome".into(),
            it.outcome == *first,
        ));
        attempted += it.outcome.ops;
        failed += it.outcome.failed;
        layer = t.layer;
        sample_counts = t.sample_counts;
        // The first set-up ran in a fresh process; later ones reuse
        // freed heap and barely grow the resident set.
        layer.insert("sim.build_rss_mb", warm_up.build_rss_mb);
        let o = &it.outcome;
        layer.insert(
            "obs.overhead_ratio",
            ratio(raw_ops_per_s, ratio(o.ops as f64, it.timed_s)),
        );
        layer
            .entry("lookup_hops_mean")
            .or_insert(ratio(o.lookup_hops as f64, o.lookups as f64));
        layer.insert(
            "cache_hit_ratio",
            ratio(o.cache_hits as f64, o.lookups as f64),
        );
        layer.insert("maint_mb", o.maint_bytes as f64 / 1e6);
        for s in PER_LAYER {
            layer.entry(s.name).or_insert(0.0);
        }
    }

    let correct = checks.iter().all(|c| c.1) && failed == 0;
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("end-to-end (untraced):");
    for s in END_TO_END {
        println!(
            "  {:<20} {:>16.6} {:<8} {} is better",
            s.name, e2e[s.name], s.unit, s.better
        );
    }
    if opts.trace {
        println!("per-layer (traced; 0 = layer idle on this workload):");
        for s in PER_LAYER {
            println!(
                "  {:<32} {:>16.6} {:<16} {:<6} -> {}",
                s.name, layer[s.name], s.unit, s.better, s.moves
            );
        }
        let counts: Vec<String> = sample_counts
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("per-op samples: {}", counts.join(" "));
        println!("spans of the traced iteration (wall time, benchmark side):");
        println!(
            "  {:<16} {:>8} {:>12} {:>12}",
            "name", "count", "total_s", "self_s"
        );
        for t in log.totals() {
            println!(
                "  {:<16} {:>8} {:>12.6} {:>12.6}",
                t.name, t.count, t.total_s, t.self_s
            );
        }
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!("spans-{}-seed{}.json", opts.name, opts.seed));
            match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, log.to_json())) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written to {}: {e}", path.display()),
            }
        }
    }

    let (specs, values) = if opts.trace {
        (PER_LAYER, &layer)
    } else {
        (END_TO_END, &e2e)
    };
    let finite = specs.iter().all(|s| values[s.name].is_finite());
    let fields: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                s.name, values[s.name], s.unit
            )
        })
        .collect();
    let correct = correct && finite;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    Ok(correct)
}
