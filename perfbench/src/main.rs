//! Admission-control benchmark: replays seeded churn through the public
//! engine APIs in a closed loop with one caller, times every call into
//! a layer from outside, checks the decisions, and prints every metric
//! by name and unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! hetnet-perfbench --workload <paper_churn|grid_churn>
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod replay;
mod stats;
mod workload;

use hetnet_service::{
    entries_equivalent, runs_equivalent, AuditLog, ServiceConfig, ServiceEngine, ServiceReport,
    ServiceRun, ShardedEngine, ShardedRun,
};
use hetnet_sim::churn;
use replay::{seq_pass, sharded_pass, SeqPass, ShardedPass, StepSpan};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups per timed sample, and samples per run: `setup_s` is the
/// median over samples of a sample's mean set-up time. A set-up takes
/// 70–170 µs, and on a shared VM single set-ups swing by a third
/// between consecutive milliseconds; a batch averages the swings.
const SETUP_BATCH: usize = 10;
const SETUP_SAMPLES: usize = 31;

/// Arrivals of `paper_churn` checked against the bare-state oracle.
/// The oracle costs as much as the replay it checks, so it covers a
/// prefix: 100 arrivals at 0.1/s span ~1000 s of simulated time, ten
/// mean holding times, well past the ramp into steady churn.
const ORACLE_PREFIX: usize = 100;

/// Hypervisor steal (from `/proc/stat`) above this share of a pass's
/// CPU time marks the pass disturbed. On a shared 2-vCPU VM, steal
/// bursts lasting tens of seconds preempt single steps for milliseconds:
/// they doubled `grid_churn`'s per-pass p99 and cut its decisions/s by
/// up to a fifth, while undisturbed passes (0.5–2.5% steal) agreed to
/// within a few percent. Disturbed passes are replayed and left out of
/// the reported figures.
const STEAL_LIMIT: f64 = 0.03;

/// Disturbed passes are replayed only while the replay stays within
/// this multiple of `--seconds`; if no pass was undisturbed by then, the
/// figures cover every pass.
const STEAL_CAP: f64 = 2.0;

/// The end-to-end metrics an untraced run reports; a traced run
/// reports every other metric except [`CONTEXT`].
const END_TO_END: [&str; 5] = [
    "setup_s",
    "decisions_per_s",
    "decision_p99_us",
    "admission_probability",
    "peak_rss_mb",
];

/// Metrics printed for context but left out of the result. On
/// `paper_churn` the median step falls between the ~5 µs step-1
/// rejects and the ~20 µs ladder decisions, so each seed's reject share
/// moves it by a fifth (interquartile range 24% of the median over ten
/// seeds): too ill-conditioned to gate on.
const CONTEXT: [&str; 1] = ["decision_p50_us"];

/// Directory (relative to the working directory) the traced run writes
/// its span file to.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

/// Everything one run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(&'static str, bool, String)>,
    attempted: u64,
    failed: u64,
    passes: usize,
    /// Passes whose figures were reported (undisturbed by steal).
    clean_passes: usize,
    /// Per-step samples behind each pass's quantiles.
    samples: Vec<usize>,
    /// Hypervisor steal share of each pass.
    steal: Vec<f64>,
    spans: String,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name, ok, detail.into()));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    fn span(&mut self, id: i64, layer: &str, start: f64, dur: f64, class: &str, decisions: u64) {
        let _ = writeln!(
            self.spans,
            "{{\"id\": {id}, \"layer\": \"{layer}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
             \"class\": \"{class}\", \"decisions\": {decisions}}}",
            start * 1e6,
            (start + dur) * 1e6
        );
    }
}

/// Set-up timings, each the median over [`SETUP_SAMPLES`] samples of
/// the mean over [`SETUP_BATCH`] consecutive set-ups.
struct SetupTimes {
    /// Network build plus engine construction (which generates the
    /// churn and fault schedules) — the end-to-end `setup_s`.
    total: f64,
    /// Engine construction alone.
    new_s: f64,
    /// One standalone `churn::generate` call (timed only when traced).
    generate_s: f64,
}

/// Times [`SETUP_SAMPLES`] × [`SETUP_BATCH`] set-ups built by `build`
/// (network in, engine out) and returns the last engine with the
/// median timings.
fn setup<E, F>(
    w: Workload,
    cfg: &ServiceConfig,
    traced: bool,
    build: F,
) -> Result<(E, SetupTimes), String>
where
    F: Fn(hetnet_cac::network::HetNetwork) -> Result<E, String>,
{
    let (mut total, mut new_s, mut generate_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_SAMPLES {
        let (mut batch_total, mut batch_new, mut batch_generate) = (0.0, 0.0, 0.0);
        for _ in 0..SETUP_BATCH {
            if traced {
                let t = Instant::now();
                std::hint::black_box(churn::generate(&cfg.churn));
                batch_generate += t.elapsed().as_secs_f64();
            }
            drop(engine.take());
            let t0 = Instant::now();
            let net = w.network();
            let t1 = Instant::now();
            engine = Some(build(net)?);
            batch_total += t0.elapsed().as_secs_f64();
            batch_new += t1.elapsed().as_secs_f64();
        }
        let n = SETUP_BATCH as f64;
        total.push(batch_total / n);
        new_s.push(batch_new / n);
        generate_s.push(batch_generate / n);
    }
    let engine = engine.expect("at least one set-up");
    let times = SetupTimes {
        total: stats::median(&total),
        new_s: stats::median(&new_s),
        generate_s: stats::median(&generate_s),
    };
    Ok((engine, times))
}

fn new_seq(w: Workload, cfg: &ServiceConfig) -> Result<ServiceEngine, String> {
    ServiceEngine::new(w.network(), cfg).map_err(|e| e.to_string())
}

fn new_sharded(w: Workload, cfg: &ServiceConfig) -> Result<ShardedEngine, String> {
    ShardedEngine::new(w.network(), cfg, workers()).map_err(|e| e.to_string())
}

/// Worker threads for the sharded engine: one less than the hardware
/// threads, so committer plus workers never exceed them.
fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether two finished sequential runs made identical decisions.
fn seq_runs_identical(a: &ServiceRun, b: &ServiceRun) -> bool {
    a.audit.len() == b.audit.len()
        && a.audit
            .entries()
            .iter()
            .zip(b.audit.entries())
            .all(|(x, y)| entries_equivalent(x, y))
        && a.state.snapshot().to_json() == b.state.snapshot().to_json()
}

/// Accounts one finished sequential pass: attempts, errors, and the
/// audit check.
fn account_seq(out: &mut Outcome, pass: &SeqPass) {
    out.attempted += pass.attempted;
    if let Some(e) = &pass.error {
        out.failed += 1;
        out.check("no_errors", false, e.clone());
    }
    if let Some(run) = &pass.run {
        let ok = replay::audit_gap_free(&run.audit, pass.step_s.len() as u64);
        out.check("audit_gap_free", ok, format!("{} entries", run.audit.len()));
    }
}

/// Per-layer metrics of the sequential engine from one traced pass,
/// and the check that the step-time splits add up.
fn engine_layers(out: &mut Outcome, pass: &SeqPass, run: &ServiceRun) {
    let spans = &pass.spans;
    let busy = |f: &dyn Fn(&StepSpan) -> bool| {
        spans
            .iter()
            .filter(|s| f(s))
            .fold(0.0, |acc, s| acc + s.dur)
    };
    let step_busy = busy(&|_| true);
    let dense_busy = busy(&|s| s.dense);
    let ladder_busy = busy(&|s| !s.dense);
    let multi_busy = busy(&|s| s.decisions > 1);
    let lat = &run.report.latency;
    let admit_busy = lat.mean.value() * lat.count as f64;
    let self_s = step_busy - admit_busy;
    let decisions: u64 = spans.iter().map(|s| s.decisions).sum();
    let dense_steps = spans.iter().filter(|s| s.dense).count();
    out.metric("service.engine.step_busy_s", step_busy, "s");
    out.metric("service.engine.admit_busy_s", admit_busy, "s");
    out.metric("service.engine.self_s", self_s, "s");
    out.metric(
        "service.engine.multi_decision_steps",
        spans.iter().filter(|s| s.decisions > 1).count() as f64,
        "count",
    );
    out.metric("service.engine.readmit_step_busy_s", multi_busy, "s");
    out.metric("core.cac.decisions", decisions as f64, "count");
    out.metric(
        "core.cac.dense_step_share",
        stats::ratio(dense_steps as f64, spans.len() as f64),
        "ratio",
    );
    out.metric("core.cac.dense_step_busy_s", dense_busy, "s");
    out.metric("core.cac.ladder_step_busy_s", ladder_busy, "s");
    let tol = 1e-9 * step_busy.max(1e-9);
    let split_ok = (dense_busy + ladder_busy - step_busy).abs() <= tol
        && self_s >= 0.0
        && (admit_busy + self_s - step_busy).abs() <= tol
        && decisions == run.audit.len() as u64;
    out.check(
        "busy_split",
        split_ok,
        format!(
            "step {step_busy:.6} s = dense {dense_busy:.6} + ladder {ladder_busy:.6} \
             = admit {admit_busy:.6} + self {self_s:.6}; {decisions} decisions in spans, \
             {} audited",
            run.audit.len()
        ),
    );
    for s in spans {
        let class = if s.dense { "dense" } else { "ladder" };
        out.span(
            s.arrival as i64,
            "service.engine.step_arrival",
            s.start,
            s.dur,
            class,
            s.decisions,
        );
    }
}

/// Per-layer metrics of the CAC's probe ladder and delay evaluator,
/// from a run's report.
fn cac_layers(out: &mut Outcome, report: &ServiceReport, decisions: u64) {
    let fp = &report.fast_path;
    let probes = fp.fast_accepts + fp.fast_rejects + fp.fallbacks;
    out.metric(
        "core.incremental.probes_per_decision",
        stats::ratio(probes as f64, decisions as f64),
        "probes/decision",
    );
    out.metric(
        "core.incremental.hit_rate",
        stats::ratio((fp.fast_accepts + fp.fast_rejects) as f64, probes as f64),
        "ratio",
    );
    out.metric("core.incremental.fallbacks", fp.fallbacks as f64, "count");
    out.metric("core.incremental.no_context", fp.no_context as f64, "count");
    for (cause, n) in hetnet_cac::incremental::FALLBACK_CAUSES
        .iter()
        .zip(fp.fallback_causes)
    {
        out.metric(
            format!("core.incremental.fallback.{cause}"),
            n as f64,
            "count",
        );
    }
    let c = &report.cache;
    let hit = |h: u64, m: u64| stats::ratio(h as f64, (h + m) as f64);
    out.metric("core.delay.evals", c.evals() as f64, "count");
    out.metric(
        "core.delay.stage1_hit_rate",
        hit(c.stage1_hits, c.stage1_misses),
        "ratio",
    );
    out.metric(
        "core.delay.mux_hit_rate",
        hit(c.mux_hits, c.mux_misses),
        "ratio",
    );
    out.metric(
        "core.delay.receive_hit_rate",
        hit(c.receive_hits, c.receive_misses),
        "ratio",
    );
    out.metric(
        "core.delay.screen_hit_rate",
        hit(c.screen_hits, c.screen_misses),
        "ratio",
    );
}

/// Zero-valued metrics for the sharded layers `paper_churn` never runs.
fn no_sharded_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("service.sharded.new_s", "s"),
        ("service.sharded.run_s", "s"),
        ("service.sharded.cpu_per_wall", "ratio"),
        ("core.shard.speculated", "count"),
        ("core.shard.conflicts", "count"),
        ("core.shard.useful_speculation_ratio", "ratio"),
        ("core.shard.inline_decisions", "count"),
        ("core.shard.mean_closure", "count"),
        ("core.shard.peak_closure", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
}

/// Per-layer metrics of one sharded pass: `ShardedEngine::new`, the
/// `run` call, and the engine's `ShardingStats`.
fn sharded_layers(out: &mut Outcome, run: &ShardedRun, new_s: f64, run_s: f64, cpu_s: f64) {
    let s = &run.sharding;
    out.metric("service.sharded.new_s", new_s, "s");
    out.metric("service.sharded.run_s", run_s, "s");
    out.metric(
        "service.sharded.cpu_per_wall",
        stats::ratio(cpu_s, run_s),
        "ratio",
    );
    out.metric("core.shard.speculated", s.speculated as f64, "count");
    out.metric("core.shard.conflicts", s.conflicts as f64, "count");
    out.metric(
        "core.shard.useful_speculation_ratio",
        stats::ratio(
            s.speculated.saturating_sub(s.conflicts) as f64,
            s.speculated as f64,
        ),
        "ratio",
    );
    out.metric(
        "core.shard.inline_decisions",
        s.inline_decisions as f64,
        "count",
    );
    out.metric(
        "core.shard.mean_closure",
        stats::ratio(
            s.closure_sum as f64,
            (s.speculated + s.inline_decisions) as f64,
        ),
        "count",
    );
    out.metric("core.shard.peak_closure", s.peak_closure as f64, "count");
}

fn dps(arrivals: usize, seconds: f64) -> f64 {
    stats::ratio(arrivals as f64, seconds)
}

/// One pass's end-to-end figures: decisions/s and the exact p50/p99
/// of its per-step wall times.
#[derive(Clone, Copy)]
struct PassFigures {
    dps: f64,
    p50_s: f64,
    p99_s: f64,
}

impl PassFigures {
    /// Fails when p99 would have fewer than ten samples beyond it.
    fn of(pass: &SeqPass) -> Result<Self, String> {
        Ok(Self {
            dps: dps(pass.step_s.len(), pass.loop_s),
            p50_s: stats::quantile(&pass.step_s, 0.5)?,
            p99_s: stats::quantile(&pass.step_s, 0.99)?,
        })
    }

    /// Reports the medians over `passes`, so one disturbed pass cannot
    /// move a result. Reports nothing for no passes (a failed check).
    fn report(passes: &[Self], out: &mut Outcome) {
        if passes.is_empty() {
            return;
        }
        let median = |f: fn(&Self) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
        out.metric("decisions_per_s", median(|p| p.dps), "1/s");
        out.metric("decision_p50_us", median(|p| p.p50_s) * 1e6, "us");
        out.metric("decision_p99_us", median(|p| p.p99_s) * 1e6, "us");
    }
}

/// Reports the share of arrivals (not readmissions) `audit` admitted.
fn admission_probability(out: &mut Outcome, audit: &AuditLog) {
    let (admitted, n) = replay::arrival_admission(audit);
    out.metric(
        "admission_probability",
        stats::ratio(admitted as f64, n as f64),
        "ratio",
    );
}

/// Checks a sequential run's decisions and reports its admission
/// probability. On `paper_churn` a prefix is replayed through the
/// bare-state oracle; on `grid_churn` the same schedule runs once
/// through the sharded engine, whose audit and final state must match.
/// Returns that sharded pass.
fn check_decisions(
    out: &mut Outcome,
    w: Workload,
    cfg: &ServiceConfig,
    run: &ServiceRun,
) -> Result<Option<ShardedPass>, String> {
    admission_probability(out, &run.audit);
    if w == Workload::PaperChurn {
        match replay::check_bare_replay(cfg, &run.audit, ORACLE_PREFIX) {
            Ok(()) => out.check(
                "bare_replay",
                true,
                format!("first {ORACLE_PREFIX} arrivals"),
            ),
            Err(e) => out.check("bare_replay", false, e),
        }
        return Ok(None);
    }
    let pass = sharded_pass(new_sharded(w, cfg)?);
    let arrivals = w.arrivals() as u64;
    out.attempted += arrivals;
    match &pass.result {
        Ok(sharded) => {
            let ok = replay::audit_gap_free(&sharded.audit, arrivals);
            out.check(
                "audit_gap_free",
                ok,
                format!("{} sharded entries", sharded.audit.len()),
            );
            out.check(
                "sharded_equivalent",
                runs_equivalent(sharded, run),
                format!("{} workers vs the sequential run", workers()),
            );
        }
        Err(e) => {
            out.failed += 1;
            out.check("no_errors", false, e.clone());
        }
    }
    Ok(Some(pass))
}

/// Replays whole sequential passes, a fresh engine each after
/// `first_engine`, until `seconds` of undisturbed step loops are
/// measured (see [`STEAL_LIMIT`]), or until another pass would take the
/// replay past [`STEAL_CAP`] times that. Only the first pass's run is
/// kept; later ones are checked against it and dropped, so every pass
/// starts from a similar heap. Returns the figures of the undisturbed
/// passes (of every pass if none was) and the first run.
fn seq_replays(
    out: &mut Outcome,
    w: Workload,
    cfg: &ServiceConfig,
    first_engine: ServiceEngine,
    seconds: f64,
) -> Result<(Vec<PassFigures>, Option<ServiceRun>), String> {
    let mut engine = Some(first_engine);
    let (mut clean, mut all) = (Vec::new(), Vec::new());
    let mut first: Option<ServiceRun> = None;
    let mut identical = true;
    let (mut measured, mut clean_measured) = (0.0, 0.0);
    loop {
        let e = match engine.take() {
            Some(e) => e,
            None => new_seq(w, cfg)?,
        };
        let steal0 = stats::steal_ticks();
        let pass = seq_pass(e, false, None);
        let steal = stats::steal_share(steal0, pass.loop_s);
        out.steal.push(steal);
        out.samples.push(pass.step_s.len());
        account_seq(out, &pass);
        measured += pass.loop_s;
        match PassFigures::of(&pass) {
            Ok(f) if steal <= STEAL_LIMIT => {
                clean_measured += pass.loop_s;
                clean.push(f);
                all.push(f);
            }
            Ok(f) => all.push(f),
            Err(e) => out.check("quantile_samples", false, e),
        }
        let stop = pass.error.is_some()
            || clean_measured >= seconds
            || measured + pass.loop_s > STEAL_CAP * seconds;
        match (pass.run, &first) {
            (Some(run), None) => first = Some(run),
            (Some(run), Some(f)) => identical &= seq_runs_identical(f, &run),
            (None, _) => {}
        }
        if stop {
            break;
        }
    }
    out.passes = all.len();
    out.clean_passes = clean.len();
    out.check(
        "passes_identical",
        identical,
        format!("{} sequential passes", out.steal.len()),
    );
    Ok((if clean.is_empty() { all } else { clean }, first))
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let (engine, setup) = setup(w, &cfg, args.trace, |net| {
        ServiceEngine::new(net, &cfg).map_err(|e| e.to_string())
    })?;
    out.metric("setup_s", setup.total, "s");
    if args.trace {
        return traced_sequential(out, w, &cfg, engine, &setup);
    }
    let (figures, first) = seq_replays(out, w, &cfg, engine, args.seconds)?;
    out.metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB");
    PassFigures::report(&figures, out);
    if let Some(run) = &first {
        check_decisions(out, w, &cfg, run)?;
    }
    Ok(())
}

/// A traced sequential run: an untraced probe over the first quarter of
/// the schedule, then one traced pass. The probe is what the tracing
/// overhead is measured against.
fn traced_sequential(
    out: &mut Outcome,
    w: Workload,
    cfg: &ServiceConfig,
    engine: ServiceEngine,
    setup_times: &SetupTimes,
) -> Result<(), String> {
    let probe_len = w.arrivals() / 4;
    let probe = seq_pass(new_seq(w, cfg)?, false, Some(probe_len));
    let pass = seq_pass(engine, true, None);
    account_seq(out, &probe);
    account_seq(out, &pass);
    out.passes = 1;
    out.metric("sim.churn.generate_s", setup_times.generate_s, "s");
    out.metric("service.engine.new_s", setup_times.new_s, "s");
    let mut sharded = None;
    if let Some(run) = &pass.run {
        sharded = check_decisions(out, w, cfg, run)?;
        engine_layers(out, &pass, run);
        cac_layers(out, &run.report, run.audit.len() as u64);
        out.metric(
            "workload.peak_active",
            run.report.peak_active as f64,
            "count",
        );
    }
    match &sharded {
        Some(ShardedPass {
            result: Ok(run),
            run_s,
            cpu_s,
        }) => {
            let (_, times) = setup(w, cfg, false, |net| {
                ShardedEngine::new(net, cfg, workers()).map_err(|e| e.to_string())
            })?;
            sharded_layers(out, run, times.new_s, *run_s, *cpu_s);
            out.span(
                -1,
                "service.sharded.run",
                0.0,
                *run_s,
                "-",
                run.audit.len() as u64,
            );
        }
        _ => no_sharded_layers(out),
    }
    out.metric("workload.arrivals", pass.step_s.len() as f64, "count");
    let traced_s = pass
        .spans
        .get(probe_len.saturating_sub(1))
        .map_or(0.0, |s| s.start + s.dur);
    out.metric(
        "trace.overhead_dps",
        dps(probe_len, traced_s) - dps(probe.step_s.len(), probe.loop_s),
        "1/s",
    );
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn env_line(args: &Args, out: &Outcome) -> String {
    let var = |k: &str| std::env::var(k).map_or("null".to_string(), |v| json_str(&v));
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"arrivals_per_pass\": {}, \"passes\": {}, \
         \"reported_passes\": {}, \"steal_share\": {:?}, \"decision_samples\": {:?}, \
         \"nproc\": {}, \"workers\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_digest\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.workload.default_seed(),
        args.seconds,
        u8::from(args.trace),
        args.workload.arrivals(),
        out.passes,
        out.clean_passes,
        out.steal
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        out.samples,
        nproc(),
        workers(),
        var("PERFBENCH_RUSTC"),
        var("PERFBENCH_GIT_COMMIT"),
        var("PERFBENCH_SOURCE_DIGEST"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if out.attempted == 0 {
        out.check("attempted", false, "no arrival was stepped");
    }
    if out.metrics.iter().any(|m| !m.1.is_finite()) {
        out.check("finite_metrics", false, "a metric is not finite");
    }
    if args.trace {
        let path = format!(
            "{SPAN_DIR}/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written =
            std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, &out.spans));
        match written {
            Ok(()) => println!("span file: {path} ({} spans)", out.spans.lines().count()),
            Err(e) => out.check("span_file", false, format!("{path}: {e}")),
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    println!("{}", env_line(&args, &out));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !CONTEXT.contains(&m.0.as_str()))
        .filter(|m| END_TO_END.contains(&m.0.as_str()) != args.trace)
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                json_str(name)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
