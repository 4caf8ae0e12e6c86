//! Live workloads: a mini-app run under the full MUST & CuSan stack is
//! one verdict.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, FlavorTimes};
use cusan::{replay, Flavor, ToolConfig, Trace};
use cusan_apps::tealeaf::CgResult;
use cusan_apps::{
    run_jacobi, run_jacobi_traced, run_tealeaf, run_tealeaf_traced, AppKernels, JacobiConfig,
    RaceMode, TeaLeafConfig,
};
use must_rt::WorldOutcome;
use std::time::Instant;
use tsan_rt::TsanStats;

/// Set-ups per run; `setup_s` is their median. One set-up takes about
/// 70 ms; 61 of them span a few seconds, so one burst of host noise does
/// not move the median.
const SETUP_REPS: usize = 61;

/// The app a live workload checks.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// 1-D Jacobi.
    Jacobi(JacobiConfig),
    /// TeaLeaf CG.
    TeaLeaf(TeaLeafConfig),
}

impl App {
    /// `tealeaf_live`: a small domain with many CG iterations.
    pub fn tealeaf_live() -> App {
        App::TeaLeaf(TeaLeafConfig {
            nx: 16,
            ny: 16,
            ranks: 2,
            steps: 10,
            ..TeaLeafConfig::default()
        })
    }

    /// The configuration as a JSON object, for provenance.
    pub fn describe(&self) -> String {
        match self {
            App::Jacobi(c) => format!(
                "{{\"app\": \"jacobi\", \"nx\": {}, \"ny\": {}, \"ranks\": {}, \"iters\": {}, \"race\": \"{:?}\"}}",
                c.nx, c.ny, c.ranks, c.iters, c.race
            ),
            App::TeaLeaf(c) => format!(
                "{{\"app\": \"tealeaf\", \"nx\": {}, \"ny\": {}, \"ranks\": {}, \"steps\": {}, \"max_iters\": {}, \"eps\": {:e}, \"race\": \"{:?}\"}}",
                c.nx, c.ny, c.ranks, c.steps, c.max_iters, c.eps, c.race
            ),
        }
    }

    /// The injected synchronization bug, if any.
    pub fn race(&self) -> RaceMode {
        match self {
            App::Jacobi(c) => c.race,
            App::TeaLeaf(c) => c.race,
        }
    }

    /// Run once under `tools`, timing only the `run_*` call.
    pub fn run(&self, tools: ToolConfig, traced: bool) -> Run {
        let start = Instant::now();
        match self {
            App::Jacobi(c) => {
                let r = if traced {
                    run_jacobi_traced(c, tools)
                } else {
                    run_jacobi(c, tools)
                };
                Run::new(
                    start.elapsed().as_secs_f64(),
                    Numerics::Jacobi(r.norms),
                    r.outcome,
                )
            }
            App::TeaLeaf(c) => {
                let r = if traced {
                    run_tealeaf_traced(c, tools)
                } else {
                    run_tealeaf(c, tools)
                };
                Run::new(
                    start.elapsed().as_secs_f64(),
                    Numerics::TeaLeaf(r.cg),
                    r.outcome,
                )
            }
        }
    }
}

/// An app's numeric result: what a checked run must reproduce.
#[derive(Debug, Clone, PartialEq)]
enum Numerics {
    Jacobi(Vec<f64>),
    TeaLeaf(CgResult),
}

/// Work counters summed over ranks, runs or sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    range_calls: u64,
    range_bytes: u64,
    page_summaries: u64,
    page_unfolds: u64,
    fiber_switches: u64,
    full_clock_joins: u64,
    epoch_fast_ops: u64,
    races_reported: u64,
    /// Non-blocking MPI requests begun.
    pub must_requests: u64,
    /// Simulated kernel launches.
    pub kernel_calls: u64,
    /// Recorded trace events.
    pub events: u64,
    /// Recorded trace bytes.
    pub trace_bytes: u64,
}

impl Counts {
    /// Add one detector's counters.
    pub fn add_tsan(&mut self, t: &TsanStats) {
        self.range_calls += t.read_range_calls + t.write_range_calls;
        self.range_bytes += t.read_bytes + t.write_bytes;
        self.page_summaries += t.page_summaries_stored;
        self.page_unfolds += t.page_unfolds;
        self.fiber_switches += t.fiber_switches;
        self.full_clock_joins += t.full_clock_joins;
        self.epoch_fast_ops += t.epoch_fast_acquires + t.epoch_fast_releases;
        self.races_reported += t.races_reported;
    }

    /// Record the count metrics per verdict or session, for counts
    /// summed over `n` of them.
    pub fn report(&self, report: &mut Report, n: f64) {
        let per = |v: u64| v as f64 / n;
        report.set("core.events", per(self.events));
        report.set("tsan.range_calls", per(self.range_calls));
        report.set("tsan.range_bytes", per(self.range_bytes));
        report.set(
            "tsan.bytes_per_range_call",
            self.range_bytes as f64 / self.range_calls.max(1) as f64,
        );
        report.set("tsan.page_summaries", per(self.page_summaries));
        report.set("tsan.page_unfolds", per(self.page_unfolds));
        report.set("tsan.fiber_switches", per(self.fiber_switches));
        report.set("tsan.full_clock_joins", per(self.full_clock_joins));
        report.set("tsan.epoch_fast_ops", per(self.epoch_fast_ops));
        report.set("tsan.races_reported", per(self.races_reported));
        report.set("must.requests", per(self.must_requests));
        report.set("cuda-sim.kernel_calls", per(self.kernel_calls));
        report.set(
            "trace.bytes_per_event",
            self.trace_bytes as f64 / self.events.max(1) as f64,
        );
    }
}

/// One finished run.
pub struct Run {
    secs: f64,
    numerics: Numerics,
    races: u64,
    must_reports: usize,
    tool_memory: u64,
    counts: Counts,
    /// Per-rank traces of a traced run; empty otherwise.
    pub traces: Vec<Vec<u8>>,
}

impl Run {
    fn new<T>(secs: f64, numerics: Numerics, mut o: WorldOutcome<T>) -> Run {
        let mut c = Counts::default();
        for r in &o.ranks {
            c.add_tsan(&r.tsan);
            c.must_requests += r.events.requests_begun;
            c.kernel_calls += r.cuda.kernel_calls;
        }
        Run {
            secs,
            numerics,
            races: o.total_races(),
            must_reports: o.all_must_reports().len(),
            tool_memory: o.total_tool_memory(),
            counts: c,
            traces: o.ranks.iter_mut().filter_map(|r| r.trace.take()).collect(),
        }
    }

    /// The per-verdict correctness gate: numerics equal the vanilla
    /// reference, no races, no MUST reports.
    fn is_correct(&self, reference: &Numerics) -> bool {
        self.numerics == *reference && self.races == 0 && self.must_reports == 0
    }
}

/// Kernel registry, vanilla reference numerics and one warm-up checked
/// run; returns the reference.
fn set_up(app: &App) -> Numerics {
    std::hint::black_box(AppKernels::build());
    AppKernels::shared();
    let reference = app.run(ToolConfig::VANILLA, false).numerics;
    std::hint::black_box(app.run(Flavor::MustCusan.config(), false));
    reference
}

/// Repeat the set-up; returns the reference and the median set-up time.
fn timed_set_up(app: &App) -> (Numerics, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let r = set_up(app);
        times.push(t.elapsed().as_secs_f64());
        if reference.as_ref().is_some_and(|prev| *prev != r) {
            panic!("vanilla reference differs between set-ups");
        }
        reference = Some(r);
    }
    (reference.expect("at least one set-up"), median(&times))
}

fn provenance(report: &mut Report, app: &App) {
    report.note("app", app.describe());
    report.note("flavor", "\"MUST & CuSan\"".into());
    report.note(
        "trace_format",
        format!("\"{}\"", Flavor::MustCusan.config().trace_format.name()),
    );
}

/// The end-to-end run: checked verdicts back to back for `seconds`.
pub fn end_to_end(app: &App, seconds: f64) -> Report {
    let mut report = Report::default();
    let (reference, setup_s) = timed_set_up(app);
    let mc = Flavor::MustCusan.config();
    let mut lat = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let run = app.run(mc, false);
        report.attempt(run.is_correct(&reference));
        lat.push(run.secs);
    }
    let wall = start.elapsed().as_secs_f64();
    provenance(&mut report, app);
    report.set("setup_s", setup_s);
    report.verdicts(&lat, wall);
    report
}

/// Steps of the span run, in the order each round runs them.
const STEPS: [&str; 7] = [
    "apps.vanilla",
    "tsan.host",
    "must.only",
    "cusan.no_ranges",
    "cusan.full",
    "must_cusan",
    "must_cusan.traced",
];

fn step_config(step: &str) -> ToolConfig {
    match step {
        "apps.vanilla" => ToolConfig::VANILLA,
        "tsan.host" => Flavor::Tsan.config(),
        "must.only" => Flavor::Must.config(),
        "cusan.no_ranges" => ToolConfig {
            track_access_ranges: false,
            ..Flavor::Cusan.config()
        },
        "cusan.full" => Flavor::Cusan.config(),
        _ => Flavor::MustCusan.config(),
    }
}

/// The span run: rounds of the flavor steps, a traced run, and decode
/// and replay of its traces, each call in a span, until `seconds` pass.
/// Each round also runs one MUST & CuSan verdict outside any span: the
/// reference for the tracing overhead.
pub fn span_run(app: &App, seconds: f64, origin: Instant) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(origin);
    let (reference, _) = timed_set_up(app);
    let mut untraced = Vec::new();
    let mut last: Option<Run> = None;
    let mut events = 0u64;
    let start = Instant::now();
    let mut round = 0u64;
    while round < 3 || start.elapsed().as_secs_f64() < seconds {
        round += 1;
        let plain = app.run(Flavor::MustCusan.config(), false);
        report.attempt(plain.is_correct(&reference));
        untraced.push(plain.secs);
        for step in STEPS {
            let traced = step == "must_cusan.traced";
            let run = spans.time(step, round, |_| app.run(step_config(step), traced));
            report.attempt(run.is_correct(&reference));
            if traced {
                let decoded: Vec<Trace> = spans.time("trace.decode", round, |_| {
                    run.traces
                        .iter()
                        .map(|t| Trace::from_bytes(t).expect("recorded trace decodes"))
                        .collect()
                });
                events = decoded.iter().map(|t| t.events.len() as u64).sum();
                let races: u64 = spans.time("tsan.apply", round, |_| {
                    decoded.iter().map(|t| replay(t).stats.races_reported).sum()
                });
                report.attempt(races == 0);
                last = Some(run);
            }
        }
    }
    let med = |name: &str| median(&spans.durations(name));
    let times = FlavorTimes {
        vanilla: med("apps.vanilla"),
        tsan: med("tsan.host"),
        cusan_no_ranges: med("cusan.no_ranges"),
        cusan: med("cusan.full"),
        must_cusan: med("must_cusan"),
    };
    let d = times.deltas();
    let last = last.expect("at least one traced round");
    let mut c = last.counts;
    c.events = events;
    c.trace_bytes = last.traces.iter().map(|t| t.len() as u64).sum();
    provenance(&mut report, app);
    report.note("rounds", round.to_string());
    report.set("apps.vanilla_s", d.apps_vanilla);
    report.set("tsan.host_s", d.tsan_host);
    report.set("cusan.intercept_s", d.cusan_intercept);
    report.set("tsan.shadow_s", d.tsan_shadow);
    report.set("must.s", d.must);
    report.set(
        "trace.encode_s",
        med("must_cusan.traced") - times.must_cusan,
    );
    report.set("tsan.apply_s", med("tsan.apply"));
    report.set("trace.decode_s", med("trace.decode"));
    report.set("cusan.overhead_x.tsan", times.tsan / times.vanilla);
    report.set("cusan.overhead_x.must", med("must.only") / times.vanilla);
    report.set("cusan.overhead_x.cusan", times.cusan / times.vanilla);
    report.set(
        "cusan.overhead_x.must_cusan",
        times.must_cusan / times.vanilla,
    );
    report.set(
        "tool.memory_mib",
        last.tool_memory as f64 / (1u64 << 20) as f64,
    );
    c.report(&mut report, 1.0);
    let untraced = median(&untraced);
    report.set("span.verdict_s", times.must_cusan);
    report.set("span.untraced_verdict_s", untraced);
    report.set("span.overhead_share", times.must_cusan / untraced - 1.0);
    report.zero_rest();
    (report, spans)
}
