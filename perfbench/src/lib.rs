//! The repository's benchmark: three seeded workloads driven through the
//! public `colibri` facade on one thread, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run. See `README.md`.

pub mod alloc;
pub mod chain;
pub mod clock;
pub mod cold_mixed;
pub mod ctrl_churn;
pub mod hot_small;
pub mod stats;
pub mod trace;

use stats::Summary;
use std::collections::BTreeMap;
use std::time::{Duration as WallDuration, Instant as Wall};

use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 4 hops, 256 reservations, 0-byte payloads.
    HotSmall,
    /// Open loop, 8 hops, 65 536 reservations, IMIX, hostile frames,
    /// shaped uplink with a best-effort flood.
    ColdMixed,
    /// Control-plane churn over an Internet-like topology.
    CtrlChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::HotSmall, Workload::ColdMixed, Workload::CtrlChurn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::ColdMixed => "cold_mixed",
            Workload::CtrlChurn => "ctrl_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Wall time to measure for. The counted window always runs to its
    /// end, so a run measures at least that long.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// End-to-end metrics, reported by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("auth_delivered", "share"),
];

/// Per-layer metrics, reported by every workload of a traced run (0 where
/// the workload does not enter the layer). The first three are the
/// stack's delivery rate and latency, taken over the traced run's untraced
/// phase: they follow the shared host's speed too closely to hold an
/// end-to-end bound (README note 5).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("delivered_mpps", "Mpps"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("gateway.ns_per_pkt", "ns"),
    ("gateway.allocs_per_pkt", "count"),
    ("gateway.aes_blocks_per_pkt", "count"),
    ("gateway.key_expansions_per_pkt", "count"),
    ("gateway.rate_limited", "count"),
    ("gateway.install_us", "us"),
    ("gateway.remove_us", "us"),
    ("qdisc.enqueue_ns", "ns"),
    ("qdisc.service_us", "us"),
    ("qdisc.drops_codel", "count"),
    ("qdisc.drops_overflow", "count"),
    ("qdisc.sojourn_max_us", "us"),
    ("qdisc.be_goodput_share", "share"),
    ("router.ns_per_pkt", "ns"),
    ("router.hop0.ns_per_pkt", "ns"),
    ("router.allocs_per_batch", "count"),
    ("router.aes_blocks_per_pkt", "count"),
    ("router.key_expansions_per_pkt", "count"),
    ("router.drops.parse", "count"),
    ("router.drops.expired", "count"),
    ("router.drops.stale", "count"),
    ("router.drops.bad_hvf", "count"),
    ("router.drops.blocked", "count"),
    ("router.drops.duplicate", "count"),
    ("router.drops.shaped", "count"),
    ("crypto_cache.sigma_hit_rate", "share"),
    ("crypto_cache.segr_hit_rate", "share"),
    ("crypto_cache.evictions", "count"),
    ("monitor.false_duplicates", "count"),
    ("monitor.overuse_reports", "count"),
    ("topology.find_paths_us", "us"),
    ("ctrl.setup_segr_us", "us"),
    ("ctrl.setup_eer_us", "us"),
    ("ctrl.renew_eer_us", "us"),
    ("ctrl.renew_segr_us", "us"),
    ("ctrl.gc_ms", "ms"),
    ("ctrl.gc_expired", "count"),
    ("ctrl.rejects.unknown_as", "count"),
    ("ctrl.rejects.refused", "count"),
    ("ctrl.rejects.bad_auth", "count"),
    ("ctrl.rejects.not_owned", "count"),
    ("ctrl.rejects.unreachable", "count"),
    ("ctrl.live_eers", "count"),
    ("ctrl.open_fail", "share"),
    ("ctrl.ops_per_s", "1/s"),
    ("crypto.aes_blocks_per_op", "count"),
    ("crypto.key_expansions_per_op", "count"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.self_ns_per_pkt", "ns"),
    ("bench.trace_overhead", "share"),
];

/// What one step of a workload did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Work units: authentic packets offered, or control operations.
    pub units: u64,
    /// CPU time spent working (excluding any wait for a due time).
    pub busy_ns: u64,
}

/// End-to-end observations of one slice: a fixed stretch of a cycle, so
/// slice `i` of every cycle does the same kind of work.
#[derive(Debug, Default)]
struct Slice {
    busy_ns: u64,
    units: u64,
    delivered: u64,
    latency: Vec<(u64, u64)>,
}

impl Slice {
    fn add(&mut self, o: &Slice) {
        self.busy_ns += o.busy_ns;
        self.units += o.units;
        self.delivered += o.delivered;
        self.latency.extend_from_slice(&o.latency);
    }

    fn clear(&mut self) {
        self.busy_ns = 0;
        self.units = 0;
        self.delivered = 0;
        self.latency.clear();
    }

    fn ns_per_unit(&self) -> f64 {
        self.busy_ns as f64 / self.units.max(1) as f64
    }

    /// Deliveries per busy CPU second, and the median and 99th-percentile
    /// latency in ns.
    fn figures(&mut self) -> Cycle {
        Cycle {
            rate: self.delivered as f64 * 1e9 / self.busy_ns.max(1) as f64,
            p50_ns: stats::weighted_quantile(&mut self.latency, 0.50),
            p99_ns: stats::weighted_quantile(&mut self.latency, 0.99),
            samples: self.latency.iter().map(|p| p.1).sum(),
        }
    }
}

/// End-to-end figures of a cycle, or of the fastest repeats of its slices.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Deliveries per busy CPU second.
    pub rate: f64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Latency samples.
    pub samples: u64,
}

/// End-to-end observations of the measured phase.
///
/// A cycle is cut into slices at fixed points, so slice `i` of one cycle
/// repeats the work of slice `i` of every other. For each slice the
/// fastest repeat (least busy time per work unit) is kept, and the
/// reported figures are taken over those: the cycle's work as it runs
/// while the host leaves the core alone. On a shared host the speed of a
/// core swings by up to 2× over seconds to minutes; a median over cycles
/// follows every swing, the fastest repeat of a short slice only those
/// that outlast a run (README note 5). Each cycle's own figures are kept
/// as well.
#[derive(Debug, Default)]
pub struct Measure {
    slice: Slice,
    cycle: Slice,
    pos: usize,
    best: Vec<Slice>,
    /// Completed cycles' own figures.
    pub cycles: Vec<Cycle>,
}

impl Measure {
    /// Empty observations; the first cycle starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample of `weight` deliveries.
    pub fn latency(&mut self, ns: u64, weight: u64) {
        self.slice.latency.push((ns, weight));
    }

    /// Counts `n` deliveries.
    pub fn delivered(&mut self, n: u64) {
        self.slice.delivered += n;
    }

    fn step(&mut self, s: &Step) {
        self.slice.busy_ns += s.busy_ns;
        self.slice.units += s.units;
    }

    /// Closes the current slice, and the cycle too if `cycle_end`.
    fn close_slice(&mut self, cycle_end: bool) {
        self.cycle.add(&self.slice);
        if self.best.len() == self.pos {
            self.best.push(Slice::default());
        }
        let best = &mut self.best[self.pos];
        if best.units == 0 || self.slice.ns_per_unit() < best.ns_per_unit() {
            std::mem::swap(best, &mut self.slice);
        }
        self.slice.clear();
        self.pos += 1;
        if cycle_end {
            self.cycles.push(self.cycle.figures());
            self.cycle.clear();
            self.pos = 0;
        }
    }

    /// Figures over the fastest repeat of every slice.
    pub fn best(&self) -> Cycle {
        let mut all = Slice::default();
        for s in &self.best {
            all.add(s);
        }
        all.figures()
    }
}

/// A workload instance after set-up.
pub trait Runner {
    /// Runs one step (a batch, a tick or a control operation).
    fn step(&mut self, tr: &mut Tracer, m: &mut Measure) -> Result<Step, String>;
    /// Whether the counted window — a fixed amount of work at the start of
    /// the measured phase — has been run.
    fn window_done(&self) -> bool;
    /// Called once, right after the counted window.
    fn close_window(&mut self);
    /// Whether the last step completed a cycle: a stretch of work whose
    /// mix repeats (replay-filter windows, garbage-collection periods).
    /// Measured phases start at a cycle boundary and end only at one.
    fn cycle_done(&self) -> bool;
    /// Whether the last step completed a slice: one of the equal stretches
    /// a cycle is cut into. A cycle's end is always a slice's end.
    fn slice_done(&self) -> bool;
}

/// Totals of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Work units done.
    pub units: u64,
    /// Busy CPU time.
    pub busy_ns: u64,
}

impl Phase {
    /// Busy ns per work unit.
    pub fn ns_per_unit(&self) -> f64 {
        self.busy_ns as f64 / self.units.max(1) as f64
    }
}

/// The measured phases of a run.
pub struct Driven {
    /// The traced phase of a traced run, or the whole untraced run.
    pub main: Phase,
    /// The untraced phase of a traced run.
    pub untraced: Option<Phase>,
    /// End-to-end observations of the untraced run, or of a traced run's
    /// untraced phase.
    pub measure: Measure,
    /// The tracer (disabled for untraced runs).
    pub tracer: Tracer,
    /// Peak resident memory in MiB at the end of the counted window, so
    /// that it covers a fixed amount of work whatever the host's speed.
    pub peak_rss_mb: f64,
}

/// Runs the measured phase: the counted window, then more steps until the
/// wall budget is spent and a cycle ends. A traced run traces the first
/// half of its budget (at least the counted window) and runs the rest
/// untraced; the untraced phase gives the end-to-end figures and the
/// tracing overhead.
pub fn drive(d: &mut impl Runner, cfg: &RunConfig) -> Result<Driven, String> {
    let budget = WallDuration::from_secs_f64(cfg.seconds.max(0.0));
    let t0 = Wall::now();
    let mut tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    tracer.begin_phase();
    let main_budget = if cfg.trace { budget / 2 } else { budget };
    let mut peak_rss_mb = 0.0;
    let (main, measure) = phase(d, &mut tracer, main_budget, Some(&mut peak_rss_mb))?;
    tracer.end_phase();
    if !cfg.trace {
        return Ok(Driven {
            main,
            untraced: None,
            measure,
            tracer,
            peak_rss_mb,
        });
    }
    let rest = budget.saturating_sub(t0.elapsed());
    let (untraced, measure) = phase(d, &mut tracer, rest, None)?;
    Ok(Driven {
        main,
        untraced: Some(untraced),
        measure,
        tracer,
        peak_rss_mb,
    })
}

/// Runs steps until `budget` of wall time has passed and a cycle ends.
/// With `window`, the counted window runs first, and the peak resident
/// memory at its end is stored there.
fn phase(
    d: &mut impl Runner,
    tr: &mut Tracer,
    budget: WallDuration,
    mut window: Option<&mut f64>,
) -> Result<(Phase, Measure), String> {
    let t = Wall::now();
    let mut p = Phase::default();
    let mut m = Measure::new();
    loop {
        let s = d.step(tr, &mut m)?;
        p.units += s.units;
        p.busy_ns += s.busy_ns;
        m.step(&s);
        if d.slice_done() {
            m.close_slice(d.cycle_done());
        }
        if window.is_some() && d.window_done() {
            tr.freeze_window();
            d.close_window();
            if let Some(rss) = window.take() {
                *rss = stats::peak_rss_mb();
            }
        }
        if window.is_none() && d.cycle_done() && t.elapsed() >= budget {
            return Ok((p, m));
        }
    }
}

/// Builds a workload `reps` times, keeping the last instance; returns it
/// with the build times (CPU seconds). The count is fixed per workload,
/// not by time spent, so the heap a run leaves behind, and with it
/// `peak_rss_mb`, does not depend on the host's speed.
pub fn set_up<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Summary), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = clock::now_ns();
        let built = build()?;
        times.push(clock::since(t) as f64 / 1e9);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), Summary::of(&times)))
}

/// The result of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (authentic packets offered, or control
    /// operations) in the counted window, so the count is fixed by the
    /// workload and does not grow with the host's speed.
    pub attempted: u64,
    /// Of those, how many failed (authentic packets not delivered, or
    /// refused and errored operations); fixed by the seed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median, min, max and sample count behind some metrics.
    pub summaries: BTreeMap<String, Summary>,
    /// Offered counts of the measured phase.
    pub offered: BTreeMap<&'static str, u64>,
    /// Exact counts over the counted window; they repeat bit for bit for a
    /// given seed.
    pub exact: BTreeMap<String, u64>,
    /// The measured phase's cycles.
    pub cycles: Vec<Cycle>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// A report of `attempted` operations over the counted window, `failed`
    /// of them; both are exact counts too.
    pub fn counted(attempted: u64, failed: u64) -> Self {
        let mut rep = Report {
            attempted,
            failed,
            ..Report::default()
        };
        rep.exact.insert("window.attempted".into(), attempted);
        rep.exact.insert("window.failed".into(), failed);
        rep
    }

    /// Records the metrics every workload shares: delivery rate and latency
    /// percentiles over the fastest repeat of every slice (see
    /// [`Measure`]), the median set-up time and peak memory. The set-up
    /// times and the medians over cycles go to the summaries.
    pub fn common_end_to_end(&mut self, setup: Summary, driven: &Driven) {
        let best = driven.measure.best();
        let cycles = &driven.measure.cycles;
        let over =
            |f: &dyn Fn(&Cycle) -> f64| Summary::of(&cycles.iter().map(f).collect::<Vec<_>>());
        for (name, v, s) in [
            ("delivered_mpps", best.rate / 1e6, over(&|c| c.rate / 1e6)),
            (
                "lat_p50_us",
                best.p50_ns as f64 / 1e3,
                over(&|c| c.p50_ns as f64 / 1e3),
            ),
            (
                "lat_p99_us",
                best.p99_ns as f64 / 1e3,
                over(&|c| c.p99_ns as f64 / 1e3),
            ),
        ] {
            self.metrics.insert(name, v);
            self.summaries.insert(format!("{name}.per_cycle"), s);
        }
        self.summaries.insert(
            "latency_samples_per_cycle".into(),
            over(&|c| c.samples as f64),
        );
        self.offered.insert("latency_samples_best", best.samples);
        self.metrics.insert("setup_s", setup.median);
        self.summaries.insert("setup_s".into(), setup);
        self.metrics.insert("peak_rss_mb", driven.peak_rss_mb);
        self.cycles = cycles.clone();
    }

    /// Records the harness metrics of a traced run: time no layer span
    /// covers per work unit, and the traced run's busy time per unit over
    /// the untraced run's. Fails if the self times do not add up.
    pub fn bench_layer(&mut self, driven: &Driven) -> Result<(), String> {
        let st = driven.tracer.self_times()?;
        let units = driven.main.units.max(1) as f64;
        self.metrics
            .insert("bench.self_ns_per_pkt", st.bench_ns as f64 / units);
        if let Some(u) = driven.untraced {
            self.metrics.insert(
                "bench.trace_overhead",
                driven.main.ns_per_unit() / u.ns_per_unit() - 1.0,
            );
        }
        for (layer, ns) in &st.layer_ns {
            self.summaries.insert(
                format!("self_ns_per_unit.{}", layer.name()),
                Summary::of(&[*ns as f64 / units]),
            );
        }
        self.offered.insert("trace_spans", st.spans as u64);
        self.summaries.insert(
            "idle_share".into(),
            Summary::of(&[st.idle_ns as f64 / st.phase_ns as f64]),
        );
        Ok(())
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    match cfg.workload {
        Workload::HotSmall => hot_small::run(cfg),
        Workload::ColdMixed => cold_mixed::run(cfg),
        Workload::CtrlChurn => ctrl_churn::run(cfg),
    }
}

/// Records the AES blocks and key expansions of every layer per work unit
/// over the counted window.
pub fn crypto_layer(rep: &mut Report, tr: &Tracer) {
    let units = tr.window_work(trace::Layer::Step).items;
    let (mut aes, mut kex) = (0, 0);
    for layer in trace::Layer::ALL {
        let w = tr.window_work(layer);
        aes += w.aes_blocks;
        kex += w.key_expansions;
    }
    rep.metrics
        .insert("crypto.aes_blocks_per_op", ratio(aes, units));
    rep.metrics
        .insert("crypto.key_expansions_per_op", ratio(kex, units));
    rep.exact.insert("crypto.aes_blocks".into(), aes);
    rep.exact.insert("crypto.key_expansions".into(), kex);
    rep.exact.insert("window.units".into(), units);
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
