//! `cold_mixed`: an open loop at one fixed offered rate over an 8-hop path
//! with 65 536 reservations (16× the routers' default σ-cache), IMIX
//! payloads, hostile frames at the first router, and a shaped uplink that a
//! best-effort flood oversubscribes. It takes the cache-miss,
//! key-expansion, large-table, drop-taxonomy and shaping paths that
//! `hot_small` skips.
//!
//! Arrivals are Poisson and due in virtual time; in the measured phase the
//! virtual clock is the thread's CPU clock (see `clock`), so a packet's
//! latency runs from when it was due. Work is grouped in 50 µs ticks: a
//! tick's arrivals form one batch, released once the tick has passed. The
//! loop spins while it waits, so its CPU clock keeps running then, and
//! stops only while the host runs something else.

use crate::chain::{check_scrape, dataplane_layers, Chain, ChainSpec, Frame, Mark, Offer};
use crate::clock;
use crate::stats::{quantile, Rng};
use crate::trace::{Layer, Tracer};
use crate::{drive, ratio, set_up, Measure, Report, RunConfig, Runner, Step};
use colibri::base::{Bandwidth, Duration, HostAddr, Instant};
use colibri::dataplane::{GatewayConfig, QosMode, RouterStats};
use colibri::qdisc::{EnqueueError, HtbConfig, QdiscStats, TrafficClass};
use colibri::sim::{AttackGen, AttackKind};

const HOPS: usize = 8;
const RESERVATIONS: usize = 65_536;
/// Offered authentic packets per second: about a quarter of the 15–20
/// kpps this workload sustains unpaced on the reference host, so that the
/// open loop keeps up when a shared host runs it at half speed (see
/// README).
pub const OFFERED_PPS: f64 = 4_000.0;
/// IMIX-like payload sizes, drawn 7:4:1.
const IMIX: [(u16, u64); 3] = [(64, 7), (576, 4), (1200, 1)];
const IMIX_WEIGHT: u64 = 12;
/// Hostile frames per authentic packet: 1 in 5 frames at the first router.
const HOSTILE_PER_AUTH: f64 = 0.25;
const ATTACKS: [AttackKind; 5] = [
    AttackKind::ForgedHvf,
    AttackKind::Replay,
    AttackKind::ExpiredReservation,
    AttackKind::Truncated,
    AttackKind::Oversized,
];
/// Best-effort subscriber hosts behind the gateway.
const BE_HOSTS: u64 = 4_000;
const TICK_NS: u64 = 50_000;
const SERVICE_NS: u64 = 1_000_000;
const FILTER_WINDOW_NS: u64 = 2_000_000_000;
/// Warm-up, then the counted window: two filter windows each, over which
/// the replay filter's load pattern repeats (see `hot_small`).
const WINDOW_NS: u64 = 2 * FILTER_WINDOW_NS;
/// The workload's cycle: 500 service rounds. At this rate the replay
/// filter barely loses packets, so the mix repeats with the service rounds;
/// short cycles let the median outvote stretches when the host is slow.
const CYCLE_NS: u64 = 500 * SERVICE_NS;
/// A slice of the cycle: 20 service rounds.
const SLICE_NS: u64 = 20 * SERVICE_NS;
const _: () = assert!(CYCLE_NS.is_multiple_of(SLICE_NS));

fn imix(rng: &mut Rng) -> u16 {
    let mut x = rng.below(IMIX_WEIGHT);
    for (size, w) in IMIX {
        if x < w {
            return size;
        }
        x -= w;
    }
    unreachable!("weights sum to IMIX_WEIGHT")
}

/// Mean bytes of an authentic packet on the wire: header plus IMIX payload.
fn mean_auth_bytes() -> f64 {
    let payload: u64 = IMIX.iter().map(|(s, w)| *s as u64 * w).sum();
    colibri::wire::header_len(HOPS, true) as f64 + payload as f64 / IMIX_WEIGHT as f64
}

/// Uplink capacity: reserved traffic uses about half of it.
fn uplink() -> Bandwidth {
    Bandwidth::from_bps((2.0 * OFFERED_PPS * mean_auth_bytes() * 8.0) as u64)
}

/// Set-ups per run.
const SETUP_REPS: usize = 5;

/// Best-effort ledger.
#[derive(Debug, Clone, Copy, Default)]
struct BeLedger {
    offered: u64,
    enqueued: u64,
    overflow: u64,
}

struct ColdMixed {
    chain: Chain,
    rng: Rng,
    attack_rng: Rng,
    be_rng: Rng,
    attacks: Option<AttackGen>,
    seed: u64,
    /// Virtual ns since `v0` of the next tick's start.
    tick: u64,
    v0: Instant,
    next_auth: u64,
    next_be: u64,
    be: BeLedger,
    /// CPU-clock reading of virtual time `paced_from`, once pacing has
    /// begun.
    pace: Option<(u64, u64)>,
    window_end: u64,
    frames: Vec<Frame>,
    be_batch: Vec<(HostAddr, u64, Instant)>,
    due: Vec<u64>,
    delivered: Vec<u32>,
    lag_ns: Vec<u64>,
    marks: Vec<(Mark, QdiscStats)>,
}

impl ColdMixed {
    fn new(seed: u64) -> Self {
        let v0 = Instant::from_secs(1000);
        let spec = ChainSpec {
            hops: HOPS,
            reservations: RESERVATIONS,
            bw: Bandwidth::from_mbps(100),
            gateway: GatewayConfig {
                qos: QosMode::Hierarchical(HtbConfig::shaped(uplink())),
                ..GatewayConfig::default()
            },
            max_batch: 64,
        };
        let mut chain = Chain::new(spec, v0 + Duration::from_secs(3600), v0);
        chain.capture = true;
        Self {
            chain,
            rng: Rng::new(seed, 2),
            attack_rng: Rng::new(seed, 3),
            be_rng: Rng::new(seed, 4),
            attacks: None,
            seed,
            tick: 0,
            v0,
            next_auth: 0,
            next_be: 0,
            be: BeLedger::default(),
            pace: None,
            window_end: u64::MAX,
            frames: Vec::with_capacity(64),
            be_batch: Vec::with_capacity(64),
            due: Vec::with_capacity(64),
            delivered: Vec::with_capacity(64),
            lag_ns: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn qstats(&self) -> QdiscStats {
        self.chain.gw.qos_stats().expect("hierarchical gateway")
    }

    fn mark(&self) -> (Mark, QdiscStats) {
        (self.chain.mark(), self.qstats())
    }

    fn be_bytes_per_s() -> f64 {
        2.0 * uplink().as_bps() as f64 / 8.0
    }

    /// Checks the best-effort ledger against `QdiscStats`, the qdisc's
    /// audit and the telemetry scrape, and reserved admissions against the
    /// gateway.
    fn verify(&self) -> Result<(), String> {
        self.chain.verify()?;
        let q = self.qstats();
        let audit = self
            .chain
            .gw
            .qdisc()
            .expect("hierarchical gateway")
            .audit()?;
        let be = TrafficClass::BestEffort.index();
        if q.enqueued != self.be.enqueued
            || q.dropped_overflow != self.be.overflow
            || self.be.offered != self.be.enqueued + self.be.overflow
            || q.served_pkts[be] + q.dropped_codel + audit.queued_pkts != q.enqueued
            || q.admitted != self.chain.gw.stats.forwarded
            || q.dropped_conform != 0
        {
            return Err(format!(
                "qdisc ledger {:?} disagrees with {q:?} / {audit:?}",
                self.be
            ));
        }
        let snap = self.chain.registry().snapshot();
        for (name, want) in [
            ("qdisc_admitted_total", q.admitted),
            ("qdisc_enqueued_total", q.enqueued),
            ("qdisc_dropped_overflow_total", q.dropped_overflow),
            ("qdisc_dropped_codel_total", q.dropped_codel),
        ] {
            if snap.total(name) != want {
                return Err(format!(
                    "scrape {name} = {}, QdiscStats says {want}",
                    snap.total(name)
                ));
            }
        }
        let mut total = RouterStats::default();
        for r in &self.chain.routers {
            total.merge(&r.stats);
        }
        check_scrape(self.chain.registry(), &total, Some(&self.chain.gw.stats))
    }
}

impl Runner for ColdMixed {
    fn step(&mut self, tr: &mut Tracer, m: &mut Measure) -> Result<Step, String> {
        let tick_end = self.tick + TICK_NS;
        let t_end = self.v0 + Duration::from_nanos(tick_end);
        // This tick's arrivals, in due order.
        self.frames.clear();
        self.due.clear();
        self.delivered.clear();
        let mean_gap = 1e9 / OFFERED_PPS;
        while self.next_auth < tick_end {
            let at = self.v0 + Duration::from_nanos(self.next_auth);
            let res = self.rng.below(RESERVATIONS as u64) as u32;
            let payload = imix(&mut self.rng);
            self.frames.push(Frame::Auth(Offer { res, payload, at }));
            self.due.push(self.next_auth);
            if let Some(gen) = &mut self.attacks {
                if self.attack_rng.unit() < HOSTILE_PER_AUTH {
                    let kind = ATTACKS[self.attack_rng.below(ATTACKS.len() as u64) as usize];
                    self.frames.push(Frame::Hostile(gen.next(kind)));
                    self.due.push(self.next_auth);
                }
            }
            self.next_auth += self.rng.exp_ns(mean_gap);
        }
        let offers = self.due.len() as u64;
        self.be_batch.clear();
        let be_gap = 1e9 * mean_be_bytes() / Self::be_bytes_per_s();
        while self.next_be < tick_end {
            let at = self.v0 + Duration::from_nanos(self.next_be);
            let host = HostAddr(0x0b00_0000 | self.be_rng.below(BE_HOSTS) as u32);
            self.be_batch
                .push((host, imix(&mut self.be_rng) as u64, at));
            self.next_be += self.be_rng.exp_ns(be_gap);
        }
        // Open loop: a tick is released once it has passed.
        let lag = self.pace.map(|(cpu0, v_from)| {
            let due = cpu0 + (tick_end - v_from);
            let waiting = clock::now_ns();
            let mut now = waiting;
            while now < due {
                std::hint::spin_loop();
                now = clock::now_ns();
            }
            tr.idle(now - waiting);
            (cpu0, v_from, now - due)
        });
        let t = clock::now_ns();
        let span = tr.open(Layer::Step, 0, self.tick / TICK_NS);
        let q = self.chain.gw.qdisc_mut().expect("hierarchical gateway");
        let (arrivals, be) = (&self.be_batch, &mut self.be);
        tr.call(
            Layer::QdiscEnqueue,
            0,
            self.tick / TICK_NS,
            arrivals.len() as u64,
            || {
                for &(host, bytes, at) in arrivals {
                    be.offered += 1;
                    match q.enqueue(TrafficClass::BestEffort, None, host, bytes, at) {
                        Ok(()) => be.enqueued += 1,
                        Err(EnqueueError::Overflow) => be.overflow += 1,
                        Err(e) => return Err(format!("best-effort enqueue refused: {e:?}")),
                    }
                }
                Ok(())
            },
        )?;
        if !self.frames.is_empty() {
            self.chain.run_batch(
                &mut self.frames,
                t_end,
                tr,
                self.tick / TICK_NS,
                &mut self.delivered,
            )?;
        }
        if tick_end.is_multiple_of(SERVICE_NS) {
            let q = self.chain.gw.qdisc_mut().expect("hierarchical gateway");
            tr.call(Layer::QdiscService, 0, self.tick / TICK_NS, 1, || {
                q.service(t_end)
            });
        }
        tr.close(span, offers);
        let done = clock::now_ns();
        if let Some((cpu0, v_from, lag_ns)) = lag {
            self.lag_ns.push(lag_ns);
            for &k in &self.delivered {
                let due = cpu0 + (self.due[k as usize] - v_from);
                m.latency(done - due, 1);
            }
        }
        m.delivered(self.delivered.len() as u64);
        let stamped = self.chain.last_stamped();
        if !stamped.is_empty() {
            match &mut self.attacks {
                Some(gen) => gen.set_template(stamped.to_vec()),
                None => self.attacks = Some(AttackGen::new(self.seed, stamped.to_vec())),
            }
        }
        self.tick = tick_end;
        let auth = self
            .frames
            .iter()
            .filter(|f| matches!(f, Frame::Auth(_)))
            .count() as u64;
        Ok(Step {
            units: auth,
            busy_ns: done - t,
        })
    }

    fn window_done(&self) -> bool {
        self.tick >= self.window_end
    }

    fn close_window(&mut self) {
        let m = self.mark();
        self.marks.push(m);
    }

    fn cycle_done(&self) -> bool {
        self.tick.is_multiple_of(CYCLE_NS)
    }

    fn slice_done(&self) -> bool {
        self.tick.is_multiple_of(SLICE_NS)
    }
}

fn mean_be_bytes() -> f64 {
    IMIX.iter().map(|(s, w)| *s as f64 * *w as f64).sum::<f64>() / IMIX_WEIGHT as f64
}

/// Runs `cold_mixed`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (mut w, setup) = set_up(SETUP_REPS, || Ok(ColdMixed::new(cfg.seed)))?;
    // Warm-up through two replay-filter windows of virtual time, unpaced.
    let mut off = Tracer::off();
    let mut scratch = Measure::new();
    let t = clock::now_ns();
    let mut warm_pkts = 0;
    while w.tick < WINDOW_NS {
        warm_pkts += w.step(&mut off, &mut scratch)?.units;
    }
    let sustained_pps = warm_pkts as f64 / (clock::since(t) as f64 / 1e9);
    w.window_end = w.tick + WINDOW_NS;
    w.pace = Some((clock::now_ns(), w.tick));
    let start = w.mark();
    w.marks.push(start.clone());
    let driven = drive(&mut w, cfg)?;
    w.verify()?;
    let end = w.mark();
    let all = end.0.ledger.since(&start.0.ledger);
    let (m0, q0) = &w.marks[0];
    let (m1, q1) = &w.marks[1];
    let win = m1.ledger.since(&m0.ledger);
    let mut rep = Report::counted(win.offered, win.offered - win.delivered);
    rep.offered.insert("authentic_packets", all.offered);
    rep.offered.insert("hostile_frames", all.hostile_offered);
    rep.offered.insert("window_packets", win.offered);
    rep.offered.insert("best_effort_packets", w.be.offered);
    rep.summaries.insert(
        "unpaced_warmup_pps".into(),
        crate::stats::Summary::of(&[sustained_pps]),
    );
    rep.common_end_to_end(setup, &driven);
    rep.metrics
        .insert("auth_delivered", ratio(win.delivered, win.offered));
    if cfg.trace {
        let tr = &driven.tracer;
        dataplane_layers(&mut rep, tr, m0, m1);
        let enq = tr.layer_work(Layer::QdiscEnqueue);
        let svc = tr.layer_work(Layer::QdiscService);
        let be = TrafficClass::BestEffort.index();
        let window_s = WINDOW_NS as f64 / 1e9;
        let capacity = uplink().as_bps() as f64 / 8.0 * window_s;
        let reserved = (q1.admitted_bytes - q0.admitted_bytes) as f64;
        let served = (q1.served_bytes[be] - q0.served_bytes[be]) as f64;
        let mm = &mut rep.metrics;
        mm.insert("qdisc.enqueue_ns", ratio(enq.ns, enq.items));
        mm.insert("qdisc.service_us", ratio(svc.ns, svc.calls) / 1e3);
        mm.insert(
            "qdisc.drops_codel",
            (q1.dropped_codel - q0.dropped_codel) as f64,
        );
        mm.insert(
            "qdisc.drops_overflow",
            (q1.dropped_overflow - q0.dropped_overflow) as f64,
        );
        mm.insert("qdisc.sojourn_max_us", q1.sojourn_ns_max as f64 / 1e3);
        mm.insert("qdisc.be_goodput_share", served / (capacity - reserved));
        mm.insert(
            "bench.gen_lag_p99_us",
            quantile(&mut w.lag_ns, 0.99) as f64 / 1e3,
        );
        rep.exact.insert(
            "qdisc.drops_codel".into(),
            q1.dropped_codel - q0.dropped_codel,
        );
        rep.exact.insert(
            "qdisc.drops_overflow".into(),
            q1.dropped_overflow - q0.dropped_overflow,
        );
        rep.exact.insert(
            "qdisc.served_be_bytes".into(),
            q1.served_bytes[be] - q0.served_bytes[be],
        );
        rep.bench_layer(&driven)?;
        crate::crypto_layer(&mut rep, &driven.tracer);
        rep.tracer = Some(driven.tracer);
    }
    Ok(rep)
}
