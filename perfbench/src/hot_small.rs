//! `hot_small`: a saturating closed loop over a 4-hop path with 256
//! reservations and 0-byte payloads, all traffic authentic, in batches of
//! 64. The smallest packet, where per-packet cost dominates: gateway
//! stamping and the routers' cache-hit path do nearly all the work.
//!
//! The virtual clock advances a fixed 2 µs per packet (0.5 Mpps), so every
//! verdict depends on the seed alone, never on wall-clock speed. At that
//! rate each router's replay filter (`RouterConfig::default()`) reports
//! fresh packets as duplicates; the workload keeps that visible.

use crate::chain::{dataplane_layers, Chain, ChainSpec, Frame, Mark, Offer};
use crate::clock;
use crate::stats::Rng;
use crate::trace::{Layer, Tracer};
use crate::{drive, set_up, Measure, Report, RunConfig, Runner, Step};
use colibri::base::{Bandwidth, Duration, Instant};
use colibri::dataplane::GatewayConfig;

const HOPS: usize = 4;
const RESERVATIONS: usize = 256;
const BATCH: usize = 64;
/// Virtual time between consecutive packets.
const STEP_NS: u64 = 2_000;
/// The routers' replay-filter window (`TransitMonitorConfig::default()`).
const FILTER_WINDOW_NS: u64 = 2_000_000_000;
/// The workload's cycle: two filter windows, aligned to the filter's
/// rotation. Loss alternates between consecutive windows (a window that
/// inserted few packets leaves a sparse filter behind, so the next one
/// loses fewer and inserts more), so the mix repeats every two.
const CYCLE_PKTS: u64 = 2 * FILTER_WINDOW_NS / STEP_NS;
/// A slice of the cycle: 250 batches.
const SLICE_PKTS: u64 = 250 * BATCH as u64;
const _: () = assert!(CYCLE_PKTS.is_multiple_of(SLICE_PKTS));
/// Warm-up, then the counted window: one cycle each.
const WARMUP_PKTS: u64 = CYCLE_PKTS;
const WINDOW_PKTS: u64 = CYCLE_PKTS;

/// Set-ups per run: a set-up takes about 2 ms, so many are cheap and
/// steady the median.
const SETUP_REPS: usize = 101;

struct HotSmall {
    chain: Chain,
    rng: Rng,
    v0: Instant,
    seq: u64,
    window_end: u64,
    frames: Vec<Frame>,
    delivered: Vec<u32>,
    marks: Vec<Mark>,
}

impl HotSmall {
    fn new(seed: u64) -> Self {
        // A multiple of the filter window, so windows align with rotations.
        let v0 = Instant::from_secs(1000);
        let spec = ChainSpec {
            hops: HOPS,
            reservations: RESERVATIONS,
            bw: Bandwidth::from_mbps(100),
            gateway: GatewayConfig {
                burst: Duration::from_secs(1),
                ..GatewayConfig::default()
            },
            max_batch: BATCH,
        };
        Self {
            chain: Chain::new(spec, v0 + Duration::from_secs(3600), v0),
            rng: Rng::new(seed, 1),
            v0,
            seq: 0,
            window_end: u64::MAX,
            frames: Vec::with_capacity(BATCH),
            delivered: Vec::with_capacity(BATCH),
            marks: Vec::new(),
        }
    }
}

impl Runner for HotSmall {
    fn step(&mut self, tr: &mut Tracer, m: &mut Measure) -> Result<Step, String> {
        self.frames.clear();
        self.delivered.clear();
        for _ in 0..BATCH {
            let at = self.v0 + Duration::from_nanos(self.seq * STEP_NS);
            self.seq += 1;
            let res = self.rng.below(RESERVATIONS as u64) as u32;
            self.frames.push(Frame::Auth(Offer {
                res,
                payload: 0,
                at,
            }));
        }
        let now = self.v0 + Duration::from_nanos((self.seq - 1) * STEP_NS);
        let t = clock::now_ns();
        let span = tr.open(Layer::Step, 0, self.seq - BATCH as u64);
        self.chain
            .run_batch(&mut self.frames, now, tr, self.seq, &mut self.delivered)?;
        tr.close(span, BATCH as u64);
        let busy_ns = clock::since(t);
        // Closed loop: every packet of the batch waits for the whole batch.
        m.latency(busy_ns, self.delivered.len() as u64);
        m.delivered(self.delivered.len() as u64);
        Ok(Step {
            units: BATCH as u64,
            busy_ns,
        })
    }

    fn window_done(&self) -> bool {
        self.seq >= self.window_end
    }

    fn close_window(&mut self) {
        self.marks.push(self.chain.mark());
    }

    fn cycle_done(&self) -> bool {
        self.seq.is_multiple_of(CYCLE_PKTS)
    }

    fn slice_done(&self) -> bool {
        self.seq.is_multiple_of(SLICE_PKTS)
    }
}

/// Runs `hot_small`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (mut w, setup) = set_up(SETUP_REPS, || Ok(HotSmall::new(cfg.seed)))?;
    let mut off = Tracer::off();
    let mut scratch = Measure::new();
    while w.seq < WARMUP_PKTS {
        w.step(&mut off, &mut scratch)?;
    }
    w.window_end = w.seq + WINDOW_PKTS;
    let start = w.chain.mark();
    w.marks.push(start.clone());
    let driven = drive(&mut w, cfg)?;
    w.chain.verify()?;
    let end = w.chain.mark();
    let all = end.ledger.since(&start.ledger);
    let win = w.marks[1].ledger.since(&w.marks[0].ledger);
    let mut rep = Report::counted(win.offered, win.offered - win.delivered);
    rep.offered.insert("authentic_packets", all.offered);
    rep.offered.insert("window_packets", win.offered);
    rep.common_end_to_end(setup, &driven);
    rep.metrics
        .insert("auth_delivered", crate::ratio(win.delivered, win.offered));
    if cfg.trace {
        dataplane_layers(&mut rep, &driven.tracer, &w.marks[0], &w.marks[1]);
        rep.bench_layer(&driven)?;
        crate::crypto_layer(&mut rep, &driven.tracer);
        rep.tracer = Some(driven.tracer);
    }
    Ok(rep)
}
