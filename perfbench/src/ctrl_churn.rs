//! `ctrl_churn`: a closed loop of control-plane operations over an
//! `internet_like` topology with a router and a gateway per AS, holding
//! about 10⁴ live EERs. It writes to the gateway and router layers the
//! data-plane workloads only read (installs, removals, compulsory cache
//! misses), and it is the only workload that enters `ctrl` and `topology`.
//!
//! Each step is one operation: a `CServ::gc` sweep over every AS once per
//! virtual second; otherwise, by seeded draw, a SegR renewal
//! (`renew_segr`, then `activate_segr`) of the least recently renewed SegR
//! (0.1%), an EER renewal (`renew_eer`, then `Gateway::install`) of the
//! least recently renewed EER, or an open or a close (`Gateway::remove`)
//! that keeps the live count near its target. The rates follow from the
//! live count and two periods: every EER is renewed every 10 virtual
//! seconds (1000 renewals per second, inside the 16 s EER lifetime), and
//! an EER is held 13.3 s on average (750 opens and 750 closes per second;
//! the hold time is an assumption). That is 2500 operations, one every
//! 400 µs of virtual time. Renewing in first-in-first-out order keeps the
//! mix the same from the first operation on. An open is `find_paths`,
//! `setup_segr` on each segment's first use, `setup_eer`,
//! `Gateway::install`, then one packet stamped and delivered through every
//! on-path router; its latency runs from the request to that delivery.

use crate::chain::{check_scrape, packet_layers, stats_drops};
use crate::clock;
use crate::stats::Rng;
use crate::trace::{Layer, Tracer};
use crate::{drive, ratio, set_up, Measure, Report, RunConfig, Runner, Step};
use colibri::base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ReservationKey};
use colibri::ctrl::{
    activate_segr, master_secret_for, renew_eer, renew_segr, setup_eer, setup_segr, CservConfig,
    CservRegistry, SetupError,
};
use colibri::dataplane::{
    BorderRouter, CryptoCacheStats, Gateway, GatewayConfig, GatewayStats, RouterConfig,
    RouterStats, RouterVerdict,
};
use colibri::telemetry::Registry;
use colibri::topology::gen::{internet_like, InternetConfig};
use colibri::topology::{find_paths, Segment, SegmentStore, Topology};
use colibri::wire::{EerInfo, PacketView};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Live EERs the workload keeps.
const TARGET_LIVE: usize = 10_000;
/// Live-count band inside which opens and closes are equally likely.
const BAND: usize = 200;
/// How often a source renews each live EER: inside the EER's 16 s
/// lifetime with 6 s to spare, and more than the CServ's 1 s minimum
/// between renewals.
const RENEW_PERIOD_S: u64 = 10;
/// EER renewals per virtual second.
const RENEWALS_PER_S: u64 = TARGET_LIVE as u64 / RENEW_PERIOD_S;
/// Opens per virtual second, and as many closes: a mean hold of
/// `TARGET_LIVE / OPENS_PER_S` = 13.3 s from open to close. This rate is
/// an assumption, not taken from the paper; README note 6 shows how the
/// figures depend on it.
const OPENS_PER_S: u64 = 750;
/// Control operations per virtual second (GC sweeps aside).
const OPS_PER_S: u64 = RENEWALS_PER_S + 2 * OPENS_PER_S;
/// Virtual time per operation.
const OP_NS: u64 = 1_000_000_000 / OPS_PER_S;
/// Share of operations that renew an EER.
const P_RENEW_EER: f64 = RENEWALS_PER_S as f64 / OPS_PER_S as f64;
/// Share of operations that renew a SegR: each of the 100–120 SegRs about
/// every 45 s (SegRs live 300 s).
const P_RENEW_SEGR: f64 = 0.001;
/// The CServ refuses EER renewals closer together than this.
const MIN_RENEW_GAP_NS: u64 = 1_000_000_000;
const GC_NS: u64 = 1_000_000_000;
/// The workload's cycle: two garbage-collection periods, enough opens for
/// a 99th percentile with ten samples above it.
const CYCLE_NS: u64 = 2 * GC_NS;
/// A slice of the cycle: a tenth of a GC period.
const SLICE_NS: u64 = GC_NS / 10;
const _: () = assert!(CYCLE_NS.is_multiple_of(SLICE_NS) && SLICE_NS.is_multiple_of(OP_NS));
/// Warm-up after set-up: longer than an EER's 16 s lifetime, so the
/// measured phase starts with expiries and their garbage collection
/// already in steady state.
const WARMUP_NS: u64 = 20_000_000_000;
/// Operations in the counted window.
const WINDOW_OPS: u64 = 20_000;
const EER_BW: Bandwidth = Bandwidth::from_kbps(500);
const SEGR_BW: Bandwidth = Bandwidth::from_gbps(2);
const SEGR_MIN: Bandwidth = Bandwidth::from_mbps(10);
const PROBE_PAYLOAD: usize = 64;

/// Metric names of the `SetupError` variants, in `reject_index` order.
const REJECTS: [&str; 5] = [
    "ctrl.rejects.unknown_as",
    "ctrl.rejects.refused",
    "ctrl.rejects.bad_auth",
    "ctrl.rejects.not_owned",
    "ctrl.rejects.unreachable",
];

fn reject_index(e: &SetupError) -> usize {
    match e {
        SetupError::UnknownAs(_) => 0,
        SetupError::Refused { .. } => 1,
        SetupError::BadAuth { .. } => 2,
        SetupError::NotOwned(_) => 3,
        SetupError::Unreachable { .. } => 4,
    }
}

/// Set-ups per run.
const SETUP_REPS: usize = 5;

struct LiveEer {
    key: ReservationKey,
    pos: usize,
    renewed_at: u64,
}

/// Control-plane counters.
#[derive(Debug, Clone, Copy, Default)]
struct CtrlLedger {
    ops: u64,
    failed: u64,
    opens: u64,
    open_fails: u64,
    renewals: u64,
    segr_renewals: u64,
    closes: u64,
    gcs: u64,
    gc_expired: u64,
    rejects: [u64; 5],
    probes: u64,
    probe_hops: u64,
}

impl CtrlLedger {
    fn since(&self, e: &CtrlLedger) -> CtrlLedger {
        CtrlLedger {
            ops: self.ops - e.ops,
            failed: self.failed - e.failed,
            opens: self.opens - e.opens,
            open_fails: self.open_fails - e.open_fails,
            renewals: self.renewals - e.renewals,
            segr_renewals: self.segr_renewals - e.segr_renewals,
            closes: self.closes - e.closes,
            gcs: self.gcs - e.gcs,
            gc_expired: self.gc_expired - e.gc_expired,
            rejects: std::array::from_fn(|i| self.rejects[i] - e.rejects[i]),
            probes: self.probes - e.probes,
            probe_hops: self.probe_hops - e.probe_hops,
        }
    }
}

#[derive(Debug, Clone)]
struct CtrlMark {
    ledger: CtrlLedger,
    routers: RouterStats,
    cache: CryptoCacheStats,
    live: usize,
}

enum Op {
    Gc,
    RenewEer(u64),
    RenewSegr(usize),
    Open,
    Close,
}

struct CtrlChurn {
    topo: Topology,
    segments: SegmentStore,
    leaves: Vec<IsdAsId>,
    reg: CservRegistry,
    routers: BTreeMap<IsdAsId, BorderRouter>,
    gateways: BTreeMap<IsdAsId, Gateway>,
    registry: Registry,
    rng: Rng,
    v0: Instant,
    t: u64,
    next_gc: u64,
    segrs: HashMap<Segment, usize>,
    segr_keys: Vec<ReservationKey>,
    segr_queue: VecDeque<usize>,
    eers: HashMap<u64, LiveEer>,
    live: Vec<u64>,
    renew_queue: VecDeque<u64>,
    segr_setups: (u64, u64),
    next_id: u64,
    ledger: CtrlLedger,
    buf: Vec<u8>,
    window_end: u64,
    marks: Vec<CtrlMark>,
}

impl CtrlChurn {
    /// Builds the topology and services, then opens EERs until
    /// `TARGET_LIVE` are live.
    fn new(seed: u64) -> Result<Self, String> {
        let gen = internet_like(&InternetConfig::default(), seed);
        let reg = CservRegistry::provision(&gen.topo, CservConfig::default());
        let registry = Registry::new();
        let mut routers = BTreeMap::new();
        let mut gateways = BTreeMap::new();
        for id in reg.ids() {
            let mut r = BorderRouter::new(id, &master_secret_for(id), RouterConfig::default());
            r.attach_telemetry(&registry, &format!("router-{id}"));
            routers.insert(id, r);
            let mut g = Gateway::new(GatewayConfig::default());
            g.attach_telemetry(&registry, &format!("gateway-{id}"));
            gateways.insert(id, g);
        }
        let leaves: Vec<IsdAsId> = reg
            .ids()
            .into_iter()
            .filter(|a| !gen.topo.is_core(*a))
            .collect();
        let mut w = Self {
            topo: gen.topo,
            segments: gen.segments,
            leaves,
            reg,
            routers,
            gateways,
            registry,
            rng: Rng::new(seed, 5),
            v0: Instant::from_secs(1000),
            t: 0,
            next_gc: GC_NS,
            segrs: HashMap::new(),
            segr_keys: Vec::new(),
            segr_queue: VecDeque::new(),
            eers: HashMap::new(),
            live: Vec::with_capacity(2 * TARGET_LIVE),
            renew_queue: VecDeque::with_capacity(2 * TARGET_LIVE),
            segr_setups: (0, 0),
            next_id: 0,
            ledger: CtrlLedger::default(),
            buf: Vec::with_capacity(2048),
            window_end: u64::MAX,
            marks: Vec::new(),
        };
        let mut off = Tracer::off();
        let mut scratch = Measure::new();
        let mut attempts = 0;
        while w.live.len() < TARGET_LIVE {
            attempts += 1;
            if attempts > 4 * TARGET_LIVE {
                return Err(format!(
                    "only {} of {TARGET_LIVE} EERs could be opened",
                    w.live.len()
                ));
            }
            let now = w.now();
            w.open(&mut off, now, &mut scratch)?;
            w.t += OP_NS;
        }
        w.ledger = CtrlLedger::default();
        Ok(w)
    }

    fn now(&self) -> Instant {
        self.v0 + Duration::from_nanos(self.t)
    }

    fn forget(&mut self, id: u64) -> LiveEer {
        let e = self.eers.remove(&id).expect("live EER");
        self.live.swap_remove(e.pos);
        if let Some(&moved) = self.live.get(e.pos) {
            self.eers.get_mut(&moved).expect("live EER").pos = e.pos;
        }
        e
    }

    fn reject(&mut self, e: &SetupError) {
        self.ledger.rejects[reject_index(e)] += 1;
    }

    fn pick(&mut self) -> Op {
        if self.t >= self.next_gc {
            self.next_gc += GC_NS;
            return Op::Gc;
        }
        let r = self.rng.unit();
        if r < P_RENEW_SEGR {
            if let Some(i) = self.segr_queue.pop_front() {
                return Op::RenewSegr(i);
            }
        } else if r < P_RENEW_SEGR + P_RENEW_EER {
            // Closed EERs leave stale queue entries behind; skip them.
            while let Some(&id) = self.renew_queue.front() {
                match self.eers.get(&id) {
                    None => {
                        self.renew_queue.pop_front();
                    }
                    Some(e) if e.renewed_at + MIN_RENEW_GAP_NS <= self.t => {
                        self.renew_queue.pop_front();
                        return Op::RenewEer(id);
                    }
                    Some(_) => break,
                }
            }
        }
        let live = self.live.len();
        let open = if live + BAND < TARGET_LIVE {
            true
        } else if live > TARGET_LIVE + BAND || live == 0 {
            live == 0
        } else {
            self.rng.below(2) == 0
        };
        if open {
            Op::Open
        } else {
            Op::Close
        }
    }

    /// One open; returns whether it was granted.
    fn open(&mut self, tr: &mut Tracer, now: Instant, m: &mut Measure) -> Result<bool, String> {
        let req = self.next_id;
        let n = self.leaves.len() as u64;
        let src = self.leaves[self.rng.below(n) as usize];
        let mut dst = self.leaves[self.rng.below(n - 1) as usize];
        if dst == src {
            dst = self.leaves[n as usize - 1];
        }
        let hosts = EerInfo {
            src_host: HostAddr(1 + self.rng.below(1 << 20) as u32),
            dst_host: HostAddr(1 + self.rng.below(1 << 20) as u32),
        };
        self.ledger.opens += 1;
        let t0 = clock::now_ns();
        let (topo, segments) = (&self.topo, &self.segments);
        let Some(path) = tr
            .call(Layer::FindPaths, 0, req, 1, || {
                find_paths(topo, segments, src, dst, 1)
            })
            .into_iter()
            .next()
        else {
            return Err(format!("no path from {src} to {dst}"));
        };
        let mut keys = Vec::with_capacity(path.segments.len());
        for seg in &path.segments {
            if let Some(&i) = self.segrs.get(seg) {
                keys.push(self.segr_keys[i]);
                continue;
            }
            let reg = &mut self.reg;
            let t = clock::now_ns();
            let setup = tr.call(Layer::SetupSegr, 0, req, 1, || {
                setup_segr(reg, seg, SEGR_BW, SEGR_MIN, now)
            });
            self.segr_setups.0 += clock::since(t);
            self.segr_setups.1 += 1;
            match setup {
                Ok(g) => {
                    let i = self.segr_keys.len();
                    self.segr_keys.push(g.key);
                    self.segrs.insert(seg.clone(), i);
                    self.segr_queue.push_back(i);
                    keys.push(g.key);
                }
                Err(e) => {
                    self.reject(&e);
                    self.ledger.open_fails += 1;
                    return Ok(false);
                }
            }
        }
        let reg = &mut self.reg;
        let grant = match tr.call(Layer::SetupEer, 0, req, 1, || {
            setup_eer(reg, &path, &keys, hosts, EER_BW, now)
        }) {
            Ok(g) => g,
            Err(e) => {
                self.reject(&e);
                self.ledger.open_fails += 1;
                return Ok(false);
            }
        };
        self.install(tr, src, grant.key, req, now)?;
        // The first packet, stamped and carried through every on-path router.
        let gw = self.gateways.get_mut(&src).expect("gateway per AS");
        let buf = &mut self.buf;
        let payload = [0u8; PROBE_PAYLOAD];
        tr.call(Layer::Gateway, 0, req, 1, || {
            gw.process_into(hosts.src_host, grant.key.res_id, &payload, now, buf)
        })
        .map_err(|e| format!("fresh EER {} cannot send: {e}", grant.key))?;
        let ases = path.as_path();
        for (h, a) in ases.iter().enumerate() {
            let router = self.routers.get_mut(a).expect("router per AS");
            let mut batch = [self.buf.as_mut_slice()];
            let verdict = tr.call(Layer::Router, h, req, 1, || {
                router.process_batch(&mut batch, now)
            })[0];
            self.ledger.probe_hops += 1;
            match verdict {
                RouterVerdict::Forward(_) if h + 1 < ases.len() => {}
                RouterVerdict::DeliverHost(host)
                    if h + 1 == ases.len() && host == hosts.dst_host => {}
                other => {
                    return Err(format!(
                        "probe of {} got {other:?} at hop {h} of {}",
                        grant.key,
                        ases.len()
                    ))
                }
            }
        }
        let len = PacketView::parse(&self.buf)
            .map_err(|e| format!("{e:?}"))?
            .payload()
            .len();
        if len != PROBE_PAYLOAD {
            return Err(format!(
                "probe payload of {PROBE_PAYLOAD} B delivered as {len} B"
            ));
        }
        self.ledger.probes += 1;
        m.latency(clock::since(t0), 1);
        m.delivered(1);
        let id = self.next_id;
        self.next_id += 1;
        self.eers.insert(
            id,
            LiveEer {
                key: grant.key,
                pos: self.live.len(),
                renewed_at: self.t,
            },
        );
        self.live.push(id);
        self.renew_queue.push_back(id);
        Ok(true)
    }

    fn install(
        &mut self,
        tr: &mut Tracer,
        src: IsdAsId,
        key: ReservationKey,
        req: u64,
        now: Instant,
    ) -> Result<(), String> {
        let owned = self
            .reg
            .get(src)
            .and_then(|c| c.store().owned_eer(key))
            .ok_or(format!("granted EER {key} missing from its source's store"))?;
        let gw = self.gateways.get_mut(&src).expect("gateway per AS");
        tr.call(Layer::GatewayInstall, 0, req, 1, || gw.install(owned, now));
        Ok(())
    }

    fn op(&mut self, tr: &mut Tracer, m: &mut Measure) -> Result<(), String> {
        let now = self.now();
        let req = self.ledger.ops;
        match self.pick() {
            Op::Gc => {
                let reg = &mut self.reg;
                let expired = tr.call(Layer::Gc, 0, req, 1, || {
                    reg.ids()
                        .into_iter()
                        .map(|id| reg.get_mut(id).expect("listed").gc(now).expired)
                        .sum::<usize>()
                });
                self.ledger.gcs += 1;
                self.ledger.gc_expired += expired as u64;
            }
            Op::RenewEer(id) => {
                let key = self.eers[&id].key;
                let reg = &mut self.reg;
                match tr.call(Layer::RenewEer, 0, id, 1, || {
                    renew_eer(reg, key, EER_BW, now)
                }) {
                    Ok(_) => {
                        self.install(tr, key.src_as, key, id, now)?;
                        self.eers.get_mut(&id).expect("live EER").renewed_at = self.t;
                        self.renew_queue.push_back(id);
                        self.ledger.renewals += 1;
                    }
                    Err(e) => {
                        self.reject(&e);
                        self.ledger.failed += 1;
                        let gw = self.gateways.get_mut(&key.src_as).expect("gateway per AS");
                        tr.call(Layer::GatewayRemove, 0, id, 1, || gw.remove(key.res_id));
                        self.forget(id);
                    }
                }
            }
            Op::RenewSegr(i) => {
                let key = self.segr_keys[i];
                let reg = &mut self.reg;
                let renewed = tr.call(Layer::RenewSegr, 0, req, 1, || {
                    renew_segr(reg, key, SEGR_BW, SEGR_MIN, now)
                        .and_then(|g| activate_segr(reg, key, g.ver, now))
                });
                match renewed {
                    Ok(()) => self.ledger.segr_renewals += 1,
                    Err(e) => {
                        self.reject(&e);
                        self.ledger.failed += 1;
                    }
                }
                self.segr_queue.push_back(i);
            }
            Op::Open => {
                if !self.open(tr, now, m)? {
                    self.ledger.failed += 1;
                }
            }
            Op::Close => {
                let id = self.live[self.rng.below(self.live.len() as u64) as usize];
                let e = self.forget(id);
                let gw = self
                    .gateways
                    .get_mut(&e.key.src_as)
                    .expect("gateway per AS");
                tr.call(Layer::GatewayRemove, 0, id, 1, || gw.remove(e.key.res_id));
                self.ledger.closes += 1;
            }
        }
        self.ledger.ops += 1;
        self.t += OP_NS;
        Ok(())
    }

    fn totals(&self) -> (RouterStats, CryptoCacheStats, GatewayStats) {
        let mut r = RouterStats::default();
        let mut c = CryptoCacheStats::default();
        for router in self.routers.values() {
            r.merge(&router.stats);
            c.merge(&router.cache_stats());
        }
        let mut g = GatewayStats::default();
        for gw in self.gateways.values() {
            g.merge(&gw.stats);
        }
        (r, c, g)
    }

    fn mark(&self) -> CtrlMark {
        let (routers, cache, _) = self.totals();
        CtrlMark {
            ledger: self.ledger,
            routers,
            cache,
            live: self.live.len(),
        }
    }

    /// Every probe was stamped once and forwarded at every hop; the
    /// routers' and gateways' own counters and a telemetry scrape agree.
    fn verify(&self, setup_probes: u64, setup_hops: u64) -> Result<(), String> {
        let (r, _, g) = self.totals();
        let probes = setup_probes + self.ledger.probes;
        let hops = setup_hops + self.ledger.probe_hops;
        if g.forwarded != probes || g.rate_limited != 0 || g.rejected != 0 {
            return Err(format!("GatewayStats {g:?} disagree with {probes} probes"));
        }
        if r.forwarded != hops || stats_drops(&r).iter().any(|d| *d != 0) {
            return Err(format!("RouterStats {r:?} disagree with {hops} probe hops"));
        }
        check_scrape(&self.registry, &r, Some(&g))
    }
}

impl Runner for CtrlChurn {
    fn step(&mut self, tr: &mut Tracer, m: &mut Measure) -> Result<Step, String> {
        let t = clock::now_ns();
        let span = tr.open(Layer::Step, 0, self.ledger.ops);
        self.op(tr, m)?;
        tr.close(span, 1);
        Ok(Step {
            units: 1,
            busy_ns: clock::since(t),
        })
    }

    fn window_done(&self) -> bool {
        self.ledger.ops >= self.window_end
    }

    fn close_window(&mut self) {
        let m = self.mark();
        self.marks.push(m);
    }

    fn cycle_done(&self) -> bool {
        self.t.is_multiple_of(CYCLE_NS)
    }

    fn slice_done(&self) -> bool {
        self.t.is_multiple_of(SLICE_NS)
    }
}

/// Runs `ctrl_churn`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (mut w, setup) = set_up(SETUP_REPS, || CtrlChurn::new(cfg.seed))?;
    let (r0, _, g0) = w.totals();
    let (setup_probes, setup_hops) = (g0.forwarded, r0.forwarded);
    let mut off = Tracer::off();
    let mut scratch = Measure::new();
    let warm_end = w.t + WARMUP_NS;
    while w.t < warm_end || !w.cycle_done() {
        w.step(&mut off, &mut scratch)?;
    }
    w.window_end = w.ledger.ops + WINDOW_OPS;
    let start = w.mark();
    w.marks.push(start.clone());
    let driven = drive(&mut w, cfg)?;
    w.verify(setup_probes, setup_hops)?;
    let all = w.ledger.since(&start.ledger);
    let (m0, m1) = (&w.marks[0], &w.marks[1]);
    let win = m1.ledger.since(&m0.ledger);
    let mut rep = Report::counted(win.ops, win.failed);
    rep.offered.insert("ops", all.ops);
    rep.offered.insert("opens", all.opens);
    rep.offered.insert("renewals", all.renewals);
    rep.offered.insert("segr_renewals", all.segr_renewals);
    rep.offered.insert("closes", all.closes);
    rep.offered.insert("gc_sweeps", all.gcs);
    rep.offered.insert("window_ops", win.ops);
    rep.common_end_to_end(setup, &driven);
    rep.metrics.insert(
        "auth_delivered",
        ratio(win.probes, win.opens - win.open_fails),
    );
    if cfg.trace {
        let tr = &driven.tracer;
        let us = |l: Layer| {
            let w = tr.layer_work(l);
            ratio(w.ns, w.calls) / 1e3
        };
        let cache = m1.cache.delta_since(&m0.cache);
        let drops = stats_drops(&m1.routers.delta_since(&m0.routers));
        packet_layers(&mut rep, tr, &cache, drops);
        let mm = &mut rep.metrics;
        mm.insert("gateway.install_us", us(Layer::GatewayInstall));
        mm.insert("gateway.remove_us", us(Layer::GatewayRemove));
        mm.insert("topology.find_paths_us", us(Layer::FindPaths));
        // Segments are reserved on first use, which set-up mostly
        // exhausts; the time is taken over the set-up's calls too.
        mm.insert(
            "ctrl.setup_segr_us",
            ratio(w.segr_setups.0, w.segr_setups.1) / 1e3,
        );
        mm.insert("ctrl.setup_eer_us", us(Layer::SetupEer));
        mm.insert("ctrl.renew_eer_us", us(Layer::RenewEer));
        mm.insert("ctrl.renew_segr_us", us(Layer::RenewSegr));
        mm.insert("ctrl.gc_ms", us(Layer::Gc) / 1e3);
        mm.insert("ctrl.gc_expired", win.gc_expired as f64);
        for (name, n) in REJECTS.iter().zip(win.rejects) {
            mm.insert(name, n as f64);
            rep.exact.insert(name.to_string(), n);
        }
        mm.insert("ctrl.live_eers", m1.live as f64);
        mm.insert("ctrl.open_fail", ratio(win.open_fails, win.opens));
        if let Some(u) = driven.untraced {
            mm.insert("ctrl.ops_per_s", 1e9 / u.ns_per_unit());
        }
        let e = &mut rep.exact;
        e.insert("ctrl.ops".into(), win.ops);
        e.insert("ctrl.opens".into(), win.opens);
        e.insert("ctrl.open_fails".into(), win.open_fails);
        e.insert("ctrl.renewals".into(), win.renewals);
        e.insert("ctrl.segr_renewals".into(), win.segr_renewals);
        e.insert("ctrl.closes".into(), win.closes);
        e.insert("ctrl.gc_expired".into(), win.gc_expired);
        e.insert("ctrl.live_eers".into(), m1.live as u64);
        for l in [
            Layer::FindPaths,
            Layer::SetupSegr,
            Layer::SetupEer,
            Layer::RenewEer,
            Layer::RenewSegr,
            Layer::Gc,
            Layer::GatewayInstall,
            Layer::GatewayRemove,
        ] {
            let w = tr.window_work(l);
            e.insert(format!("{}.calls", l.name()), w.calls);
            e.insert(format!("{}.aes_blocks", l.name()), w.aes_blocks);
            e.insert(format!("{}.key_expansions", l.name()), w.key_expansions);
            // Not exact: `ctrl` sizes some collections by iterating
            // randomly seeded hash maps, so its allocation counts move by a
            // few per 10⁴ operations between runs of one seed.
            let allocs = crate::stats::Summary::of(&[ratio(w.allocs, w.calls)]);
            rep.summaries
                .insert(format!("allocs_per_call.{}", l.name()), allocs);
        }
        rep.bench_layer(&driven)?;
        crate::crypto_layer(&mut rep, &driven.tracer);
        rep.tracer = Some(driven.tracer);
    }
    Ok(rep)
}
