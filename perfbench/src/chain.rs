//! The data-plane chain shared by `hot_small` and `cold_mixed`: one
//! gateway stamping fresh packets, then one border router per on-path AS,
//! with a ledger that gives every frame exactly one outcome.

use crate::trace::{Layer, Tracer};
use crate::{ratio, Report};
use colibri::base::{Bandwidth, BwClass, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri::crypto::{Epoch, SecretValueGen};
use colibri::ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri::dataplane::{
    BorderRouter, CryptoCacheStats, DropReason, Gateway, GatewayConfig, GatewayError, RouterConfig,
    RouterStats, RouterVerdict,
};
use colibri::telemetry::{verify_exposition, Registry};
use colibri::wire::mac::hop_auth;
use colibri::wire::{EerInfo, HopField, PacketView, ResInfo};

/// Router drop reasons in ledger order, with their metric names.
pub const DROP_REASONS: [(DropReason, &str); 7] = [
    (DropReason::ParseError, "router.drops.parse"),
    (DropReason::ReservationExpired, "router.drops.expired"),
    (DropReason::Stale, "router.drops.stale"),
    (DropReason::BadHvf, "router.drops.bad_hvf"),
    (DropReason::Blocked, "router.drops.blocked"),
    (DropReason::Duplicate, "router.drops.duplicate"),
    (DropReason::Shaped, "router.drops.shaped"),
];

/// Ledger index of a drop reason.
pub fn reason_index(r: DropReason) -> usize {
    DROP_REASONS
        .iter()
        .position(|(d, _)| *d == r)
        .expect("every reason is listed")
}

/// `RouterStats` drop counters in ledger order.
pub fn stats_drops(s: &RouterStats) -> [u64; 7] {
    [
        s.parse_errors,
        s.expired,
        s.stale,
        s.bad_hvf,
        s.blocked,
        s.duplicates,
        s.shaped,
    ]
}

/// One installed reservation of the chain.
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    /// Its ID at the source AS.
    pub res_id: ResId,
    /// The only host allowed to send on it.
    pub src_host: HostAddr,
    /// The host its packets must reach.
    pub dst_host: HostAddr,
}

/// A packet offered to the gateway.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// Index into [`Chain::reservations`].
    pub res: u32,
    /// Payload length in bytes.
    pub payload: u16,
    /// Virtual send time.
    pub at: Instant,
}

/// A frame entering the first router.
#[derive(Debug)]
pub enum Frame {
    /// An authentic packet, stamped by the gateway.
    Auth(Offer),
    /// A hostile frame injected before the first router.
    Hostile(Vec<u8>),
}

/// Every frame's outcome, by hop and reason.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Authentic packets offered to the gateway.
    pub offered: u64,
    /// Authentic packets delivered to their destination host.
    pub delivered: u64,
    /// Authentic packets the gateway rate-limited.
    pub gw_rate_limited: u64,
    /// Authentic packets the gateway refused otherwise.
    pub gw_rejected: u64,
    /// Authentic packets each hop forwarded (or delivered, at the last hop).
    pub auth_fwd: Vec<u64>,
    /// Authentic packets each hop dropped, by reason.
    pub auth_drops: Vec<[u64; 7]>,
    /// Hostile frames offered to the first router.
    pub hostile_offered: u64,
    /// Hostile frames each hop forwarded.
    pub hostile_fwd: Vec<u64>,
    /// Hostile frames each hop dropped, by reason.
    pub hostile_drops: Vec<[u64; 7]>,
    /// Overuse reports the routers raised.
    pub overuse_reports: u64,
}

impl Ledger {
    fn new(hops: usize) -> Self {
        Self {
            auth_fwd: vec![0; hops],
            auth_drops: vec![[0; 7]; hops],
            hostile_fwd: vec![0; hops],
            hostile_drops: vec![[0; 7]; hops],
            ..Self::default()
        }
    }

    /// Authentic packets dropped by the routers for `reason`, over all hops.
    pub fn auth_dropped(&self, reason: DropReason) -> u64 {
        let i = reason_index(reason);
        self.auth_drops.iter().map(|d| d[i]).sum()
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>();
        let sub7 = |a: &[[u64; 7]], b: &[[u64; 7]]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| std::array::from_fn(|i| x[i] - y[i]))
                .collect::<Vec<[u64; 7]>>()
        };
        Ledger {
            offered: self.offered - earlier.offered,
            delivered: self.delivered - earlier.delivered,
            gw_rate_limited: self.gw_rate_limited - earlier.gw_rate_limited,
            gw_rejected: self.gw_rejected - earlier.gw_rejected,
            auth_fwd: sub(&self.auth_fwd, &earlier.auth_fwd),
            auth_drops: sub7(&self.auth_drops, &earlier.auth_drops),
            hostile_offered: self.hostile_offered - earlier.hostile_offered,
            hostile_fwd: sub(&self.hostile_fwd, &earlier.hostile_fwd),
            hostile_drops: sub7(&self.hostile_drops, &earlier.hostile_drops),
            overuse_reports: self.overuse_reports - earlier.overuse_reports,
        }
    }
}

/// Synthetic on-path ASes and hop fields of an `n`-hop path.
pub fn synthetic_path(n: usize) -> (Vec<IsdAsId>, Vec<HopField>) {
    let ases = (0..n).map(|i| IsdAsId::new(1, 101 + i as u32)).collect();
    let hops = (0..n)
        .map(|i| {
            let ingress = if i == 0 { 0 } else { 1 };
            let egress = if i + 1 == n { 0 } else { 2 };
            HopField::new(ingress, egress)
        })
        .collect();
    (ases, hops)
}

/// Shape of a chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainSpec {
    /// On-path ASes (one router each).
    pub hops: usize,
    /// Installed reservations.
    pub reservations: usize,
    /// Bandwidth of every reservation.
    pub bw: Bandwidth,
    /// Gateway configuration.
    pub gateway: GatewayConfig,
    /// Largest number of frames in one batch.
    pub max_batch: usize,
}

/// Gateway, routers and ledger of one data-plane path.
pub struct Chain {
    /// The source AS's gateway.
    pub gw: Gateway,
    /// One router per on-path AS, in path order.
    pub routers: Vec<BorderRouter>,
    /// Installed reservations.
    pub reservations: Vec<Reservation>,
    /// Outcomes so far.
    pub ledger: Ledger,
    registry: Registry,
    pool: Vec<Vec<u8>>,
    alive: Vec<bool>,
    zeros: Vec<u8>,
    /// Whether [`Chain::last_stamped`] keeps a copy of each batch's first
    /// stamped packet.
    pub capture: bool,
    last_stamped: Vec<u8>,
}

impl Chain {
    /// Builds the chain at virtual time `now`: every reservation is
    /// authenticated hop by hop from the ASes' secrets, as the control
    /// plane would, and installed in the gateway. Routers run
    /// `RouterConfig::default()`; gateway and routers report to one
    /// telemetry registry.
    pub fn new(spec: ChainSpec, exp: Instant, now: Instant) -> Self {
        let (ases, hops) = synthetic_path(spec.hops);
        let epoch = Epoch::containing(now);
        let k_is: Vec<_> = ases
            .iter()
            .map(|a| {
                SecretValueGen::new(&master_secret_for(*a))
                    .secret_value(epoch)
                    .cmac()
            })
            .collect();
        let mut gw = Gateway::new(spec.gateway);
        let mut reservations = Vec::with_capacity(spec.reservations);
        for i in 0..spec.reservations as u32 {
            let r = Reservation {
                res_id: ResId(i + 1),
                src_host: HostAddr(0x0a00_0000 | i),
                dst_host: HostAddr(0x1400_0000 | i),
            };
            let eer_info = EerInfo {
                src_host: r.src_host,
                dst_host: r.dst_host,
            };
            let res_info = ResInfo {
                src_as: ases[0],
                res_id: r.res_id,
                bw: BwClass::from_bandwidth_ceil(spec.bw),
                exp_t: exp,
                ver: 0,
            };
            let hop_auths = k_is
                .iter()
                .zip(&hops)
                .map(|(k_i, hop)| hop_auth(k_i, &res_info, &eer_info, *hop))
                .collect();
            gw.install(
                &OwnedEer {
                    key: ReservationKey::new(ases[0], r.res_id),
                    eer_info,
                    path_ases: ases.clone(),
                    hop_fields: hops.clone(),
                    versions: vec![OwnedEerVersion {
                        ver: 0,
                        bw: spec.bw,
                        exp,
                        hop_auths,
                    }],
                },
                now,
            );
            reservations.push(r);
        }
        let registry = Registry::new();
        gw.attach_telemetry(&registry, "gw");
        let routers = ases
            .iter()
            .enumerate()
            .map(|(h, a)| {
                let mut r = BorderRouter::new(*a, &master_secret_for(*a), RouterConfig::default());
                r.attach_telemetry(&registry, &format!("hop{h}"));
                r
            })
            .collect();
        Self {
            gw,
            routers,
            reservations,
            ledger: Ledger::new(spec.hops),
            registry,
            pool: (0..spec.max_batch)
                .map(|_| Vec::with_capacity(2048))
                .collect(),
            alive: vec![false; spec.max_batch],
            zeros: vec![0; 1500],
            capture: false,
            last_stamped: Vec::new(),
        }
    }

    /// The first packet the gateway stamped in the latest batch that
    /// stamped any, as it left the gateway (empty before then, or unless
    /// [`Chain::capture`] is set).
    pub fn last_stamped(&self) -> &[u8] {
        &self.last_stamped
    }

    /// The telemetry registry the gateway, routers (and qdisc) report to.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs one batch: the gateway stamps every authentic offer, hostile
    /// frames join in place before the first router, and the survivors of
    /// each hop go on to the next, all routers processing at `now`. Indices
    /// (into `frames`) of delivered authentic packets are appended to
    /// `delivered`. Fails on any outcome a correct data plane cannot
    /// produce.
    pub fn run_batch(
        &mut self,
        frames: &mut [Frame],
        now: Instant,
        tr: &mut Tracer,
        req: u64,
        delivered: &mut Vec<u32>,
    ) -> Result<(), String> {
        let n = frames.len();
        if n > self.pool.len() {
            self.pool.resize_with(n, || Vec::with_capacity(2048));
            self.alive.resize(n, false);
        }
        let offers = frames
            .iter()
            .filter(|f| matches!(f, Frame::Auth(_)))
            .count() as u64;
        let Self {
            gw,
            reservations,
            ledger,
            pool,
            alive,
            zeros,
            ..
        } = self;
        tr.call(Layer::Gateway, 0, req, offers, || {
            for (i, f) in frames.iter().enumerate() {
                let Frame::Auth(o) = f else { continue };
                let r = &reservations[o.res as usize];
                let payload = &zeros[..o.payload as usize];
                alive[i] = match gw.process_into(r.src_host, r.res_id, payload, o.at, &mut pool[i])
                {
                    Ok(_) => true,
                    Err(GatewayError::RateLimited(_)) => {
                        ledger.gw_rate_limited += 1;
                        false
                    }
                    Err(_) => {
                        ledger.gw_rejected += 1;
                        false
                    }
                };
            }
        });
        ledger.offered += offers;
        if self.capture {
            if let Some(i) = (0..n).find(|&i| self.alive[i]) {
                self.last_stamped.clear();
                self.last_stamped.extend_from_slice(&self.pool[i]);
            }
        }
        for (i, f) in frames.iter_mut().enumerate() {
            if let Frame::Hostile(bytes) = f {
                std::mem::swap(&mut self.pool[i], bytes);
                self.alive[i] = true;
                self.ledger.hostile_offered += 1;
            }
        }
        let last = self.routers.len() - 1;
        for h in 0..=last {
            let mut refs: Vec<&mut [u8]> = self.pool[..n]
                .iter_mut()
                .zip(&self.alive[..n])
                .filter(|(_, a)| **a)
                .map(|(b, _)| b.as_mut_slice())
                .collect();
            if refs.is_empty() {
                break;
            }
            let router = &mut self.routers[h];
            let verdicts = tr.call(Layer::Router, h, req, refs.len() as u64, || {
                router.process_batch(&mut refs, now)
            });
            drop(refs);
            self.ledger.overuse_reports += router.take_overuse_reports().len() as u64;
            let mut v = verdicts.into_iter();
            for (i, frame) in frames.iter().enumerate() {
                if !self.alive[i] {
                    continue;
                }
                let verdict = v
                    .next()
                    .ok_or("router returned fewer verdicts than frames")?;
                let offer = match frame {
                    Frame::Auth(o) => Some(o),
                    Frame::Hostile(_) => None,
                };
                match verdict {
                    RouterVerdict::Forward(_) if h < last => match offer {
                        Some(_) => self.ledger.auth_fwd[h] += 1,
                        None => self.ledger.hostile_fwd[h] += 1,
                    },
                    RouterVerdict::DeliverHost(host) if h == last => {
                        let Some(o) = offer else {
                            return Err(format!("hostile frame delivered to host {host:?}"));
                        };
                        let r = &self.reservations[o.res as usize];
                        if host != r.dst_host {
                            return Err(format!(
                                "packet for {:?} delivered to {host:?}",
                                r.dst_host
                            ));
                        }
                        let len = PacketView::parse(&self.pool[i])
                            .map_err(|e| format!("delivered packet does not parse: {e:?}"))?
                            .payload()
                            .len();
                        if len != o.payload as usize {
                            return Err(format!("payload of {} B delivered as {len} B", o.payload));
                        }
                        self.ledger.auth_fwd[h] += 1;
                        self.ledger.delivered += 1;
                        self.alive[i] = false;
                        delivered.push(i as u32);
                    }
                    RouterVerdict::Drop(reason) => {
                        let r = reason_index(reason);
                        match offer {
                            Some(_) => self.ledger.auth_drops[h][r] += 1,
                            None => self.ledger.hostile_drops[h][r] += 1,
                        }
                        self.alive[i] = false;
                    }
                    other => {
                        return Err(format!("hop {h} of {} gave {other:?}", last + 1));
                    }
                }
            }
        }
        // Hostile buffers go back to their frames so the pool keeps its own.
        for (i, f) in frames.iter_mut().enumerate() {
            if let Frame::Hostile(bytes) = f {
                std::mem::swap(&mut self.pool[i], bytes);
            }
        }
        if self.alive[..n].iter().any(|a| *a) {
            return Err("a frame left the last hop without an outcome".into());
        }
        Ok(())
    }

    /// Checks the ledger against the gateway's and every router's own
    /// counters, and against a telemetry scrape that must pass
    /// `verify_exposition`.
    pub fn verify(&self) -> Result<(), String> {
        let l = &self.ledger;
        let auth_dropped: u64 = l.auth_drops.iter().flatten().sum();
        if l.offered != l.delivered + l.gw_rate_limited + l.gw_rejected + auth_dropped {
            return Err(format!("authentic ledger does not balance: {l:?}"));
        }
        let hostile_dropped: u64 = l.hostile_drops.iter().flatten().sum();
        if l.hostile_offered != hostile_dropped {
            return Err(format!("hostile ledger does not balance: {l:?}"));
        }
        let gs = self.gw.stats;
        if gs.forwarded != l.offered - l.gw_rate_limited - l.gw_rejected
            || gs.rate_limited != l.gw_rate_limited
            || gs.rejected != l.gw_rejected
        {
            return Err(format!("GatewayStats {gs:?} disagree with the ledger"));
        }
        let mut total = RouterStats::default();
        for (h, r) in self.routers.iter().enumerate() {
            let s = r.stats;
            let drops = stats_drops(&s);
            let want: [u64; 7] =
                std::array::from_fn(|i| l.auth_drops[h][i] + l.hostile_drops[h][i]);
            if s.forwarded != l.auth_fwd[h] + l.hostile_fwd[h] || drops != want {
                return Err(format!(
                    "RouterStats of hop {h} {s:?} disagree with the ledger"
                ));
            }
            total.merge(&s);
        }
        check_scrape(&self.registry, &total, Some(&gs))
    }
}

/// Checks a scrape of `registry` against router (and gateway) totals and
/// validates its exposition text.
pub fn check_scrape(
    registry: &Registry,
    routers: &RouterStats,
    gw: Option<&colibri::dataplane::GatewayStats>,
) -> Result<(), String> {
    let snap = registry.snapshot();
    verify_exposition(&snap.render_prometheus()).map_err(|e| format!("scrape invalid: {e}"))?;
    let mut pairs = vec![(
        "colibri_router_forwarded_total".to_string(),
        routers.forwarded,
    )];
    for ((_, metric), v) in DROP_REASONS.iter().zip(stats_drops(routers)) {
        let reason = metric.trim_start_matches("router.drops.");
        pairs.push((format!("colibri_router_drop_{reason}_total"), v));
    }
    if let Some(g) = gw {
        pairs.push(("colibri_gateway_forwarded_total".into(), g.forwarded));
        pairs.push(("colibri_gateway_rate_limited_total".into(), g.rate_limited));
        pairs.push(("colibri_gateway_rejected_total".into(), g.rejected));
    }
    for (name, want) in pairs {
        let got = snap.total(&name);
        if got != want {
            return Err(format!("scrape {name} = {got}, ledger says {want}"));
        }
    }
    Ok(())
}

/// Ledger and cache counters at one instant, to take window deltas.
#[derive(Debug, Clone)]
pub struct Mark {
    /// The ledger.
    pub ledger: Ledger,
    /// Each router's crypto-cache counters.
    pub cache: Vec<CryptoCacheStats>,
}

impl Chain {
    /// Snapshots the ledger and cache counters.
    pub fn mark(&self) -> Mark {
        Mark {
            ledger: self.ledger.clone(),
            cache: self.routers.iter().map(|r| r.cache_stats()).collect(),
        }
    }
}

/// Records the gateway, router and crypto-cache metrics of a traced run
/// and their exact counts over the counted window. `cache` is the routers'
/// cache counters and `drops` their drops by reason (`DROP_REASONS` order),
/// both over the counted window.
pub fn packet_layers(rep: &mut Report, tr: &Tracer, cache: &CryptoCacheStats, drops: [u64; 7]) {
    let gw = tr.layer_work(Layer::Gateway);
    let gw_w = tr.window_work(Layer::Gateway);
    let rt = tr.layer_work(Layer::Router);
    let rt_w = tr.window_work(Layer::Router);
    let hop0 = tr.work(Layer::Router, 0);
    let m = &mut rep.metrics;
    m.insert("gateway.ns_per_pkt", ratio(gw.ns, gw.items));
    m.insert("gateway.allocs_per_pkt", ratio(gw_w.allocs, gw_w.items));
    m.insert(
        "gateway.aes_blocks_per_pkt",
        ratio(gw_w.aes_blocks, gw_w.items),
    );
    m.insert(
        "gateway.key_expansions_per_pkt",
        ratio(gw_w.key_expansions, gw_w.items),
    );
    m.insert("router.ns_per_pkt", ratio(rt.ns, gw.items));
    m.insert("router.hop0.ns_per_pkt", ratio(hop0.ns, hop0.items));
    m.insert("router.allocs_per_batch", ratio(rt_w.allocs, rt_w.calls));
    m.insert(
        "router.aes_blocks_per_pkt",
        ratio(rt_w.aes_blocks, gw_w.items),
    );
    m.insert(
        "router.key_expansions_per_pkt",
        ratio(rt_w.key_expansions, gw_w.items),
    );
    let evictions = cache.sigma_evictions + cache.segr_evictions;
    m.insert(
        "crypto_cache.sigma_hit_rate",
        ratio(cache.sigma_hits, cache.sigma_hits + cache.sigma_misses),
    );
    m.insert(
        "crypto_cache.segr_hit_rate",
        ratio(cache.segr_hits, cache.segr_hits + cache.segr_misses),
    );
    m.insert("crypto_cache.evictions", evictions as f64);
    for ((_, name), n) in DROP_REASONS.iter().zip(drops) {
        m.insert(name, n as f64);
        rep.exact.insert(name.to_string(), n);
    }
    let e = &mut rep.exact;
    e.insert("gateway.allocs".into(), gw_w.allocs);
    e.insert("gateway.aes_blocks".into(), gw_w.aes_blocks);
    e.insert("gateway.key_expansions".into(), gw_w.key_expansions);
    e.insert("router.allocs".into(), rt_w.allocs);
    e.insert("router.batches".into(), rt_w.calls);
    e.insert("router.aes_blocks".into(), rt_w.aes_blocks);
    e.insert("router.key_expansions".into(), rt_w.key_expansions);
    e.insert("crypto_cache.sigma_hits".into(), cache.sigma_hits);
    e.insert("crypto_cache.sigma_misses".into(), cache.sigma_misses);
    e.insert("crypto_cache.evictions".into(), evictions);
}

/// Records [`packet_layers`] and the chain's gateway-ledger and monitor
/// metrics of a traced data-plane run. `w0` and `w1` mark the counted
/// window.
pub fn dataplane_layers(rep: &mut Report, tr: &Tracer, w0: &Mark, w1: &Mark) {
    let l = w1.ledger.since(&w0.ledger);
    let mut cache = CryptoCacheStats::default();
    for (a, b) in w1.cache.iter().zip(&w0.cache) {
        cache.merge(&a.delta_since(b));
    }
    let drops = std::array::from_fn(|i| {
        (0..l.auth_drops.len())
            .map(|h| l.auth_drops[h][i] + l.hostile_drops[h][i])
            .sum()
    });
    packet_layers(rep, tr, &cache, drops);
    let false_duplicates = l.auth_dropped(DropReason::Duplicate);
    let m = &mut rep.metrics;
    m.insert("gateway.rate_limited", l.gw_rate_limited as f64);
    m.insert("monitor.false_duplicates", false_duplicates as f64);
    m.insert("monitor.overuse_reports", l.overuse_reports as f64);
    let e = &mut rep.exact;
    e.insert("ledger.offered".into(), l.offered);
    e.insert("ledger.delivered".into(), l.delivered);
    e.insert("ledger.hostile_offered".into(), l.hostile_offered);
    e.insert("gateway.rate_limited".into(), l.gw_rate_limited);
    e.insert("monitor.false_duplicates".into(), false_duplicates);
    e.insert("monitor.overuse_reports".into(), l.overuse_reports);
}
