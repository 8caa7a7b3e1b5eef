//! The Colibri gateway (paper §3.2, §4.6).
//!
//! All Colibri traffic of an AS's end hosts passes through the gateway,
//! which is the *only* stateful data-plane component: it maps the `ResId`
//! of incoming EER packets to the reservation state obtained during setup
//! (path, `ResInfo`, `EERInfo`, hop authenticators), performs
//! deterministic token-bucket monitoring, stamps the high-precision
//! timestamp, and computes the hop validation field for every on-path AS
//! (Eq. 6) — thereby certifying to the rest of the path that the mandatory
//! flow monitoring has been performed.
//!
//! The paper's implementation keys a DPDK `rte_hash` by `ResId`; here it
//! is a `HashMap` with the same access pattern. Performance behaviour is
//! preserved: per-packet cost grows with path length (one CMAC per on-path
//! AS) and with the table size through cache misses (Fig. 5).

use crate::telemetry::GatewayTelemetry;
use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ResId};
use colibri_crypto::Cmac;
use colibri_ctrl::OwnedEer;
use colibri_telemetry::Registry;
use colibri_qdisc::{AdmitError, HtbConfig, Qdisc, QdiscStats, TrafficClass};
use colibri_wire::mac::{eer_hvf4_with, eer_hvf8_with, eer_hvf_with};
use colibri_wire::{EerInfo, HopField, PacketViewMut, ResInfo};
use std::collections::HashMap;

/// Why the gateway refused to send a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// No reservation with this ID is installed.
    UnknownReservation(ResId),
    /// All versions of the reservation have expired.
    Expired(ResId),
    /// The flow exceeded its reserved bandwidth; the packet is dropped
    /// (backpressure to the sender's congestion control, §3.2).
    RateLimited(ResId),
    /// The claimed source host does not own this reservation.
    WrongHost,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownReservation(r) => write!(f, "unknown reservation {r}"),
            GatewayError::Expired(r) => write!(f, "reservation {r} expired"),
            GatewayError::RateLimited(r) => write!(f, "reservation {r} rate-limited"),
            GatewayError::WrongHost => write!(f, "source host does not own the reservation"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// One installed version: everything needed to stamp packets.
#[derive(Clone)]
struct InstalledVersion {
    res_info: ResInfo,
    /// The hop authenticators σᵢ, one per on-path AS, stored as *fully
    /// expanded* CMAC instances (AES round keys + subkeys K1/K2). The
    /// reservation is installed once and then stamps every packet of its
    /// lifetime, so the key expansion — a serial AES dependency chain the
    /// 4-wide interleaving cannot hide — is paid at install time instead
    /// of per packet × per hop. ~256 B per hop instead of 16 B; even at
    /// 2²⁰ installed reservations × 8 hops that is ~2 GiB on a middlebox
    /// appliance, and typical tables (Fig. 5's r ≤ 2¹⁶) stay in the MiBs.
    sigma_cmacs: Vec<Cmac>,
    bw: Bandwidth,
    exp: Instant,
}

/// Expands raw σ keys into ready-to-MAC CMAC instances, eight at a time
/// so the serial AES key-expansion chains of up to eight hops interleave
/// ([`Cmac::new8`]); a remainder of at least four hops takes the 4-wide
/// kernel, the rest expand scalar.
fn expand_hop_auths(hop_auths: &[colibri_crypto::Key]) -> Vec<Cmac> {
    let mut out = Vec::with_capacity(hop_auths.len());
    let mut chunks = hop_auths.chunks_exact(8);
    for oct in &mut chunks {
        out.extend(Cmac::new8(core::array::from_fn(|j| &oct[j].0)));
    }
    let mut rest = chunks.remainder().chunks_exact(4);
    for quad in &mut rest {
        out.extend(Cmac::new4([&quad[0].0, &quad[1].0, &quad[2].0, &quad[3].0]));
    }
    for k in rest.remainder() {
        out.push(k.cmac());
    }
    out
}

/// One reservation's gateway state.
struct Entry {
    eer_info: EerInfo,
    hops: Vec<HopField>,
    versions: Vec<InstalledVersion>,
    /// Last timestamp issued *per version*, to guarantee uniqueness of
    /// `Ts` (the duplicate-suppression ID, §4.3). Tracked per version
    /// because `Ts` is relative to the version's `ExpT`: a renewal moves
    /// the expiry forward and restarts the countdown higher up. Distinct
    /// versions cannot collide within the replay window, since their
    /// expiries differ by far more than the window.
    last_ts: HashMap<u8, u64>,
}

/// A successfully stamped packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedPacket {
    /// The serialized Colibri packet, HVFs filled.
    pub bytes: Vec<u8>,
    /// The egress interface of the first AS (where the gateway hands the
    /// packet to the border router).
    pub first_egress: colibri_base::InterfaceId,
}

/// The shape of the gateway's policing tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosMode {
    /// The four-level hierarchy of `colibri-qdisc`: uplink → class →
    /// reservation → host, with scavenging and best-effort AQM. The
    /// reservation level is the paper's per-reservation token bucket
    /// (§4.8); [`HtbConfig::default`] is the degenerate tree (no uplink,
    /// no host caps), where it is the only level that decides.
    Hierarchical(HtbConfig),
}

impl Default for QosMode {
    fn default() -> Self {
        QosMode::Hierarchical(HtbConfig::default())
    }
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Burst allowance of every reservation's token bucket. It overrides
    /// the `res_burst` of the tree in `qos`.
    pub burst: Duration,
    /// The policing tree (uplink, class shares, host caps).
    pub qos: QosMode,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self { burst: Duration::from_millis(50), qos: QosMode::default() }
    }
}

/// The Colibri gateway of one AS.
pub struct Gateway {
    table: HashMap<ResId, Entry>,
    /// The policing tree: the one admission authority for every packet.
    pub(crate) qdisc: Qdisc,
    telemetry: Option<GatewayTelemetry>,
    /// Counters for observability and the protection experiment.
    pub stats: GatewayStats,
}

/// Gateway counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets stamped and forwarded.
    pub forwarded: u64,
    /// Packets dropped by deterministic monitoring.
    pub rate_limited: u64,
    /// Packets dropped for other reasons.
    pub rejected: u64,
    /// [`Gateway::install`] calls (installs, refreshes and rejected
    /// EERs alike).
    pub installs: u64,
}

impl GatewayStats {
    /// Folds another stats snapshot into this one (shard aggregation).
    pub fn merge(&mut self, other: &GatewayStats) {
        self.forwarded += other.forwarded;
        self.rate_limited += other.rate_limited;
        self.rejected += other.rejected;
        self.installs += other.installs;
    }
}

impl Gateway {
    /// An empty gateway.
    pub fn new(cfg: GatewayConfig) -> Self {
        let QosMode::Hierarchical(htb) = cfg.qos;
        // All buckets start full, so building the tree at the epoch is
        // equivalent to building it at first use.
        let qdisc = Qdisc::new(HtbConfig { res_burst: cfg.burst, ..htb }, Instant::EPOCH);
        Self { table: HashMap::new(), qdisc, telemetry: None, stats: GatewayStats::default() }
    }

    /// Attaches telemetry (outcome counters plus the Volatile per-packet
    /// stamp-latency histogram), registered under `shard` in `registry`.
    /// Detached gateways — the default — pay one predictable branch per
    /// packet. The qdisc's per-node drop/shed/scavenge/sojourn metrics
    /// register under the same shard.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(GatewayTelemetry::new(registry, shard));
        self.qdisc.attach_telemetry(registry, shard);
    }

    /// Installs (or refreshes) a reservation from the CServ's owned-EER
    /// state (Fig. 1b ➎). Call after every successful setup or renewal.
    ///
    /// Structurally invalid EERs — an empty path or one longer than the
    /// wire format can carry — are rejected outright (the reservation is
    /// removed if present), so the per-packet stamping path can rely on
    /// `1..=MAX_HOPS` hops and never fail on path shape. Superseded
    /// version entries are pruned from the replay-ordering (`last_ts`) map
    /// here, so a long-lived gateway's memory is bounded by its *live*
    /// versions, not by every version a reservation ever had.
    pub fn install(&mut self, eer: &OwnedEer, now: Instant) {
        self.stats.installs += 1;
        if eer.hop_fields.is_empty() || eer.hop_fields.len() > colibri_wire::MAX_HOPS {
            self.remove(eer.key.res_id);
            return;
        }
        let versions: Vec<InstalledVersion> = eer
            .versions
            .iter()
            .filter(|v| v.exp > now)
            .map(|v| InstalledVersion {
                res_info: ResInfo {
                    src_as: eer.key.src_as,
                    res_id: eer.key.res_id,
                    bw: colibri_base::BwClass::from_bandwidth_ceil(v.bw),
                    exp_t: v.exp,
                    ver: v.ver,
                },
                sigma_cmacs: expand_hop_auths(&v.hop_auths),
                bw: v.bw,
                exp: v.exp,
            })
            .collect();
        if versions.is_empty() {
            self.remove(eer.key.res_id);
            return;
        }
        // The monitored rate is the maximum over live versions: using
        // several versions cannot multiply bandwidth (§4.2/§4.8).
        let rate = versions.iter().map(|v| v.bw).max().unwrap();
        // A renewal reconfigures the reservation's bucket: accumulated
        // tokens carry over — settled at the *old* rate, then clamped to
        // the new depth — so a mid-stream rate change never mints a
        // retroactive free burst (see `TokenBucket::reconfigure`).
        self.qdisc.install(eer.key.res_id, TrafficClass::ColibriData, rate, now);
        match self.table.get_mut(&eer.key.res_id) {
            Some(entry) => {
                entry.versions = versions;
                // Evict replay-ordering state of versions that no longer
                // exist (expired or superseded): their `Ts` values can
                // never be stamped again, so keeping them only grows the
                // map — one stale u64 per version, forever, on a gateway
                // that renews every few seconds.
                let live = &entry.versions;
                entry.last_ts.retain(|ver, _| live.iter().any(|v| v.res_info.ver == *ver));
            }
            None => {
                self.table.insert(
                    eer.key.res_id,
                    Entry {
                        eer_info: eer.eer_info,
                        hops: eer.hop_fields.clone(),
                        versions,
                        last_ts: HashMap::new(),
                    },
                );
            }
        }
    }

    /// Attack harness: overrides the deterministic-monitoring rate of one
    /// reservation, modeling a *faulty or malicious source AS* that does
    /// not police its hosts (the threat of §7.1 attack 3 / Table 2
    /// phase 3). Packets remain fully authentic — their `Bw` field and
    /// HVFs are unchanged — so only downstream probabilistic monitoring
    /// can catch the overuse.
    ///
    /// Like a renewal, the rate change *carries the accumulated tokens
    /// over* (settled at the old rate as of `now`) rather than resetting
    /// burst state: even a malicious override cannot retroactively mint
    /// tokens for the interval before it happened.
    pub fn override_monitor_rate(&mut self, res_id: ResId, rate: Bandwidth, now: Instant) {
        if self.table.contains_key(&res_id) {
            self.qdisc.install(res_id, TrafficClass::ColibriData, rate, now);
        }
    }

    /// Removes a reservation.
    pub fn remove(&mut self, res_id: ResId) {
        self.table.remove(&res_id);
        self.qdisc.remove(res_id);
    }

    /// Number of installed reservations (the `r` parameter of Figs. 5–6).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// The qdisc's accumulated counters. Always `Some`: every gateway
    /// polices through its qdisc.
    pub fn qos_stats(&self) -> Option<QdiscStats> {
        Some(self.qdisc.stats())
    }

    /// Mutable access to the hierarchy (drive `enqueue`/`service` rounds,
    /// e.g. from the simulator or the `repro_qos` bench). Always `Some`,
    /// as for [`Gateway::qos_stats`].
    pub fn qdisc_mut(&mut self) -> Option<&mut Qdisc> {
        Some(&mut self.qdisc)
    }

    /// Shared access to the hierarchy. Always `Some`, as for
    /// [`Gateway::qos_stats`].
    pub fn qdisc(&self) -> Option<&Qdisc> {
        Some(&self.qdisc)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Processes one packet from end host `src_host` over reservation
    /// `res_id` (Fig. 1c ➊–➋): monitor, stamp `Ts`, compute all HVFs, and
    /// emit the wire packet.
    pub fn process(
        &mut self,
        src_host: HostAddr,
        res_id: ResId,
        payload: &[u8],
        now: Instant,
    ) -> Result<StampedPacket, GatewayError> {
        let mut bytes = Vec::new();
        let first_egress = self.process_into(src_host, res_id, payload, now, &mut bytes)?;
        Ok(StampedPacket { bytes, first_egress })
    }

    /// Allocation-free variant of [`Gateway::process`]: serializes the
    /// stamped packet into `buf` (cleared and reused; it only grows when
    /// its capacity is insufficient) and returns the first-hop egress
    /// interface. This is the hot path for drivers that recycle packet
    /// buffers — after warm-up the gateway performs zero heap allocations
    /// per packet, matching the paper's preallocated-mbuf DPDK pipeline.
    ///
    /// Hop validation fields are computed eight hops at a time over the
    /// version's pre-expanded σ CMAC instances (Eq. 6 via
    /// [`eer_hvf8_with`]), so the per-hop AES blocks of up to eight
    /// on-path ASes are in flight concurrently and *no* AES key expansion
    /// runs per packet — the schedules were expanded at install time.
    /// Remainder hops take the 4-wide kernel when at least four remain,
    /// and otherwise reuse their cached instance through [`eer_hvf_with`].
    pub fn process_into(
        &mut self,
        src_host: HostAddr,
        res_id: ResId,
        payload: &[u8],
        now: Instant,
        buf: &mut Vec<u8>,
    ) -> Result<colibri_base::InterfaceId, GatewayError> {
        // Wall clock feeds only the Volatile stamp-latency histogram; it
        // never influences processing (determinism rules, DESIGN.md §11).
        let wall_start = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let entry = match self.table.get_mut(&res_id) {
            Some(e) => e,
            None => {
                self.stats.rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.rejected.inc();
                }
                return Err(GatewayError::UnknownReservation(res_id));
            }
        };
        if entry.eer_info.src_host != src_host {
            self.stats.rejected += 1;
            if let Some(t) = &self.telemetry {
                t.rejected.inc();
            }
            return Err(GatewayError::WrongHost);
        }
        // Use the latest live version (§4.2).
        let Some(version) = entry.versions.iter().rev().find(|v| v.exp > now) else {
            self.stats.rejected += 1;
            if let Some(t) = &self.telemetry {
                t.rejected.inc();
            }
            return Err(GatewayError::Expired(res_id));
        };
        let pkt_size = colibri_wire::header_len(entry.hops.len(), true) + payload.len();
        // Deterministic monitoring (§4.8), sized by the full packet: host
        // → reservation conformance, then class and uplink accounting.
        match self.qdisc.admit(res_id, src_host, pkt_size as u64, now) {
            Ok(()) => {}
            Err(AdmitError::UnknownReservation(_)) => {
                // Tree and table are installed/removed together; an entry
                // without a node means teardown raced ahead.
                self.stats.rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.rejected.inc();
                }
                return Err(GatewayError::UnknownReservation(res_id));
            }
            Err(AdmitError::RateLimited(_) | AdmitError::HostCapped(..)) => {
                self.stats.rate_limited += 1;
                if let Some(t) = &self.telemetry {
                    t.rate_limited.inc();
                }
                return Err(GatewayError::RateLimited(res_id));
            }
        }
        // High-precision timestamp: ns until expiry, strictly decreasing
        // per version so every packet is unique.
        let ver = version.res_info.ver;
        let mut ts = version.exp.as_nanos().saturating_sub(now.as_nanos());
        // Single hash probe: the entry API reads and writes the per-version
        // slot in one lookup (this runs once per packet).
        match entry.last_ts.entry(ver) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let last = *slot.get();
                if ts >= last {
                    ts = last.saturating_sub(1);
                }
                slot.insert(ts);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(ts);
            }
        }

        // Encode straight from the installed hops: `PacketBuilder::path`
        // would copy them into a fresh `Vec` per packet.
        let (res_info, eer_info) = (&version.res_info, Some(&entry.eer_info));
        colibri_wire::encode_packet_into(res_info, eer_info, false, &entry.hops, ts, payload, buf)
            .expect("installed path is valid");
        debug_assert_eq!(buf.len(), pkt_size);
        {
            let mut view = PacketViewMut::parse(buf).expect("self-built packet");
            let mut chunks = version.sigma_cmacs.chunks_exact(8);
            let mut i = 0;
            for oct in &mut chunks {
                let hvfs = eer_hvf8_with(
                    core::array::from_fn(|j| &oct[j]),
                    [(ts, pkt_size); 8],
                );
                for hvf in hvfs {
                    view.set_hvf(i, hvf);
                    i += 1;
                }
            }
            let mut rest = chunks.remainder().chunks_exact(4);
            for quad in &mut rest {
                let hvfs = eer_hvf4_with(
                    [&quad[0], &quad[1], &quad[2], &quad[3]],
                    [(ts, pkt_size); 4],
                );
                for hvf in hvfs {
                    view.set_hvf(i, hvf);
                    i += 1;
                }
            }
            for sigma_cmac in rest.remainder() {
                view.set_hvf(i, eer_hvf_with(sigma_cmac, ts, pkt_size));
                i += 1;
            }
        }
        self.stats.forwarded += 1;
        if let Some(t) = &self.telemetry {
            t.forwarded.inc();
            if let Some(start) = wall_start {
                t.stamp_ns.observe(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(entry.hops[0].egress)
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("reservations", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ReservationKey};
    use colibri_crypto::Key;
    use colibri_ctrl::OwnedEerVersion;
    use colibri_wire::PacketView;

    const HOST: HostAddr = HostAddr(7);

    fn owned(res_id: u32, versions: Vec<(u8, Bandwidth, Instant)>) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), colibri_base::ResId(res_id)),
            eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
            versions: versions
                .into_iter()
                .map(|(ver, bw, exp)| OwnedEerVersion {
                    ver,
                    bw,
                    exp,
                    hop_auths: vec![Key([ver; 16]), Key([ver + 100; 16])],
                })
                .collect(),
        }
    }

    fn gw() -> Gateway {
        Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() })
    }

    #[test]
    fn install_skips_expired_versions() {
        let mut g = gw();
        let now = Instant::from_secs(100);
        g.install(
            &owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]),
            now,
        );
        assert!(g.is_empty(), "fully expired EER must not be installed");
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(50)),
                    (1, Bandwidth::from_mbps(5), Instant::from_secs(200)),
                ],
            ),
            now,
        );
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn reinstall_with_all_expired_removes_entry() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let o = owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]);
        g.install(&o, t0);
        assert_eq!(g.len(), 1);
        g.install(&o, Instant::from_secs(60));
        assert!(g.is_empty());
    }

    #[test]
    fn invalid_path_shape_rejected_at_install() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let exp = Instant::from_secs(100);
        // Baseline: a valid install exists.
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
        assert_eq!(g.len(), 1);
        // An empty path can never be stamped: the install is rejected and
        // the existing entry removed rather than left half-updated.
        let mut bad = owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]);
        bad.hop_fields.clear();
        g.install(&bad, t0);
        assert!(g.is_empty());
        // A path longer than the wire format carries is equally rejected.
        let mut long = owned(2, vec![(0, Bandwidth::from_mbps(5), exp)]);
        long.hop_fields = vec![HopField::new(0, 1); colibri_wire::MAX_HOPS + 1];
        g.install(&long, t0);
        assert!(g.is_empty());
        assert_eq!(
            g.process(HOST, colibri_base::ResId(2), b"x", t0),
            Err(GatewayError::UnknownReservation(colibri_base::ResId(2)))
        );
    }

    #[test]
    fn renewals_prune_replay_state_of_dead_versions() {
        let mut g = gw();
        let bw = Bandwidth::from_mbps(5);
        // A long-lived reservation renewed across many version numbers:
        // stamp a packet on each version (populating its last_ts slot),
        // then renew to the next. The replay map must track only live
        // versions, not every version ever seen.
        for ver in 0u8..50 {
            let exp = Instant::from_secs(100 + ver as u64);
            let now = Instant::from_secs(ver as u64);
            g.install(&owned(1, vec![(ver, bw, exp)]), now);
            g.process(HOST, colibri_base::ResId(1), b"x", now).unwrap();
            let slots = g.table[&colibri_base::ResId(1)].last_ts.len();
            assert!(slots <= 1, "replay map grew to {slots} slots at ver {ver}");
        }
    }

    #[test]
    fn latest_valid_version_used() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(16)),
                    (1, Bandwidth::from_mbps(9), Instant::from_secs(32)),
                ],
            ),
            t0,
        );
        let pkt = g.process(HOST, colibri_base::ResId(1), b"x", t0).unwrap();
        assert_eq!(PacketView::parse(&pkt.bytes).unwrap().res_info().ver, 1);
        // After version 1 expires, nothing remains (version 0 is older).
        let late = Instant::from_secs(40);
        assert_eq!(
            g.process(HOST, colibri_base::ResId(1), b"x", late),
            Err(GatewayError::Expired(colibri_base::ResId(1)))
        );
    }

    #[test]
    fn ts_unique_and_decreasing_within_version() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let mut prev = u64::MAX;
        for _ in 0..50 {
            // Same `now` for every packet: Ts must still be unique.
            let pkt = g.process(HOST, colibri_base::ResId(1), b"", t0).unwrap();
            let ts = PacketView::parse(&pkt.bytes).unwrap().ts();
            assert!(ts < prev, "ts {ts} not strictly decreasing");
            prev = ts;
        }
    }

    #[test]
    fn monitor_counts_header_bytes() {
        // Reservation of 8 kbps with a 1500-byte burst: a single
        // zero-payload packet (64-byte header) passes, but its header
        // bytes are charged — after ~23 packets the bucket is empty even
        // though no payload was ever sent (defense against header-only
        // flooding, §4.8).
        let mut g = Gateway::new(GatewayConfig { burst: Duration::from_millis(1), ..Default::default() });
        let t0 = Instant::from_secs(0);
        let mut o = owned(1, vec![(0, Bandwidth::from_kbps(8), Instant::from_secs(16))]);
        o.versions[0].bw = Bandwidth::from_kbps(8);
        g.install(&o, t0);
        let mut sent = 0;
        for _ in 0..100 {
            if g.process(HOST, colibri_base::ResId(1), b"", t0).is_ok() {
                sent += 1;
            }
        }
        assert!(sent < 30, "header bytes not charged: {sent} empty packets passed");
        assert!(g.stats.rate_limited > 0);
    }

    #[test]
    fn burst_sets_reservation_bucket_depth() {
        // 8 Mb/s = 1 MB/s: a 1 s burst admits ~1 MB at once whatever the
        // tree's own `res_burst` says (the default's 50 ms would be 50 kB).
        let mut g = Gateway::new(GatewayConfig { burst: Duration::from_secs(1), ..Default::default() });
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(8), Instant::from_secs(16))]), t0);
        let mut admitted = 0u64;
        while g.process(HOST, colibri_base::ResId(1), &[0u8; 944], t0).is_ok() {
            admitted += 1000; // 944 B payload + 56 B header
        }
        assert_eq!(admitted, 1_000_000);
    }

    #[test]
    fn first_egress_reported() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let pkt = g.process(HOST, colibri_base::ResId(1), b"x", t0).unwrap();
        assert_eq!(pkt.first_egress, colibri_base::InterfaceId(1));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        g.process(HOST, colibri_base::ResId(1), b"x", t0).unwrap();
        let _ = g.process(HostAddr(99), colibri_base::ResId(1), b"x", t0);
        let _ = g.process(HOST, colibri_base::ResId(2), b"x", t0);
        assert_eq!(g.stats.forwarded, 1);
        assert_eq!(g.stats.rejected, 2);
    }
}
