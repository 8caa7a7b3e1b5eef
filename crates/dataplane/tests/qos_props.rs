//! Differential and regression properties of the gateway's policing.
//!
//! The gateway polices through its `colibri-qdisc` tree. With the default
//! (degenerate) tree it is proven against an independent oracle, the
//! paper's flat monitoring (§4.8) written out here: one
//! [`TokenBucket`] per reservation at the maximum rate over its live
//! versions, with the gateway's `burst`, reconfigured (tokens carried
//! over) on renewal and rate override. Gateway and oracle must agree on
//! *every* packet — verdicts and counters. On top of the differential,
//! regression tests pin the renewal token-carry-over semantics (a
//! mid-stream rate change must never mint a retroactive burst) and
//! node-count conservation under install/remove churn.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri_crypto::Key;
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_dataplane::{Gateway, GatewayConfig, GatewayError, GatewayStats, QosMode};
use colibri_monitor::TokenBucket;
use colibri_qdisc::HtbConfig;
use colibri_wire::{EerInfo, HopField};
use proptest::prelude::*;
use std::collections::HashMap;

const HOST: HostAddr = HostAddr(7);

fn owned(res_id: u32, versions: Vec<(u8, Bandwidth, Instant)>) -> OwnedEer {
    OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
        eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
        path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
        hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
        versions: versions
            .into_iter()
            .map(|(ver, bw, exp)| OwnedEerVersion {
                ver,
                bw,
                exp,
                hop_auths: vec![Key([ver; 16]), Key([ver.wrapping_add(100); 16])],
            })
            .collect(),
    }
}

/// The paper's flat per-reservation monitoring, independent of the
/// qdisc: what a default gateway must decide for every packet sent by
/// [`HOST`] over a reservation built by [`owned`]. Each reservation is a
/// flat bucket plus the expiries of its live versions.
struct FlatOracle {
    burst: Duration,
    table: HashMap<ResId, (TokenBucket, Vec<Instant>)>,
    stats: GatewayStats,
}

impl FlatOracle {
    fn new(burst: Duration) -> Self {
        Self { burst, table: HashMap::new(), stats: GatewayStats::default() }
    }

    fn install(&mut self, eer: &OwnedEer, now: Instant) {
        self.stats.installs += 1;
        let res_id = eer.key.res_id;
        let live: Vec<_> = eer.versions.iter().filter(|v| v.exp > now).collect();
        let Some(rate) = live.iter().map(|v| v.bw).max() else {
            self.table.remove(&res_id);
            return;
        };
        let exps = live.iter().map(|v| v.exp).collect();
        match self.table.get_mut(&res_id) {
            Some((bucket, live_exps)) => {
                bucket.reconfigure(rate, self.burst, now);
                *live_exps = exps;
            }
            None => {
                let bucket = TokenBucket::with_burst_duration(rate, self.burst, now);
                self.table.insert(res_id, (bucket, exps));
            }
        }
    }

    fn override_rate(&mut self, res_id: ResId, rate: Bandwidth, now: Instant) {
        if let Some((bucket, _)) = self.table.get_mut(&res_id) {
            bucket.reconfigure(rate, self.burst, now);
        }
    }

    fn process(&mut self, res: ResId, payload_len: usize, now: Instant) -> Result<(), GatewayError> {
        let verdict = match self.table.get_mut(&res) {
            None => Err(GatewayError::UnknownReservation(res)),
            Some((_, exps)) if !exps.iter().any(|exp| *exp > now) => {
                Err(GatewayError::Expired(res))
            }
            Some((bucket, _)) => {
                // `owned` paths have two hops.
                let size = colibri_wire::header_len(2, true) + payload_len;
                if bucket.try_consume(size as u64, now) {
                    Ok(())
                } else {
                    Err(GatewayError::RateLimited(res))
                }
            }
        };
        match verdict {
            Ok(()) => self.stats.forwarded += 1,
            Err(GatewayError::RateLimited(_)) => self.stats.rate_limited += 1,
            Err(_) => self.stats.rejected += 1,
        }
        verdict
    }
}

/// A default gateway (degenerate tree) with `burst`.
fn gateway(burst: Duration) -> Gateway {
    Gateway::new(GatewayConfig { burst, ..Default::default() })
}

proptest! {
    /// **Degenerate tree ≡ flat monitoring**: for arbitrary reservations
    /// and packet schedules, the gateway and the flat oracle produce the
    /// *same* per-packet verdict (success, or the identical error) and
    /// the same counters. The tree collapses to exactly one `try_consume`
    /// per packet, so any divergence is a bug in the tree or the gateway.
    #[test]
    fn degenerate_hierarchy_matches_flat_gateway(
        burst_ms in 1u64..200,
        rates_kbps in prop::collection::vec(64u64..500_000, 1..4),
        pkts in prop::collection::vec(
            (0u64..2_000_000, 0usize..1400, 0u8..5),
            1..200,
        ),
    ) {
        let burst = Duration::from_millis(burst_ms);
        let mut flat = FlatOracle::new(burst);
        let mut hier = gateway(burst);
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(3);
        for (i, kbps) in rates_kbps.iter().enumerate() {
            let o = owned(i as u32, vec![(0, Bandwidth::from_kbps(*kbps), exp)]);
            flat.install(&o, t0);
            hier.install(&o, t0);
        }
        let mut sched = pkts;
        sched.sort_unstable_by_key(|(t, ..)| *t);
        for (off_us, len, which) in sched {
            let now = t0 + Duration::from_micros(off_us);
            // `which` may address an uninstalled reservation (unknown) and
            // `off_us` may land past expiry — error paths must agree too.
            let res = ResId(which as u32);
            let payload = vec![0xabu8; len];
            let vf = flat.process(res, len, now);
            let vh = hier.process(HOST, res, &payload, now).map(|_| ());
            prop_assert_eq!(vf, vh, "gateway diverged from flat monitoring");
        }
        prop_assert_eq!(flat.stats, hier.stats);
        // The tree admitted exactly the packets the oracle forwarded.
        let qs = hier.qos_stats().expect("every gateway has qdisc stats");
        prop_assert_eq!(qs.admitted, flat.stats.forwarded);
    }

    /// Renewals at an *unchanged* rate are invisible to admission: a
    /// gateway renewed every few hundred microseconds admits exactly the
    /// same packets as one never renewed — token state carries over.
    #[test]
    fn same_rate_renewal_is_admission_neutral(
        rate_kbps in 64u64..500_000,
        pkts in prop::collection::vec((0u64..1_000_000, 0usize..1400), 1..150),
        renew_every_us in 50u64..5000,
    ) {
        let burst = Duration::from_millis(50);
        let rate = Bandwidth::from_kbps(rate_kbps);
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(10);
        let mut quiet = FlatOracle::new(burst);
        let mut churny = gateway(burst);
        // Run the renewal storm on the gateway and the quiet run on the
        // flat oracle — this folds the differential in for free.
        quiet.install(&owned(1, vec![(0, rate, exp)]), t0);
        churny.install(&owned(1, vec![(0, rate, exp)]), t0);
        let mut sched = pkts;
        sched.sort_unstable();
        let mut next_renew = renew_every_us;
        let mut ver = 0u8;
        for (off_us, len) in sched {
            let now = t0 + Duration::from_micros(off_us);
            while off_us >= next_renew {
                ver = ver.wrapping_add(1);
                churny.install(&owned(1, vec![(ver, rate, exp)]), now);
                next_renew += renew_every_us;
            }
            let payload = vec![0u8; len];
            let vq = quiet.process(ResId(1), len, now).is_ok();
            let vc = churny.process(HOST, ResId(1), &payload, now).is_ok();
            prop_assert_eq!(vq, vc, "a same-rate renewal changed an admit verdict");
        }
    }

    /// Install/remove churn conserves hierarchy nodes: at every step the
    /// qdisc holds exactly one reservation node per installed table entry
    /// and the structural audit finds no leaked child nodes; after
    /// removing everything, the tree is empty.
    #[test]
    fn install_remove_churn_conserves_nodes(
        ops in prop::collection::vec((any::<bool>(), 0u32..8, 64u64..100_000), 1..200),
    ) {
        let mut g = gateway(Duration::from_millis(20));
        let t0 = Instant::from_secs(1);
        let exp = Instant::from_secs(100);
        let mut live = std::collections::HashSet::new();
        for (is_install, id, kbps) in ops {
            let now = t0 + Duration::from_micros(live.len() as u64);
            if is_install {
                g.install(&owned(id, vec![(0, Bandwidth::from_kbps(kbps), exp)]), now);
                live.insert(id);
                // A freshly (re)installed reservation processes packets.
                prop_assert!(g.process(HOST, ResId(id), b"", now).is_ok());
            } else {
                g.remove(ResId(id));
                live.remove(&id);
                prop_assert!(matches!(
                    g.process(HOST, ResId(id), b"", now),
                    Err(GatewayError::UnknownReservation(_))
                ));
            }
            let report = g.qdisc().unwrap().audit().expect("audit must stay clean");
            prop_assert_eq!(report.reservations, live.len(), "table/tree node count diverged");
            prop_assert_eq!(g.len(), live.len());
        }
        for id in 0..8u32 {
            g.remove(ResId(id));
        }
        let report = g.qdisc().unwrap().audit().unwrap();
        prop_assert_eq!(report.reservations, 0);
        prop_assert_eq!(report.host_meters, 0);
        prop_assert_eq!(report.queued_pkts, 0, "teardown leaked queued packets");
    }
}

/// The trees the regression tests run on: the default (degenerate) one
/// and a shaped uplink far above the reservation, whose class and uplink
/// accounting must not change the reservation-level verdict.
fn trees() -> [HtbConfig; 2] {
    [HtbConfig::default(), HtbConfig::shaped(Bandwidth::from_gbps(100))]
}

/// A gateway and the flat oracle driven in lockstep: every packet must
/// get the same verdict from both.
struct Lockstep {
    gw: Gateway,
    oracle: FlatOracle,
}

impl Lockstep {
    fn new(burst: Duration, htb: HtbConfig) -> Self {
        let gw = Gateway::new(GatewayConfig { burst, qos: QosMode::Hierarchical(htb) });
        Self { gw, oracle: FlatOracle::new(burst) }
    }

    fn install(&mut self, eer: &OwnedEer, now: Instant) {
        self.gw.install(eer, now);
        self.oracle.install(eer, now);
    }

    fn override_rate(&mut self, rate: Bandwidth, now: Instant) {
        self.gw.override_monitor_rate(ResId(1), rate, now);
        self.oracle.override_rate(ResId(1), rate, now);
    }

    /// Sends one 1000-byte packet (944 B payload + 56 B header) on
    /// reservation 1; returns whether it was admitted.
    fn send(&mut self, now: Instant) -> bool {
        let v = self.gw.process(HOST, ResId(1), &[0u8; 944], now).map(|_| ());
        assert_eq!(v, self.oracle.process(ResId(1), 944, now), "gateway != oracle");
        v.is_ok()
    }
}

/// Regression: a mid-stream renewal to a higher rate must *not* grant a
/// retroactive burst. Before `TokenBucket::reconfigure`, the old
/// `set_rate` left the last-refill timestamp unsettled, so the elapsed
/// idle interval was re-priced at the new rate on the next packet —
/// draining a 8 Mb/s bucket, idling one second, then renewing to
/// 800 Mb/s minted ~5 MB out of thin air. Now the idle second refills at
/// the *old* rate first and the token level merely carries over.
#[test]
fn renewal_to_higher_rate_grants_no_free_burst() {
    let burst = Duration::from_millis(50);
    let low = Bandwidth::from_mbps(8); // capacity: 50 kB
    let high = Bandwidth::from_mbps(800); // capacity: 5 MB
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);

    for htb in trees() {
        let mut g = Lockstep::new(burst, htb);
        g.install(&owned(1, vec![(0, low, exp)]), t0);

        // Drain the 50 kB bucket completely at t0.
        while g.send(t0) {}

        // Idle one second (refills at the OLD 1 MB/s rate → back to the
        // old 50 kB cap), then renew to 100× the rate.
        let t1 = t0 + Duration::from_secs(1);
        g.install(&owned(1, vec![(1, high, exp)]), t1);

        // Everything admissible *at this instant* is the carried-over
        // ≤50 kB — not the new 5 MB capacity, and not the 100 MB a
        // new-rate re-pricing of the idle second would mint.
        let mut admitted = 0u64;
        while g.send(t1) {
            admitted += 1000;
            assert!(
                admitted <= 51_000,
                "renewal minted a free burst ({admitted} B instantly, tree {htb:?})"
            );
        }
        assert!(
            admitted >= 49_000,
            "carried-over tokens lost on renewal ({admitted} B, tree {htb:?})"
        );

        // From here the refill runs at the new rate: 10 ms buys 1 MB.
        let t2 = t1 + Duration::from_millis(10);
        let mut refilled = 0u64;
        while g.send(t2) {
            refilled += 1000;
            assert!(refilled <= 1_001_000);
        }
        assert!(
            refilled >= 990_000,
            "new rate not in effect after renewal ({refilled} B in 10 ms)"
        );
        assert_eq!(g.gw.stats, g.oracle.stats);
    }
}

/// Regression companion: `override_monitor_rate` (the §7.1 attack-3
/// harness) uses the same carry-over semantics — a malicious rate
/// override cannot retroactively mint tokens either.
#[test]
fn override_monitor_rate_carries_tokens_over() {
    let burst = Duration::from_millis(50);
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);
    for htb in trees() {
        let mut g = Lockstep::new(burst, htb);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(8), exp)]), t0);
        while g.send(t0) {}

        let t1 = t0 + Duration::from_secs(1);
        g.override_rate(Bandwidth::from_mbps(800), t1);
        let mut admitted = 0u64;
        while g.send(t1) {
            admitted += 1000;
            assert!(admitted <= 51_000, "override minted a free burst (tree {htb:?})");
        }
        // The new rate governs the refill from here: 10 ms buys 1 MB.
        let t2 = t1 + Duration::from_millis(10);
        let mut refilled = 0u64;
        while g.send(t2) {
            refilled += 1000;
        }
        assert!(refilled >= 990_000, "override not in effect ({refilled} B in 10 ms)");
        assert_eq!(g.gw.stats, g.oracle.stats);
    }
}
