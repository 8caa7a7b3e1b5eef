//! Fairness and conservation properties of the hierarchy token bucket,
//! after the `RateLimiterFairness` TLA⁺ spec (SNIPPETS.md): tenant
//! isolation, no token creation, fair refill, burst ≤ capacity — plus the
//! scheduler-side invariants (packet conservation under churn, guarantee
//! protection, budget respect) the spec's state machine implies.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ResId};
use colibri_qdisc::{AdmitError, HtbConfig, Qdisc, TrafficClass};
use proptest::prelude::*;

const HOST: HostAddr = HostAddr(1);

/// The degenerate tree: no uplink, no host caps, 50 ms reservation burst.
fn degenerate() -> HtbConfig {
    HtbConfig::default()
}

/// The reservation bucket's byte capacity for a rate/burst pair — the
/// same arithmetic as `TokenBucket::with_burst_duration` (1500-byte MTU
/// floor).
fn burst_bytes(rate: Bandwidth, burst: Duration) -> u64 {
    ((rate.as_bps() as u128 * burst.as_nanos() as u128) / 8 / 1_000_000_000).max(1500) as u64
}

proptest! {
    /// **TenantIsolation**: the verdict sequence of one reservation is a
    /// function of *its own* traffic only. Interleaving arbitrary load
    /// from a second tenant — even one hammering far beyond its rate —
    /// never changes a single admit decision of the first.
    #[test]
    fn tenant_isolation(
        rate_a_kbps in 64u64..100_000,
        rate_b_kbps in 64u64..100_000,
        pkts in prop::collection::vec((0u64..2_000_000, 40u64..2000, any::<bool>()), 1..200),
    ) {
        let t0 = Instant::from_secs(1);
        let ra = Bandwidth::from_kbps(rate_a_kbps);
        let rb = Bandwidth::from_kbps(rate_b_kbps);
        let (a, b) = (ResId(1), ResId(2));

        let mut solo = Qdisc::new(degenerate(), t0);
        solo.install(a, TrafficClass::ColibriData, ra, t0);
        let mut duo = Qdisc::new(degenerate(), t0);
        duo.install(a, TrafficClass::ColibriData, ra, t0);
        duo.install(b, TrafficClass::ColibriData, rb, t0);

        let mut sched = pkts;
        sched.sort_unstable_by_key(|(t, ..)| *t);
        for (off_us, bytes, is_b) in sched {
            let now = t0 + Duration::from_micros(off_us);
            if is_b {
                // Tenant B's traffic exists only in the duo hierarchy.
                let _ = duo.admit(b, HOST, bytes * 8, now);
            } else {
                let v_solo = solo.admit(a, HOST, bytes, now);
                let v_duo = duo.admit(a, HOST, bytes, now);
                prop_assert_eq!(v_solo, v_duo, "tenant B load changed A's verdict");
            }
        }
    }

    /// **NoTokenCreation**: whatever the schedule, a reservation can never
    /// send more than `burst + rate × elapsed` — tokens are only minted by
    /// the refill law, never by install, renewal, or admission itself.
    #[test]
    fn no_token_creation(
        rate_kbps in 64u64..1_000_000,
        pkts in prop::collection::vec((0u64..3_000_000, 40u64..2000), 1..300),
        renew_at_us in 0u64..3_000_000,
    ) {
        let t0 = Instant::from_secs(1);
        let rate = Bandwidth::from_kbps(rate_kbps);
        let r = ResId(1);
        let mut q = Qdisc::new(degenerate(), t0);
        q.install(r, TrafficClass::ColibriData, rate, t0);

        let mut sched = pkts;
        sched.sort_unstable();
        let mut admitted = 0u64;
        let mut last_us = 0u64;
        let mut renewed = false;
        for (off_us, bytes) in sched {
            let now = t0 + Duration::from_micros(off_us);
            if !renewed && off_us >= renew_at_us {
                // A same-rate renewal mid-stream must not mint tokens.
                q.install(r, TrafficClass::ColibriData, rate, now);
                renewed = true;
            }
            if q.admit(r, HOST, bytes, now).is_ok() {
                admitted += bytes;
            }
            last_us = last_us.max(off_us);
        }
        let allowance = burst_bytes(rate, Duration::from_millis(50)) as f64
            + rate.as_bps() as f64 / 8.0 * (last_us as f64 / 1e6);
        prop_assert!(
            admitted as f64 <= allowance + 1.0,
            "admitted {admitted} > allowance {allowance}"
        );
    }

    /// **FairRefill**: two reservations with the same rate, replaying the
    /// same schedule, are granted exactly the same bytes — refill does not
    /// favor any tenant.
    #[test]
    fn fair_refill(
        rate_kbps in 64u64..100_000,
        pkts in prop::collection::vec((0u64..2_000_000, 40u64..2000), 1..200),
    ) {
        let t0 = Instant::from_secs(1);
        let rate = Bandwidth::from_kbps(rate_kbps);
        let (a, b) = (ResId(1), ResId(2));
        let mut q = Qdisc::new(degenerate(), t0);
        q.install(a, TrafficClass::ColibriData, rate, t0);
        q.install(b, TrafficClass::ColibriData, rate, t0);

        let mut sched = pkts;
        sched.sort_unstable();
        for (off_us, bytes) in sched {
            let now = t0 + Duration::from_micros(off_us);
            let va = q.admit(a, HOST, bytes, now);
            let vb = q.admit(b, HOST, bytes, now);
            prop_assert_eq!(va.is_ok(), vb.is_ok(), "equal-rate tenants diverged");
        }
    }

    /// **BurstAllowed ≤ capacity**: after arbitrarily long idling, the
    /// bytes admissible in a single instant never exceed the configured
    /// burst depth — tokens saturate at capacity instead of accumulating.
    #[test]
    fn burst_never_exceeds_capacity(
        rate_kbps in 64u64..100_000,
        idle_s in 1u64..100_000,
        pkt in 40u64..2000,
    ) {
        let t0 = Instant::from_secs(1);
        let rate = Bandwidth::from_kbps(rate_kbps);
        let r = ResId(1);
        let mut q = Qdisc::new(degenerate(), t0);
        q.install(r, TrafficClass::ColibriData, rate, t0);
        let now = t0 + Duration::from_secs(idle_s);
        let cap = burst_bytes(rate, Duration::from_millis(50));
        let mut admitted = 0u64;
        // Drain the bucket in one instant.
        while q.admit(r, HOST, pkt, now).is_ok() {
            admitted += pkt;
            prop_assert!(admitted <= cap, "admitted {admitted} > capacity {cap}");
        }
    }

    /// Unknown reservations are always refused, with the hierarchy
    /// untouched (no phantom nodes appear).
    #[test]
    fn unknown_reservation_rejected(res in 1u32..1000, bytes in 1u64..5000) {
        let t0 = Instant::from_secs(1);
        let mut q = Qdisc::new(degenerate(), t0);
        prop_assert_eq!(
            q.admit(ResId(res), HOST, bytes, t0),
            Err(AdmitError::UnknownReservation(ResId(res)))
        );
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.audit().unwrap().reservations, 0);
    }

    /// Scheduler conservation under churn: for any interleaving of
    /// installs, removals, enqueues, and service rounds, every accepted
    /// packet is accounted exactly once — served, codel-dropped, discarded
    /// at teardown, or still queued — and the structural audit stays
    /// clean with zero leaked leaves.
    #[test]
    fn churn_conserves_packets(
        ops in prop::collection::vec((0u8..6, 0u32..6, 40u64..1600), 1..400),
        uplink_mbps in 1u64..1000,
    ) {
        let t0 = Instant::from_secs(1);
        let mut cfg = HtbConfig::shaped(Bandwidth::from_mbps(uplink_mbps));
        cfg.leaf_cap_bytes = 16_000;
        let mut q = Qdisc::new(cfg, t0);
        let mut now = t0;
        for (op, id, bytes) in ops {
            now += Duration::from_micros(97);
            let res = ResId(id);
            match op {
                0 => q.install(res, TrafficClass::ColibriData, Bandwidth::from_mbps(10), now),
                1 => { q.remove(res); }
                2 => { let _ = q.enqueue(TrafficClass::ColibriData, Some(res), HOST, bytes, now); }
                3 => {
                    let _ = q.enqueue(TrafficClass::BestEffort, None, HostAddr(id), bytes, now);
                }
                4 => { let _ = q.service(now); }
                _ => { let _ = q.admit(res, HOST, bytes, now); }
            }
            let report = q.audit().expect("hierarchy must stay structurally sound");
            let s = q.stats();
            let served: u64 = s.served_pkts.iter().sum();
            prop_assert_eq!(
                s.enqueued,
                served + s.dropped_codel + s.dropped_teardown + report.queued_pkts,
                "accepted packets must be accounted exactly once"
            );
        }
        // Final teardown of everything leaves no leaves behind.
        for id in 0..6u32 {
            q.remove(ResId(id));
        }
        let report = q.audit().unwrap();
        prop_assert_eq!(report.reservations, 0);
        prop_assert_eq!(report.host_meters, 0);
        // Only best-effort leaves (never torn down) may remain.
        let s = q.stats();
        let served: u64 = s.served_pkts.iter().sum();
        prop_assert_eq!(
            s.enqueued,
            served + s.dropped_codel + s.dropped_teardown + report.queued_pkts
        );
    }

    /// Service rounds never serve more than the uplink allows and never
    /// invent packets: served ≤ enqueued, and bytes served over a window
    /// stay within capacity × time + burst.
    #[test]
    fn service_respects_uplink_budget(
        uplink_mbps in 1u64..200,
        flows in 1u32..20,
        pkts_per_flow in 1usize..40,
        rounds in 1u64..50,
    ) {
        let t0 = Instant::from_secs(1);
        let uplink = Bandwidth::from_mbps(uplink_mbps);
        let q_cfg = HtbConfig::shaped(uplink);
        let mut q = Qdisc::new(q_cfg, t0);
        let mut offered = 0u64;
        for f in 0..flows {
            for _ in 0..pkts_per_flow {
                if q.enqueue(TrafficClass::BestEffort, None, HostAddr(f), 1000, t0).is_ok() {
                    offered += 1;
                }
            }
        }
        let tick = Duration::from_millis(1);
        let mut served_bytes = 0u64;
        let mut now = t0;
        for _ in 0..rounds {
            now += tick;
            let round = q.service(now);
            served_bytes += round.total_bytes();
        }
        let elapsed_s = (rounds as f64) * 1e-3;
        let class_burst_bytes = burst_bytes(uplink, Duration::from_millis(50));
        let allowance =
            uplink.as_bps() as f64 / 8.0 * elapsed_s + class_burst_bytes as f64;
        prop_assert!(
            served_bytes as f64 <= allowance + 1.0,
            "served {served_bytes} > uplink allowance {allowance}"
        );
        let s = q.stats();
        prop_assert!(s.served_pkts.iter().sum::<u64>() <= offered);
    }
}

/// Table 2 phase 1 in miniature, scheduler facet: a reserved flow inside
/// its guarantee keeps its goodput while best-effort floods 4× the link.
#[test]
fn reserved_guarantee_protected_from_best_effort_flood() {
    let t0 = Instant::from_secs(1);
    let uplink = Bandwidth::from_mbps(100);
    let mut q = Qdisc::new(HtbConfig::shaped(uplink), t0);
    let res = ResId(7);
    // Reserved flow at 30 Mb/s — well inside the 75% data guarantee.
    q.install(res, TrafficClass::ColibriData, Bandwidth::from_mbps(30), t0);

    let tick = Duration::from_millis(1);
    let mut now = t0;
    let mut data_served = 0u64;
    for _ in 0..500 {
        now += tick;
        // Reserved: 30 Mb/s → 3750 bytes per ms tick.
        for _ in 0..3 {
            let _ = q.enqueue(TrafficClass::ColibriData, Some(res), HOST, 1250, now);
        }
        // Best-effort flood: 4× the whole uplink (50 kB per tick).
        for h in 0..10u32 {
            let _ = q.enqueue(TrafficClass::BestEffort, None, HostAddr(h), 5000, now);
        }
        let round = q.service(now);
        data_served += round.served_bytes[TrafficClass::ColibriData.index()];
    }
    // ~0.5 s × 30 Mb/s = 1_875_000 bytes entitled.
    let entitled = 3 * 1250 * 500;
    assert!(
        data_served as f64 >= 0.95 * entitled as f64,
        "reserved goodput {data_served} < 95% of entitlement {entitled}"
    );
    // And the flood itself was not starved: BE scavenges the rest.
    let be = q.stats().served_bytes[TrafficClass::BestEffort.index()];
    assert!(be > 0, "best-effort completely starved");
}

/// Scavenging: with the reserved classes idle, best-effort is granted the
/// *whole* uplink, not just its 20% floor (no bandwidth is wasted).
#[test]
fn best_effort_scavenges_idle_reserved_bandwidth() {
    let t0 = Instant::from_secs(1);
    let uplink = Bandwidth::from_mbps(80);
    let mut q = Qdisc::new(HtbConfig::shaped(uplink), t0);
    let tick = Duration::from_millis(1);
    let mut now = t0;
    let mut be_served = 0u64;
    for _ in 0..500 {
        now += tick;
        // Offer 2× the link in best-effort, nothing reserved.
        for h in 0..4u32 {
            let _ = q.enqueue(TrafficClass::BestEffort, None, HostAddr(h), 5000, now);
        }
        let round = q.service(now);
        be_served += round.served_bytes[TrafficClass::BestEffort.index()];
    }
    // 0.5 s × 80 Mb/s = 5 MB of link capacity; the BE floor alone would be
    // only 1 MB. Scavenging must push it near the full link.
    let link_bytes = 5_000_000u64;
    assert!(
        be_served as f64 >= 0.9 * link_bytes as f64,
        "best-effort served {be_served}, expected ≈{link_bytes} (scavenged link)"
    );
    let scavenged = q.stats().scavenged_bytes[TrafficClass::BestEffort.index()];
    assert!(scavenged > 0, "scavenge counter never moved");
}

/// A standing best-effort queue is codel-managed: sojourn-time head drops
/// engage, and the queue does not grow without bound while reserved
/// traffic is unaffected.
#[test]
fn codel_drains_standing_best_effort_queue() {
    let t0 = Instant::from_secs(1);
    let mut q = Qdisc::new(HtbConfig::shaped(Bandwidth::from_mbps(10)), t0);
    let tick = Duration::from_millis(1);
    let mut now = t0;
    for _ in 0..2000 {
        now += tick;
        // Offer ~4× the link in best-effort from one host.
        for _ in 0..4 {
            let _ = q.enqueue(TrafficClass::BestEffort, None, HOST, 1250, now);
        }
        let _ = q.service(now);
    }
    let s = q.stats();
    assert!(s.dropped_codel > 0, "codel never engaged on a standing queue");
    assert!(s.sojourn_ns_max > 0, "sojourn histogram never fed");
    // Everything is still conserved.
    let report = q.audit().unwrap();
    let served: u64 = s.served_pkts.iter().sum();
    assert_eq!(
        s.enqueued,
        served + s.dropped_codel + s.dropped_teardown + report.queued_pkts
    );
}
