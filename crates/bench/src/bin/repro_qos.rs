//! Reproduces the gateway QoS isolation claims (DESIGN.md §16, the
//! Table 2 phase-1 mechanism at the traffic-class level): with the
//! hierarchical qdisc shaping a gateway uplink, reserved Colibri-data
//! flows keep ≥95% of their entitlement while thousands of best-effort
//! subscriber flows per shard offer 4× the link — with *zero* reserved
//! drops — and when the reserved classes go idle, best-effort scavenges
//! the whole link instead of being pinned to its 20% floor.
//!
//! Emits machine-readable JSON (default `BENCH_qos.json`) so CI can gate
//! on regressions.
//!
//! Flags:
//! * `--quick` — smaller fleet and shorter drive (the CI smoke
//!   configuration);
//! * `--gate` — exit non-zero if any claim fails:
//!   - reserved goodput ≥ 95% of entitlement under the 4× flood,
//!   - zero reserved drops (no conformance, overflow, or teardown loss),
//!   - best-effort scavenges ≥ 90% of an otherwise-idle link,
//!   - the degenerate hierarchy agrees with the flat gateway *exactly*
//!     on a seeded schedule (release-mode differential spot check),
//!   - the sharded pool snapshot merge equals the per-shard sum;
//! * `--out <path>` — where to write the JSON (default `BENCH_qos.json`
//!   in the current directory).
//!
//! Run with `cargo run --release -p colibri-bench --bin repro_qos`.

use colibri::base::{Bandwidth, Duration, HostAddr, Instant, ResId};
use colibri::dataplane::{
    Gateway, GatewayConfig, GatewayShardStats, Merge, QosMode, Stage, TrafficClass,
};
use colibri::qdisc::{HtbConfig, QdiscStats};
use colibri_bench::{synthetic_owned_eer, Xor64};

/// Packet size used throughout (payload + header on the process path).
const PKT: u64 = 1250;
/// Virtual tick driving enqueue/service rounds.
const TICK: Duration = Duration::from_millis(1);

struct Scenario {
    shards: usize,
    /// Reserved (Colibri-data) flows per shard.
    reservations: usize,
    /// Best-effort subscriber flows per shard.
    hosts: u32,
    uplink: Bandwidth,
    /// Per-reservation rate; the per-shard sum stays inside the 75% data
    /// guarantee so entitlement is unambiguous.
    res_rate: Bandwidth,
    ticks: u64,
}

impl Scenario {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                shards: 2,
                reservations: 32,
                hosts: 1200,
                uplink: Bandwidth::from_gbps(1),
                res_rate: Bandwidth::from_mbps(20),
                ticks: 300,
            }
        } else {
            Self {
                shards: 4,
                reservations: 64,
                hosts: 4000,
                uplink: Bandwidth::from_gbps(1),
                res_rate: Bandwidth::from_mbps(10),
                ticks: 1500,
            }
        }
    }

    fn htb(&self) -> HtbConfig {
        HtbConfig::shaped(self.uplink)
    }
}

struct IsolationResult {
    offered_reserved_bytes: u64,
    served_reserved_bytes: u64,
    ratio: f64,
    reserved_enqueue_failures: u64,
    dropped_conform: u64,
    dropped_teardown: u64,
    be_served_bytes: u64,
    be_codel_drops: u64,
    be_overflow_drops: u64,
    enqueues: u64,
    drive_ns: u128,
    merge_ok: bool,
}

/// Phase 1: every shard's reserved flows send exactly at their rate while
/// the subscriber population floods best-effort at 4× the uplink.
fn isolation_run(sc: &Scenario) -> IsolationResult {
    let t0 = Instant::from_secs(1);
    // Share-nothing shards, each with a private hierarchy.
    let cfg =
        GatewayConfig { burst: Duration::from_millis(50), qos: QosMode::Hierarchical(sc.htb()) };
    let mut shards: Vec<Gateway> = (0..sc.shards).map(|_| Gateway::new(cfg)).collect();
    for gw in &mut shards {
        let q = gw.qdisc_mut().expect("hierarchical shard");
        for r in 0..sc.reservations {
            q.install(ResId(r as u32), TrafficClass::ColibriData, sc.res_rate, t0);
        }
    }

    // Per-tick loads. Reserved: each flow sends its rate exactly (the
    // packets are conformant by construction, so any loss is a QoS bug).
    let res_bytes_per_tick =
        sc.res_rate.as_bps() * TICK.as_nanos() / 8 / 1_000_000_000;
    let res_pkts_per_tick = (res_bytes_per_tick / PKT).max(1);
    // Best-effort: 4× the uplink, spread round-robin over the subscribers.
    let uplink_bytes_per_tick = sc.uplink.as_bps() * TICK.as_nanos() / 8 / 1_000_000_000;
    let be_pkts_per_tick = 4 * uplink_bytes_per_tick / PKT;

    let mut offered_reserved_bytes = 0u64;
    let mut reserved_enqueue_failures = 0u64;
    let mut enqueues = 0u64;
    let wall = std::time::Instant::now();
    let mut now = t0;
    for tick in 0..sc.ticks {
        now += TICK;
        for gw in &mut shards {
            let q = gw.qdisc_mut().expect("hierarchical shard");
            for r in 0..sc.reservations {
                for _ in 0..res_pkts_per_tick {
                    offered_reserved_bytes += PKT;
                    enqueues += 1;
                    if q.enqueue(
                        TrafficClass::ColibriData,
                        Some(ResId(r as u32)),
                        HostAddr(r as u32),
                        PKT,
                        now,
                    )
                    .is_err()
                    {
                        reserved_enqueue_failures += 1;
                    }
                }
            }
            let start = (tick * be_pkts_per_tick) % sc.hosts as u64;
            for k in 0..be_pkts_per_tick {
                let host = HostAddr(((start + k) % sc.hosts as u64) as u32);
                enqueues += 1;
                let _ = q.enqueue(TrafficClass::BestEffort, None, host, PKT, now);
            }
            q.service(now);
        }
    }
    let drive_ns = wall.elapsed().as_nanos();

    // The pool snapshot path: the merge a `ShardPool<Gateway>` snapshot
    // performs over its shards must equal the manual per-shard sum.
    let mut pooled = GatewayShardStats::default();
    for gw in &shards {
        pooled.merge(&Stage::stats(gw));
    }
    let merged = pooled.qos.expect("hierarchical bank has qos stats");
    let mut manual = QdiscStats::default();
    for gw in &shards {
        manual.merge(&gw.qos_stats().expect("shard stats"));
    }
    let merge_ok = merged == manual;

    let data = TrafficClass::ColibriData.index();
    let be = TrafficClass::BestEffort.index();
    let served_reserved_bytes = merged.served_bytes[data];
    IsolationResult {
        offered_reserved_bytes,
        served_reserved_bytes,
        ratio: served_reserved_bytes as f64 / offered_reserved_bytes.max(1) as f64,
        reserved_enqueue_failures,
        dropped_conform: merged.dropped_conform,
        dropped_teardown: merged.dropped_teardown,
        be_served_bytes: merged.served_bytes[be],
        be_codel_drops: merged.dropped_codel,
        be_overflow_drops: merged.dropped_overflow,
        enqueues,
        drive_ns,
        merge_ok,
    }
}

struct ScavengeResult {
    link_bytes: u64,
    be_served_bytes: u64,
    fraction: f64,
    scavenged_bytes: u64,
}

/// Phase 2: reserved classes installed but *idle* — best-effort must be
/// granted the whole link, not just its 20% floor.
fn scavenge_run(sc: &Scenario) -> ScavengeResult {
    let t0 = Instant::from_secs(1);
    let mut gw = Gateway::new(GatewayConfig {
        burst: Duration::from_millis(50),
        qos: QosMode::Hierarchical(sc.htb()),
    });
    let q = gw.qdisc_mut().expect("hierarchical gateway");
    for r in 0..sc.reservations {
        q.install(ResId(r as u32), TrafficClass::ColibriData, sc.res_rate, t0);
    }
    let uplink_bytes_per_tick = sc.uplink.as_bps() * TICK.as_nanos() / 8 / 1_000_000_000;
    let be_pkts_per_tick = 2 * uplink_bytes_per_tick / PKT;
    let mut now = t0;
    for tick in 0..sc.ticks {
        now += TICK;
        let start = (tick * be_pkts_per_tick) % sc.hosts as u64;
        for k in 0..be_pkts_per_tick {
            let host = HostAddr(((start + k) % sc.hosts as u64) as u32);
            let _ = q.enqueue(TrafficClass::BestEffort, None, host, PKT, now);
        }
        q.service(now);
    }
    let stats = q.stats();
    let be = TrafficClass::BestEffort.index();
    let link_bytes = uplink_bytes_per_tick * sc.ticks;
    ScavengeResult {
        link_bytes,
        be_served_bytes: stats.served_bytes[be],
        fraction: stats.served_bytes[be] as f64 / link_bytes.max(1) as f64,
        scavenged_bytes: stats.scavenged_bytes[be],
    }
}

/// Release-mode differential spot check: a seeded schedule through a flat
/// and a degenerate-hierarchy gateway must agree on every packet and on
/// the final counters (debug builds prove this under proptest; this is
/// the only release-side guard).
fn differential_spot_check() -> bool {
    let burst = Duration::from_millis(5);
    let t0 = Instant::from_secs(1);
    let exp = Instant::from_secs(100);
    let mut flat = Gateway::new(GatewayConfig { burst, qos: QosMode::Flat });
    let mut hier = Gateway::new(GatewayConfig {
        burst,
        qos: QosMode::Hierarchical(HtbConfig::degenerate(burst)),
    });
    for r in 0..4u32 {
        let eer = synthetic_owned_eer(r, 3, Bandwidth::from_mbps(5 * (r as u64 + 1)), exp);
        flat.install(&eer, t0);
        hier.install(&eer, t0);
    }
    let src = colibri::base::HostAddr(0xBEEF);
    let mut rng = Xor64::new(0xC0DE1);
    let payload = [0u8; 1400];
    for step in 0..200_000u64 {
        let now = t0 + Duration::from_micros(rng.next() % 2_000_000);
        let res = ResId((rng.next() % 5) as u32); // 4 may be unknown
        let len = (rng.next() % 1400) as usize;
        let vf = flat.process(src, res, &payload[..len], now);
        let vh = hier.process(src, res, &payload[..len], now);
        if vf != vh {
            eprintln!("DIFFERENTIAL MISMATCH at step {step}: flat={vf:?} hier={vh:?}");
            return false;
        }
    }
    if flat.stats != hier.stats {
        eprintln!("DIFFERENTIAL MISMATCH: stats flat={:?} hier={:?}", flat.stats, hier.stats);
        return false;
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_qos.json".to_string());

    let sc = Scenario::new(quick);
    println!(
        "# gateway QoS isolation ({} mode): {} shards x {} reservations + {} subscriber flows, \
         4x best-effort overload over {} ticks",
        if quick { "quick" } else { "full" },
        sc.shards,
        sc.reservations,
        sc.hosts,
        sc.ticks
    );

    let iso = isolation_run(&sc);
    let ns_per_pkt = iso.drive_ns as f64 / iso.enqueues.max(1) as f64;
    println!(
        "reserved goodput: {}/{} bytes ({:.4} of entitlement), {} enqueue failures",
        iso.served_reserved_bytes, iso.offered_reserved_bytes, iso.ratio,
        iso.reserved_enqueue_failures
    );
    println!(
        "best-effort under flood: {} bytes served, {} codel drops, {} overflow drops",
        iso.be_served_bytes, iso.be_codel_drops, iso.be_overflow_drops
    );
    println!("drive cost: {ns_per_pkt:.0} ns/pkt over {} enqueues", iso.enqueues);

    let scav = scavenge_run(&sc);
    println!(
        "scavenge (reserved idle): {}/{} link bytes to best-effort ({:.4}), {} via scavenge phase",
        scav.be_served_bytes, scav.link_bytes, scav.fraction, scav.scavenged_bytes
    );

    let differential_ok = differential_spot_check();
    println!(
        "flat vs degenerate hierarchy: {}",
        if differential_ok { "exact agreement" } else { "MISMATCH" }
    );

    // ---- JSON ----
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"config\": {{\"shards\": {}, \"reservations_per_shard\": {}, \
         \"hosts_per_shard\": {}, \"uplink_bps\": {}, \"res_rate_bps\": {}, \"ticks\": {}}},\n  \
         \"isolation\": {{\"offered_reserved_bytes\": {}, \"served_reserved_bytes\": {}, \
         \"ratio\": {:.6}, \"reserved_enqueue_failures\": {}, \"dropped_conform\": {}, \
         \"dropped_teardown\": {}, \"be_served_bytes\": {}, \"be_codel_drops\": {}, \
         \"be_overflow_drops\": {}, \"ns_per_pkt\": {:.1}}},\n  \
         \"scavenge\": {{\"link_bytes\": {}, \"be_served_bytes\": {}, \"fraction\": {:.6}, \
         \"scavenged_bytes\": {}}},\n  \"differential_ok\": {},\n  \"merge_ok\": {}\n}}\n",
        sc.shards,
        sc.reservations,
        sc.hosts,
        sc.uplink.as_bps(),
        sc.res_rate.as_bps(),
        sc.ticks,
        iso.offered_reserved_bytes,
        iso.served_reserved_bytes,
        iso.ratio,
        iso.reserved_enqueue_failures,
        iso.dropped_conform,
        iso.dropped_teardown,
        iso.be_served_bytes,
        iso.be_codel_drops,
        iso.be_overflow_drops,
        ns_per_pkt,
        scav.link_bytes,
        scav.be_served_bytes,
        scav.fraction,
        scav.scavenged_bytes,
        differential_ok,
        iso.merge_ok,
    );
    std::fs::write(&out_path, &json).expect("write JSON");
    println!("\nwrote {out_path}");

    if gate {
        let mut ok = true;
        if iso.ratio < 0.95 {
            eprintln!(
                "GATE FAIL: reserved goodput ratio {:.4} < 0.95 under 4x best-effort overload",
                iso.ratio
            );
            ok = false;
        }
        let reserved_drops =
            iso.reserved_enqueue_failures + iso.dropped_conform + iso.dropped_teardown;
        if reserved_drops != 0 {
            eprintln!(
                "GATE FAIL: {reserved_drops} reserved drops ({} enqueue failures, {} conform, \
                 {} teardown) — reserved traffic must be lossless at its rate",
                iso.reserved_enqueue_failures, iso.dropped_conform, iso.dropped_teardown
            );
            ok = false;
        }
        if scav.fraction < 0.9 {
            eprintln!(
                "GATE FAIL: best-effort scavenged only {:.4} of an idle link (floor is 0.2, \
                 scavenging should reach ~1.0)",
                scav.fraction
            );
            ok = false;
        }
        if scav.scavenged_bytes == 0 {
            eprintln!("GATE FAIL: scavenge counter never moved");
            ok = false;
        }
        if !differential_ok {
            eprintln!("GATE FAIL: degenerate hierarchy diverged from the flat gateway");
            ok = false;
        }
        if !iso.merge_ok {
            eprintln!("GATE FAIL: sharded qos snapshot merge != per-shard sum");
            ok = false;
        }
        if iso.be_codel_drops == 0 {
            eprintln!("GATE FAIL: codel never engaged under a 4x standing overload");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("all qos gates passed");
    }
}
