//! Line rate: the batched, multi-shard data plane end to end.
//!
//! Drives the full packet lifecycle of paper Fig. 1c through shard pools:
//! a [`ShardPool`] of [`Gateway`]s stamps packets on worker-owned shards
//! (allocation-free `process_into` + interleaved multi-key CMAC), then a
//! chain of [`ShardPool`]s of [`BorderRouter`]s — one per on-path AS —
//! validates and forwards them with `process_batch` (single parse,
//! hoisted `K_i`, 4-wide HVF verification), until the last hop delivers
//! to the destination host. Every pool's rings hold [`QUEUE`] jobs, far
//! fewer than the run: `submit` drains outputs while a ring is full.
//! Prints the measured throughput of every stage.
//!
//! All numbers here come from one machine, so per-stage Mpps is the
//! single-machine rate of that stage run in isolation; in a deployment
//! each AS runs its own routers and the stages pipeline freely.
//!
//! Run with: `cargo run --release --example line_rate [packets]`

use colibri::base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri::crypto::{Epoch, SecretValueGen};
use colibri::ctrl::{master_secret_for, OwnedEer, OwnedEerVersion};
use colibri::dataplane::{
    BorderRouter, Gateway, GatewayConfig, GatewayJob, GatewayVerdict, Outcome, RouterConfig,
    RouterVerdict, ShardPool, TrafficClass,
};
use colibri::wire::mac::hop_auth;
use colibri::wire::{EerInfo, HopField, ResInfo};

const HOPS: usize = 4;
const SHARDS: usize = 2;
/// Ring capacity (jobs) of every shard.
const QUEUE: usize = 1024;
const RESERVATIONS: u32 = 256;
const SRC_HOST: HostAddr = HostAddr(0x0a00_0001);
const DST_HOST: HostAddr = HostAddr(0x1400_0002);

fn path_ases() -> Vec<IsdAsId> {
    (0..HOPS).map(|i| IsdAsId::new(1, 101 + i as u32)).collect()
}

fn path_hops() -> Vec<HopField> {
    (0..HOPS)
        .map(|i| {
            let ing = if i == 0 { 0 } else { 1 };
            let eg = if i + 1 == HOPS { 0 } else { 2 };
            HopField::new(ing, eg)
        })
        .collect()
}

/// An owned EER whose hop authenticators are derived from the real per-AS
/// secrets, so every stamped packet verifies along the chain.
fn owned_eer(res_id: u32, now: Instant) -> OwnedEer {
    let ases = path_ases();
    let hops = path_hops();
    let exp = now + Duration::from_secs(3600);
    let bw = Bandwidth::from_gbps(400);
    let eer_info = EerInfo { src_host: SRC_HOST, dst_host: DST_HOST };
    let res_info = ResInfo {
        src_as: ases[0],
        res_id: ResId(res_id),
        bw: colibri::base::BwClass::from_bandwidth_ceil(bw),
        exp_t: exp,
        ver: 0,
    };
    let epoch = Epoch::containing(now);
    let hop_auths = ases
        .iter()
        .zip(&hops)
        .map(|(as_id, hop)| {
            let k_i = SecretValueGen::new(&master_secret_for(*as_id)).secret_value(epoch).cmac();
            hop_auth(&k_i, &res_info, &eer_info, *hop)
        })
        .collect();
    OwnedEer {
        key: ReservationKey::new(ases[0], ResId(res_id)),
        eer_info,
        path_ases: ases,
        hop_fields: hops,
        versions: vec![OwnedEerVersion { ver: 0, bw, exp, hop_auths }],
    }
}

fn mpps(packets: usize, secs: f64) -> f64 {
    packets as f64 / secs / 1e6
}

fn main() {
    let packets: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let now = Instant::from_secs(10);
    let ases = path_ases();

    println!("line-rate pipeline: {HOPS} hops, {SHARDS} shards/stage, {packets} packets");

    // ── Stage 0: gateway stamping ───────────────────────────────────────
    let cfg = GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() };
    let mut gw = ShardPool::new(SHARDS, QUEUE, move |_| Gateway::new(cfg));
    let mut stamped = Vec::with_capacity(packets + RESERVATIONS as usize);
    for id in 0..RESERVATIONS {
        let install = GatewayJob::Install(Box::new(owned_eer(id, now)));
        gw.submit(install, TrafficClass::ColibriControl, now, &mut stamped);
    }
    let t0 = std::time::Instant::now();
    for i in 0..packets {
        let job = GatewayJob::Stamp {
            src_host: SRC_HOST,
            res_id: ResId(i as u32 % RESERVATIONS),
            payload: vec![0u8; 64],
            bytes: gw.buffer(),
        };
        gw.submit(job, TrafficClass::ColibriData, now, &mut stamped);
    }
    gw.flush(&mut stamped);
    let gw_secs = t0.elapsed().as_secs_f64();
    let ok = stamped
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Done(GatewayVerdict::Stamped(Ok(_)))))
        .count();
    assert_eq!(ok, packets, "every packet must stamp");
    let gw_snap = gw.shutdown(&mut stamped);
    let gw_stats = gw_snap.stats.gateway;
    println!(
        "  gateway    : {:>7.3} Mpps  (stamped {} packets, {} rate-limited)",
        mpps(packets, gw_secs),
        gw_stats.forwarded,
        gw_stats.rate_limited
    );

    // ── Stages 1..=HOPS: the border-router chain ───────────────────────
    // Each stage owns the AS's routers; the packet's curr_hop advances in
    // place, so the buffers flow from stage to stage untouched by any
    // re-serialization.
    let mut in_flight: Vec<Vec<u8>> = stamped
        .into_iter()
        .filter_map(|o| match (o.outcome, o.job) {
            (Outcome::Done(GatewayVerdict::Stamped(Ok(_))), GatewayJob::Stamp { bytes, .. }) => {
                Some(bytes)
            }
            _ => None,
        })
        .collect();
    let cfg = RouterConfig {
        freshness: Duration::from_secs(3600),
        skew: Duration::from_secs(3600),
        monitoring: false,
        ..RouterConfig::default()
    };
    let mut delivered = 0usize;
    for (hop, as_id) in ases.iter().enumerate() {
        let master = master_secret_for(*as_id);
        let as_id = *as_id;
        let mut pool =
            ShardPool::new(SHARDS, QUEUE, move |_| BorderRouter::new(as_id, &master, cfg));
        let count = in_flight.len();
        let t0 = std::time::Instant::now();
        let mut outs = Vec::with_capacity(count);
        for pkt in in_flight.drain(..) {
            pool.submit(pkt, TrafficClass::ColibriData, now, &mut outs);
        }
        pool.flush(&mut outs);
        let secs = t0.elapsed().as_secs_f64();
        let snap = pool.shutdown(&mut outs);
        let (stats, cache_stats) = (snap.stats.router, snap.stats.cache);
        let last = hop + 1 == HOPS;
        for o in outs {
            match o.outcome {
                Outcome::Done(RouterVerdict::Forward(_)) if !last => in_flight.push(o.job),
                Outcome::Done(RouterVerdict::DeliverHost(h)) if last => {
                    assert_eq!(h, DST_HOST);
                    delivered += 1;
                }
                v => panic!("unexpected verdict at hop {hop}: {v:?}"),
            }
        }
        println!(
            "  router hop{hop}: {:>7.3} Mpps  (AS {as_id}, forwarded {}, dropped {}, \
             σ-cache hit rate {:.1}%)",
            mpps(count, secs),
            stats.forwarded,
            stats.bad_hvf + stats.parse_errors + stats.stale + stats.expired,
            cache_stats.hit_rate() * 100.0
        );
    }

    println!("  delivered  : {delivered}/{packets} packets to {DST_HOST:?}");
    assert_eq!(delivered, packets);
}
