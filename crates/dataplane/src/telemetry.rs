//! Telemetry bindings for the data-plane components (DESIGN.md §11).
//!
//! Instrumentation is **detached by default**: a freshly constructed
//! [`crate::BorderRouter`] / [`crate::Gateway`] carries `None` and pays a
//! single predictable branch per packet. `attach_telemetry` registers the
//! component's metrics under an explicit shard label in a caller-owned
//! [`Registry`] — per-instance registries keep tests isolated, and the
//! shard pools ([`crate::pool`]) register one shard per worker so
//! scrapes show both the per-shard split and the cross-shard merge.
//!
//! The router records its verdict and cache counters as **deltas of the
//! existing stats structs** at the end of `process`/`process_batch`
//! rather than touching atomics per packet: the structs are already
//! proven identical between the scalar and batched paths by the
//! differential proptests, so the exported Invariant metrics inherit
//! that equality for free, and the hot-path cost collapses to a handful
//! of relaxed `fetch_add`s per *batch* (the ≤2 % throughput gate in
//! `repro_pipeline`).

use crate::crypto_cache::CryptoCacheStats;
use crate::router::RouterStats;
use colibri_telemetry::{Counter, Histogram, Registry, Stability};

/// Telemetry handles for one [`crate::BorderRouter`] instance.
#[derive(Debug)]
pub struct RouterTelemetry {
    forwarded: Counter,
    parse_errors: Counter,
    expired: Counter,
    stale: Counter,
    bad_hvf: Counter,
    blocked: Counter,
    duplicates: Counter,
    shaped: Counter,
    segr_hits: Counter,
    segr_misses: Counter,
    sigma_hits: Counter,
    sigma_misses: Counter,
    segr_evictions: Counter,
    sigma_evictions: Counter,
    epoch_flushes: Counter,
    batch_size: Histogram,
    batch_ns: Histogram,
    last_stats: RouterStats,
    last_cache: CryptoCacheStats,
}

impl RouterTelemetry {
    /// Registers the router metrics under `shard` in `registry`.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        let inv = Stability::Invariant;
        let dep = Stability::PathDependent;
        Self {
            forwarded: s.counter(
                "colibri_router_forwarded_total",
                inv,
                "packets forwarded or delivered by the border router",
            ),
            parse_errors: s.counter(
                "colibri_router_drop_parse_total",
                inv,
                "drops: malformed packet",
            ),
            expired: s.counter(
                "colibri_router_drop_expired_total",
                inv,
                "drops: reservation expired",
            ),
            stale: s.counter(
                "colibri_router_drop_stale_total",
                inv,
                "drops: timestamp outside the freshness window",
            ),
            bad_hvf: s.counter(
                "colibri_router_drop_bad_hvf_total",
                inv,
                "drops: hop validation field failed to verify",
            ),
            blocked: s.counter(
                "colibri_router_drop_blocked_total",
                inv,
                "drops: source AS blocklisted",
            ),
            duplicates: s.counter(
                "colibri_router_drop_duplicate_total",
                inv,
                "drops: replayed packet",
            ),
            shaped: s.counter(
                "colibri_router_drop_shaped_total",
                inv,
                "drops: deterministically shaped flow over its rate",
            ),
            segr_hits: s.counter(
                "colibri_router_cache_segr_hits_total",
                dep,
                "SegR token cache hits (zero-AES validation)",
            ),
            segr_misses: s.counter(
                "colibri_router_cache_segr_misses_total",
                dep,
                "SegR token cache misses",
            ),
            sigma_hits: s.counter(
                "colibri_router_cache_sigma_hits_total",
                dep,
                "sigma cache hits (single-block EER validation)",
            ),
            sigma_misses: s.counter(
                "colibri_router_cache_sigma_misses_total",
                dep,
                "sigma cache misses",
            ),
            segr_evictions: s.counter(
                "colibri_router_cache_segr_evictions_total",
                dep,
                "SegR cache CLOCK evictions",
            ),
            sigma_evictions: s.counter(
                "colibri_router_cache_sigma_evictions_total",
                dep,
                "sigma cache CLOCK evictions",
            ),
            epoch_flushes: s.counter(
                "colibri_router_cache_epoch_flushes_total",
                dep,
                "whole-cache flushes on DRKey epoch rollover",
            ),
            batch_size: s.histogram(
                "colibri_router_batch_size",
                dep,
                "packets per process_batch call",
            ),
            batch_ns: s.histogram(
                "colibri_router_batch_ns",
                Stability::Volatile,
                "wall-clock nanoseconds per process_batch call",
            ),
            last_stats: RouterStats::default(),
            last_cache: CryptoCacheStats::default(),
        }
    }

    /// Pushes the delta between the router's current stats structs and
    /// the last recorded baseline onto the registry cells.
    pub(crate) fn record(&mut self, stats: &RouterStats, cache: &CryptoCacheStats) {
        let d = stats.delta_since(&self.last_stats);
        self.forwarded.add(d.forwarded);
        self.parse_errors.add(d.parse_errors);
        self.expired.add(d.expired);
        self.stale.add(d.stale);
        self.bad_hvf.add(d.bad_hvf);
        self.blocked.add(d.blocked);
        self.duplicates.add(d.duplicates);
        self.shaped.add(d.shaped);
        self.last_stats = *stats;

        let c = cache.delta_since(&self.last_cache);
        self.segr_hits.add(c.segr_hits);
        self.segr_misses.add(c.segr_misses);
        self.sigma_hits.add(c.sigma_hits);
        self.sigma_misses.add(c.sigma_misses);
        self.segr_evictions.add(c.segr_evictions);
        self.sigma_evictions.add(c.sigma_evictions);
        self.epoch_flushes.add(c.epoch_flushes);
        self.last_cache = *cache;
    }

    #[inline]
    pub(crate) fn observe_batch(&self, len: usize, wall_ns: u64) {
        self.batch_size.observe(len as u64);
        self.batch_ns.observe(wall_ns);
    }
}

/// Telemetry handles for one [`crate::Gateway`] instance.
#[derive(Debug)]
pub struct GatewayTelemetry {
    pub(crate) forwarded: Counter,
    pub(crate) rate_limited: Counter,
    pub(crate) rejected: Counter,
    pub(crate) stamp_ns: Histogram,
}

impl GatewayTelemetry {
    /// Registers the gateway metrics under `shard` in `registry`.
    pub fn new(registry: &Registry, shard: &str) -> Self {
        let s = registry.shard(shard);
        Self {
            forwarded: s.counter(
                "colibri_gateway_forwarded_total",
                Stability::Invariant,
                "packets stamped and forwarded by the gateway",
            ),
            rate_limited: s.counter(
                "colibri_gateway_rate_limited_total",
                Stability::Invariant,
                "packets dropped by deterministic token-bucket monitoring",
            ),
            rejected: s.counter(
                "colibri_gateway_rejected_total",
                Stability::Invariant,
                "packets rejected (unknown/expired reservation, wrong host)",
            ),
            stamp_ns: s.histogram(
                "colibri_gateway_stamp_ns",
                Stability::Volatile,
                "wall-clock nanoseconds to stamp one packet",
            ),
        }
    }
}
