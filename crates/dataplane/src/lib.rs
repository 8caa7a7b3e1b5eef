//! The Colibri data plane (paper §3.4, §4.6): gateway, border router, and
//! traffic isolation.
//!
//! * [`gateway`] — the stateful edge component: maps `ResId` → reservation
//!   state, monitors deterministically, stamps timestamps and per-AS hop
//!   validation fields (Eq. 6);
//! * [`router`] — the stateless border router: validates format,
//!   freshness, expiry, and the HVF recomputed from the AS secret, then
//!   forwards via packet-carried state; runs the transit monitoring
//!   pipeline;
//! * [`control`] — stamping control packets onto SegRs with their tokens;
//! * [`classes`] — the best-effort / control / data traffic split with
//!   CBWFQ scavenging (Appendix B);
//! * [`crypto_cache`] — bounded, eviction-safe caches that amortize the
//!   router's Eq. 3/4 MACs and AES key expansions across packets of the
//!   same reservation (DESIGN.md §10);
//! * [`pool`] — the multi-core deployment (§7.2): one supervised
//!   [`ShardPool`] runs either stage — [`Gateway`] or [`BorderRouter`] —
//!   on worker threads with reservation-ID steering, class-aware
//!   backpressure, panic containment and an exact job ledger
//!   (DESIGN.md §9);
//! * [`telemetry`] — opt-in bindings onto the `colibri-telemetry`
//!   registry: verdict/cache/outcome counters and batch/latency
//!   histograms, recorded as stats-struct deltas so the Invariant
//!   metrics stay bit-identical between the scalar and batched paths
//!   (DESIGN.md §11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod control;
pub mod crypto_cache;
pub mod gateway;
pub mod pool;
pub mod router;
pub mod telemetry;

// Shard-pool test suites, one per deployment the pool serves: parallel
// gateway and router pools, gateway shards addressed by reservation, and
// supervision. They share the fixtures of `pool::tests` and the
// fault-injecting `faulty::Faulty` stage.
#[cfg(test)]
#[path = "pool_tests/pools.rs"]
mod parallel;
#[cfg(test)]
#[path = "pool_tests/steering.rs"]
mod sharded;
#[cfg(test)]
#[path = "pool_tests/supervision.rs"]
mod supervisor;
#[cfg(test)]
#[path = "pool_tests/faulty.rs"]
mod faulty;

pub use classes::{CbwfqScheduler, Served, TrafficClass, TrafficSplit};
pub use control::stamp_segr_packet;
pub use crypto_cache::{ClockCache, CryptoCacheConfig, CryptoCacheStats, RouterCryptoCaches};
pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats, QosMode, StampedPacket};
pub use pool::{
    shard_index, GatewayJob, GatewayShardStats, GatewayVerdict, Merge, Outcome, Output,
    PoolSnapshot, RouterShardStats, ShardHealthReport, ShardPool, ShardSnapshot, Stage,
    SubmitError, SubmitVerdict,
};
pub use router::{BorderRouter, DropReason, RouterConfig, RouterStats, RouterVerdict};
pub use telemetry::{GatewayTelemetry, RouterTelemetry};
