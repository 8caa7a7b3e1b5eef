//! Hierarchical per-tenant QoS for the Colibri gateway (DESIGN.md §16).
//!
//! The gateway is the one stateful box of the data plane (paper §3.2,
//! §4.6): every end-host packet crosses it, and the paper's deterministic
//! monitoring is a *flat* per-reservation token bucket. This crate deepens
//! that into a LibreQoS-style **hierarchy token bucket** spanning four
//! levels:
//!
//! ```text
//!   uplink (link capacity)
//!   └─ traffic class        (Colibri control / Colibri data / best-effort)
//!      └─ reservation       (one node per installed EER / tenant)
//!         └─ host / flow    (leaf queues, DRR-fair, codel AQM on BE)
//! ```
//!
//! Two facets share the tree:
//!
//! * **Conformance** ([`Qdisc::admit`]) — the gateway's only per-packet
//!   policing verdict. The reservation-level bucket *is* the paper's
//!   monitoring function (§4.8); optional per-host caps subdivide a
//!   reservation between its hosts. With the hierarchy degenerate (no
//!   uplink cap, no host caps) the verdict sequence is **bit-identical**
//!   to one [`colibri_monitor::TokenBucket`] per reservation — the nodes
//!   *are* that type, and differential proptests check the gateway
//!   against such a test-side oracle.
//! * **Scheduling** ([`Qdisc::enqueue`] / [`Qdisc::service`]) — a
//!   deterministic virtual-clock uplink scheduler: strict priority across
//!   classes (control → data → best-effort), deficit-round-robin across
//!   sibling leaves, **scavenging** of unused reserved bandwidth into the
//!   best-effort class (no bandwidth is wasted, paper §3.4/Appendix B),
//!   and a codel-style AQM (sojourn-time target/interval, head drop,
//!   deterministic control law, no ECN) on best-effort leaf queues.
//!
//! Everything runs on the workspace's deterministic time model
//! ([`colibri_base::Instant`]): no wall clock, no floating point on the
//! per-packet path, bit-replayable under the fairness property suite
//! (tenant isolation, no token creation, fair refill, burst ≤ capacity —
//! the `RateLimiterFairness` invariants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codel;
pub mod htb;
pub mod sched;
pub mod telemetry;

pub use codel::{Codel, CodelConfig};
pub use htb::{
    AdmitError, AuditReport, ClassShares, HtbConfig, Qdisc, QdiscStats, ServiceRound,
};
pub use sched::{EnqueueError, LeafId};
pub use telemetry::QdiscTelemetry;

/// The three traffic classes of Appendix B, in strict priority order.
///
/// This is the class level of the hierarchy; `colibri-dataplane`
/// re-exports it so the rest of the workspace keeps one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Colibri control traffic (SegReqs/EEReqs over reservations): highest
    /// priority, tiny volume.
    ColibriControl,
    /// Colibri EER data traffic: admitted, authenticated, monitored.
    ColibriData,
    /// Everything else; scavenges unused Colibri bandwidth.
    BestEffort,
}

impl TrafficClass {
    /// All classes in strict scheduling/scavenging priority order.
    pub const ALL: [TrafficClass; 3] =
        [TrafficClass::ColibriControl, TrafficClass::ColibriData, TrafficClass::BestEffort];

    /// Dense index (0 = control, 1 = data, 2 = best-effort), matching the
    /// order of [`TrafficClass::ALL`] and every `[u64; 3]` stats array in
    /// this crate.
    pub const fn index(self) -> usize {
        match self {
            TrafficClass::ColibriControl => 0,
            TrafficClass::ColibriData => 1,
            TrafficClass::BestEffort => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_and_index_agree() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
