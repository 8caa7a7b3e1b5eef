//! Traffic classes and isolation (paper §3.4 "Traffic Split", Appendix B).
//!
//! Colibri shares physical links with best-effort traffic by defining
//! three classes — best-effort, Colibri control, Colibri data — and
//! scheduling them with class-based weighted fair queuing. The split
//! reserves a fixed minimum (e.g. 20%) for best-effort traffic, 5% for
//! Colibri control (protected SegR renewal and EER setup), and 75% for
//! EER data. Crucially, *no bandwidth is wasted*: an underutilized class's
//! share is scavenged by the others — in practice by best-effort traffic.
//!
//! The class level lives in `colibri-qdisc`, the second tier of the
//! gateway's policing tree: [`TrafficClass`] is re-exported from there so
//! the workspace has exactly one definition, the split is
//! [`colibri_qdisc::ClassShares`], and scavenging happens in
//! [`colibri_qdisc::Qdisc::service`]. The tests below pin the Appendix B
//! split on that scheduler. Colibri data never exceeds its admitted
//! reservations (the CServ guarantees ΣEERs ≤ capacity share), so strict
//! prioritization of Colibri classes cannot starve best-effort below its
//! floor.

pub use colibri_qdisc::TrafficClass;

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{Bandwidth, Duration, HostAddr, Instant, ResId};
    use colibri_qdisc::{ClassShares, HtbConfig, Qdisc};

    /// Serves one interval of a link with byte budget `budget` (a full
    /// one-second uplink bucket) over `offered` bytes per class, in
    /// [`TrafficClass::index`] order, queued as 1000-byte packets. Returns
    /// the bytes served per class.
    fn one_interval(budget: u64, offered: [u64; 3]) -> [u64; 3] {
        const PKT: u64 = 1000;
        let t0 = Instant::from_secs(1);
        let second = Duration::from_secs(1);
        let cfg = HtbConfig {
            class_burst: second,
            res_burst: second,
            ..HtbConfig::shaped(Bandwidth(budget * 8))
        };
        let mut q = Qdisc::new(cfg, t0);
        let data_rate = Bandwidth(offered[TrafficClass::ColibriData.index()] * 8);
        q.install(ResId(1), TrafficClass::ColibriData, data_rate, t0);
        for class in TrafficClass::ALL {
            let res = (class == TrafficClass::ColibriData).then_some(ResId(1));
            for k in 0..offered[class.index()] / PKT {
                // A fresh host every 1000 packets keeps leaves under their cap.
                let host = HostAddr((k / 1000) as u32);
                q.enqueue(class, res, host, PKT, t0).expect("offered load fits the leaves");
            }
        }
        q.service(t0).served_bytes
    }

    const CONTROL: usize = 0;
    const DATA: usize = 1;
    const BEST_EFFORT: usize = 2;

    #[test]
    fn split_validation() {
        assert!(ClassShares::default().is_valid());
        assert!(!ClassShares { control: 500, data: 500, best_effort: 500 }.is_valid());
    }

    #[test]
    fn split_rejects_non_finite_and_negative_shares() {
        // Integer permille shares cannot be NaN, infinite or negative. The
        // remaining cancellation hazard is wrap-around: these shares sum
        // to 1000 in wrapping u32 arithmetic and must still be rejected.
        let wrapped = ClassShares { control: u32::MAX, data: 1001, best_effort: 0 };
        assert!(!wrapped.is_valid(), "wrapping share sum must be rejected");
    }

    #[test]
    fn guaranteed_shares() {
        let s = ClassShares::default();
        let cap = Bandwidth::from_gbps(40);
        assert_eq!(s.guaranteed(TrafficClass::BestEffort, cap), Bandwidth::from_gbps(8));
        assert_eq!(s.guaranteed(TrafficClass::ColibriControl, cap), Bandwidth::from_gbps(2));
        assert_eq!(s.guaranteed(TrafficClass::ColibriData, cap), Bandwidth::from_gbps(30));
    }

    #[test]
    fn underload_serves_everything() {
        let served = one_interval(1_000_000, [10_000, 500_000, 200_000]);
        assert_eq!(served, [10_000, 500_000, 200_000]);
    }

    #[test]
    fn best_effort_scavenges_unused_colibri() {
        // No Colibri traffic at all: best-effort gets the whole link
        // ("no bandwidth is wasted", §3.4).
        let served = one_interval(1_000_000, [0, 0, 5_000_000]);
        assert_eq!(served[BEST_EFFORT], 1_000_000);
    }

    #[test]
    fn reserved_data_protected_from_best_effort_flood() {
        // Table 2 phase 1 in miniature: reserved data within its share is
        // untouched by an overwhelming best-effort load.
        let served = one_interval(1_000_000, [0, 30_000, 5_000_000]);
        assert_eq!(served[DATA], 30_000);
        assert_eq!(served[BEST_EFFORT], 970_000);
    }

    #[test]
    fn data_class_capped_at_its_share_plus_leftover() {
        // Colibri data exceeding its 75% share can scavenge the unused
        // control share, but best-effort keeps its floor if it offers load.
        let served = one_interval(1_000_000, [0, 900_000, 900_000]);
        // data: 750k guaranteed + 50k scavenged from control = 800k.
        assert_eq!(served[DATA], 800_000);
        assert_eq!(served[BEST_EFFORT], 200_000);
        assert_eq!(served.iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn control_has_top_scavenging_priority() {
        let served = one_interval(1_000_000, [100_000, 950_000, 0]);
        // control: 50k guaranteed + takes 50k of leftover before data.
        assert_eq!(served[CONTROL], 100_000);
        assert_eq!(served[DATA], 900_000);
    }

    #[test]
    fn never_exceeds_budget() {
        let served = one_interval(123_456, [2_000_000; 3]);
        assert!(served.iter().sum::<u64>() <= 123_456);
    }
}
