//! Supervision: ledger, heartbeats, contained panics, kill and respawn.

mod tests {
    use crate::faulty::MARKER;
    use crate::pool::tests::{auth_gateway, faulty_router, is_forward, router_pool, send};
    use crate::{ShardPool, SubmitError, SubmitVerdict, TrafficClass};
    use colibri_base::{HostAddr, Instant, ResId};
    use colibri_telemetry::Registry;

    #[test]
    fn processes_and_accounts_like_unsupervised_pool() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = router_pool(2, 16);
        for _ in 0..10 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"data", now).unwrap();
            assert!(p.try_submit(pkt.bytes, now).is_ok());
        }
        p.try_submit(vec![0xFF; 10], now).unwrap();
        let mut outs = Vec::new();
        while outs.len() < 11 {
            p.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        assert_eq!(outs.iter().filter(|o| is_forward(o)).count(), 10);
        let mut rest = Vec::new();
        let snap = p.shutdown(&mut rest);
        assert!(rest.is_empty());
        assert_eq!(snap.stats.router.forwarded, 10);
        assert_eq!(snap.stats.router.parse_errors, 1);
        assert_eq!(snap.submitted, 11);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.panics, 0);
    }

    #[test]
    fn injected_panic_is_contained_and_accounted() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = ShardPool::new(1, 64, |_| faulty_router());
        // First half, then the marker, then second half — all one shard.
        for _ in 0..8 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"pre", now).unwrap();
            p.try_submit(pkt.bytes, now).unwrap();
        }
        p.try_submit(MARKER.to_vec(), now).unwrap();
        for _ in 0..8 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"post", now).unwrap();
            p.try_submit(pkt.bytes, now).unwrap();
        }
        let mut outs = Vec::new();
        while outs.len() < 17 {
            p.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        let health = p.health();
        assert_eq!(health[0].panics, 1);
        assert!(health[0].alive, "worker must survive its panic");
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert_eq!(snap.panics, 1);
        // Discards (the marker and any packets that shared its batch)
        // plus verdicts cover all 17 jobs.
        assert_eq!(snap.stats.router.processed() + snap.panic_discarded, 17);
        assert_eq!(snap.respawns, 0, "contained panic needs no thread respawn");
    }

    #[test]
    fn kill_and_respawn_preserves_accounting() {
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut p = router_pool(1, 64);
        let mut outs = Vec::new();
        for _ in 0..20 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"one", now).unwrap();
            p.try_submit(pkt.bytes, now).unwrap();
        }
        p.kill_shard(0, &mut outs);
        assert!(!p.health()[0].alive);
        // Submitting after the kill transparently respawns the shard.
        for _ in 0..20 {
            let mut pkt = gw.process(HostAddr(7), ResId(1), b"two", now).unwrap().bytes;
            while let Err(SubmitError::WouldBlock(back)) = p.try_submit(pkt, now) {
                p.try_drain(&mut outs, usize::MAX);
                pkt = back;
            }
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced(), "{snap:?}");
        assert!(snap.respawns >= 1);
        // Nothing vanished: every submitted packet is a verdict, a panic
        // discard, or counted against the kill.
        assert_eq!(
            snap.submitted,
            snap.stats.router.processed() + snap.panic_discarded + snap.lost_to_kill
        );
    }

    #[test]
    fn heartbeats_advance_under_load() {
        let now = Instant::from_secs(50);
        let mut p = router_pool(2, 16);
        let before: Vec<u64> = p.health().iter().map(|h| h.heartbeat).collect();
        let mut outs = Vec::new();
        for _ in 0..64 {
            // Some may shed; heartbeats only need the rest to drain.
            p.submit(vec![1u8; 16], TrafficClass::BestEffort, now, &mut outs);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            p.try_drain(&mut outs, usize::MAX);
            let after = p.health();
            if after.iter().zip(&before).any(|(a, b)| a.heartbeat > *b) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "heartbeats never advanced");
            std::thread::yield_now();
        }
        let snap = p.shutdown(&mut outs);
        assert!(snap.balanced());
    }

    #[test]
    fn telemetry_absorbs_shed_and_panic_counters() {
        let now = Instant::from_secs(50);
        let reg = Registry::new();
        let mut p = ShardPool::with_telemetry(1, 2, &reg, |_| faulty_router());
        let mut outs = Vec::new();
        // Overfill to force sheds (worker is slow to start; capacity 2).
        let mut shed = 0u64;
        for _ in 0..256 {
            if p.submit(vec![0u8; 8], TrafficClass::BestEffort, now, &mut outs)
                == SubmitVerdict::Shed
            {
                shed += 1;
            }
        }
        send(&mut p, MARKER.to_vec(), now, &mut outs);
        let snap = p.shutdown(&mut outs);
        let scrape = reg.snapshot();
        assert_eq!(scrape.total("colibri_dataplane_shed_best_effort_total"), shed);
        assert_eq!(scrape.total("colibri_dataplane_shed_best_effort_total"), snap.shed_best_effort);
        assert_eq!(scrape.total("colibri_dataplane_shed_reserved_total"), 0);
        assert_eq!(scrape.total("colibri_dataplane_shard_panics_total"), snap.panics);
        assert_eq!(scrape.total("colibri_dataplane_panic_discarded_total"), snap.panic_discarded);
        assert_eq!(snap.panics, 1);
        assert!(snap.balanced(), "{snap:?}");
    }
}
