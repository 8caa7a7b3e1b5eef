//! Parallel gateway and router pools: stamping, validation, telemetry.

mod tests {
    use crate::pool::tests::{
        auth_gateway, gateway, install, is_forward, is_stamped, router, send, stamp,
    };
    use crate::{GatewayJob, GatewayVerdict, Outcome, ShardPool};
    use colibri_base::{Duration, HostAddr, Instant, ResId};
    use colibri_ring::ring;
    use colibri_telemetry::Registry;

    #[test]
    fn ring_backpressure_and_close() {
        // The ring's own crate proves the protocol; this is the
        // integration-level smoke test of the contract the pool relies
        // on (blocking send, batch recv, close semantics).
        let (mut tx, mut rx) = ring::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks: full
            tx
        });
        std::thread::yield_now();
        let mut got = Vec::new();
        assert!(rx.recv_many(&mut got, 10));
        let tx = h.join().unwrap();
        while got.len() < 3 {
            assert!(rx.recv_many(&mut got, 10));
        }
        assert_eq!(got, vec![1, 2, 3]);
        tx.close();
        assert!(!rx.recv_many(&mut got, 10));
    }

    #[test]
    fn parallel_gateway_stamps_and_aggregates() {
        let now = Instant::from_secs(1);
        let mut pg = ShardPool::new(3, 16, |_| gateway(Duration::from_secs(3600)));
        let mut outs = Vec::new();
        for i in 0..8 {
            send(&mut pg, install(i), now, &mut outs);
        }
        for i in 0..8 {
            send(&mut pg, stamp(i, b"payload".to_vec(), Vec::new()), now, &mut outs);
        }
        // Unknown reservation → error output, still surfaced.
        send(&mut pg, stamp(999, b"x".to_vec(), Vec::new()), now, &mut outs);
        pg.flush(&mut outs);
        let installs =
            outs.iter().filter(|o| o.outcome == Outcome::Done(GatewayVerdict::Installed)).count();
        assert_eq!((installs, outs.len() - installs), (8, 9));
        assert_eq!(outs.iter().filter(|o| is_stamped(o)).count(), 8);
        for o in outs.iter().filter(|o| is_stamped(o)) {
            let GatewayJob::Stamp { bytes, .. } = &o.job else { panic!("stamp job") };
            assert!(!bytes.is_empty());
        }
        let mut rest = Vec::new();
        let snap = pg.shutdown(&mut rest);
        assert!(rest.is_empty());
        assert_eq!(snap.shards, 3);
        assert_eq!(snap.stats.gateway.forwarded, 8);
        assert_eq!(snap.stats.gateway.rejected, 1);
        // Every stamped packet passed its shard's qdisc; the unknown one
        // never reached it.
        assert_eq!(snap.stats.qos.admitted, 8);
        assert_eq!(snap.stats.qos.rate_limited, 0);
        assert!(snap.balanced(), "{snap:?}");
    }

    #[test]
    fn router_pool_validates_and_shuts_down() {
        // Authentic packets from a scalar gateway whose reservation
        // verifies at the pool's routers.
        let now = Instant::from_secs(50);
        let mut gw = auth_gateway(1, now);
        let mut pool = ShardPool::new(2, 8, |_| router());
        let mut outs = Vec::new();
        for _ in 0..6 {
            let pkt = gw.process(HostAddr(7), ResId(1), b"data", now).unwrap();
            send(&mut pool, pkt.bytes, now, &mut outs);
        }
        // One garbage packet.
        send(&mut pool, vec![0xFF; 10], now, &mut outs);
        while outs.len() < 7 {
            pool.try_drain(&mut outs, usize::MAX);
            std::thread::yield_now();
        }
        assert_eq!(outs.iter().filter(|o| is_forward(o)).count(), 6);
        let mut rest = Vec::new();
        let snap = pool.shutdown(&mut rest);
        assert!(rest.is_empty());
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.stats.router.forwarded, 6);
        assert_eq!(snap.stats.router.parse_errors, 1);
        // Six EER lookups happened across the shards. How many miss
        // depends on batching: packets of the same reservation that land
        // in one worker batch are probed before any insert, so they can
        // all miss together — only the exact lookup count is stable.
        assert_eq!(snap.stats.cache.sigma_hits + snap.stats.cache.sigma_misses, 6);
    }

    #[test]
    fn telemetry_pools_scrape_per_shard_and_merged() {
        let now = Instant::from_secs(1);
        let reg = Registry::new();
        let mut pg = ShardPool::with_telemetry(2, 16, &reg, |_| gateway(Duration::from_secs(3600)));
        let mut outs = Vec::new();
        for i in 0..6 {
            send(&mut pg, install(i), now, &mut outs);
        }
        for i in 0..6 {
            send(&mut pg, stamp(i, b"p".to_vec(), Vec::new()), now, &mut outs);
        }
        send(&mut pg, stamp(999, b"x".to_vec(), Vec::new()), now, &mut outs);
        pg.flush(&mut outs);
        let snap = pg.shutdown(&mut outs);
        let scrape = reg.snapshot();
        // Scraped cross-shard totals equal the pool's aggregated stats.
        assert_eq!(scrape.total("colibri_gateway_forwarded_total"), snap.stats.gateway.forwarded);
        assert_eq!(scrape.total("colibri_gateway_rejected_total"), snap.stats.gateway.rejected);
        // Per-shard split is visible and sums to the total.
        let m = scrape.metric("colibri_gateway_forwarded_total").unwrap();
        assert_eq!(m.shards.len(), 2);
        colibri_telemetry::verify_exposition(&scrape.render_prometheus()).unwrap();
    }
}
