//! Gateway shards addressed by reservation ID through [`crate::shard_index`].

mod tests {
    use crate::pool::tests::{gateway, install, is_stamped, owned, send, stamp};
    use crate::{shard_index, Gateway, GatewayError, GatewayJob, GatewayVerdict, Outcome, ShardPool};
    use colibri_base::{Duration, HostAddr, Instant, ResId};

    #[test]
    fn operations_route_to_stable_shards() {
        let now = Instant::from_secs(1);
        let mut pg = ShardPool::new(4, 256, |_| gateway(Duration::from_millis(50)));
        let mut outs = Vec::new();
        for i in 0..64 {
            send(&mut pg, install(i), now, &mut outs);
        }
        // Every reservation is reachable on its shard.
        for i in 0..64 {
            send(&mut pg, stamp(i, b"x".to_vec(), Vec::new()), now, &mut outs);
        }
        pg.flush(&mut outs);
        assert_eq!(outs.iter().filter(|o| is_stamped(o)).count(), 64);
        let snap = pg.shutdown(&mut outs);
        assert_eq!(snap.stats.gateway.forwarded, 64);
        // Distribution is not degenerate.
        let used: std::collections::HashSet<_> =
            (0..64).map(|i| shard_index(ResId(i), 4)).collect();
        assert!(used.len() >= 3, "only {} shards used", used.len());
        assert_eq!(snap.per_shard.iter().filter(|s| s.submitted > 0).count(), used.len());
        // Without a pool, a `Vec<Gateway>` addressed by `shard_index` is the
        // same deployment: removal reaches the owning shard.
        let mut bank: Vec<Gateway> = (0..4).map(|_| gateway(Duration::from_millis(50))).collect();
        for i in 0..64 {
            bank[shard_index(ResId(i), 4)].install(&owned(i), now);
        }
        assert_eq!(bank.iter().map(Gateway::len).sum::<usize>(), 64);
        bank[shard_index(ResId(5), 4)].remove(ResId(5));
        assert_eq!(bank.iter().map(Gateway::len).sum::<usize>(), 63);
        let owner = &mut bank[shard_index(ResId(5), 4)];
        let unknown = owner.process(HostAddr(7), ResId(5), b"x", now);
        assert!(matches!(unknown, Err(GatewayError::UnknownReservation(_))));
    }

    #[test]
    fn rate_limit_stays_per_reservation_across_shards() {
        let now = Instant::from_secs(1);
        let mut pg = ShardPool::new(8, 512, |_| gateway(Duration::from_millis(1)));
        let mut outs = Vec::new();
        send(&mut pg, install(1), now, &mut outs);
        send(&mut pg, install(2), now, &mut outs);
        // Exhaust reservation 1's bucket…
        for _ in 0..200 {
            send(&mut pg, stamp(1, vec![0u8; 1000], Vec::new()), now, &mut outs);
        }
        // …reservation 2 (a different shard with overwhelming probability,
        // but correct regardless) is unaffected.
        send(&mut pg, stamp(2, b"x".to_vec(), Vec::new()), now, &mut outs);
        pg.flush(&mut outs);
        let limited =
            Outcome::Done(GatewayVerdict::Stamped(Err(GatewayError::RateLimited(ResId(1)))));
        assert!(outs.iter().any(|o| o.outcome == limited));
        let two =
            outs.iter().find(|o| matches!(&o.job, GatewayJob::Stamp { res_id: ResId(2), .. }));
        assert!(is_stamped(two.unwrap()));
        pg.shutdown(&mut outs);
    }

    #[test]
    fn single_shard_degenerates_to_plain_gateway() {
        let now = Instant::from_secs(1);
        assert_eq!(shard_index(ResId(1), 1), 0);
        let mut pg = ShardPool::new(1, 8, |_| gateway(Duration::from_millis(50)));
        assert_eq!(pg.shard_count(), 1);
        let mut outs = Vec::new();
        send(&mut pg, install(1), now, &mut outs);
        send(&mut pg, stamp(1, b"x".to_vec(), Vec::new()), now, &mut outs);
        let snap = pg.shutdown(&mut outs);
        assert!(is_stamped(&outs[1]));
        assert_eq!(snap.per_shard.len(), 1);
        assert_eq!(snap.per_shard[0].stats.gateway.forwarded, 1);
    }
}
