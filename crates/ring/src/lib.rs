//! A bounded, cache-line-padded, lock-free SPSC ring (DESIGN.md §13).
//!
//! This crate exists so the data-plane shard pipeline can hand packets
//! between the driver thread and a worker thread without ever touching a
//! `Mutex` or a futex: the paper's forwarding path is modeled on DPDK
//! descriptor rings, where enqueue and dequeue are a handful of
//! plain stores plus one release/acquire pair. The previous
//! `Mutex`+`Condvar` queue cost a lock round-trip and a possible futex
//! wake on *every* enqueue and dequeue, which dominated the per-packet
//! budget once the crypto path dropped below ~150 ns/packet.
//!
//! Every other crate in this workspace carries `#![forbid(unsafe_code)]`.
//! This crate is the single sanctioned exception, and all `unsafe` is
//! confined to three small blocks in this file (slot write, slot read,
//! and the `Send`/`Sync` impls), each with its safety argument spelled
//! out inline. The algorithm is the single-producer/single-consumer
//! specialization of Vyukov's bounded queue: one atomic sequence counter
//! per slot carries *all* cross-thread synchronization.
//!
//! # Protocol
//!
//! Capacity is rounded up to a power of two internally; the *logical*
//! capacity (backpressure bound) stays exactly what the caller asked
//! for. Slot `i` starts with `seq = i`.
//!
//! * **push** at position `pos`: wait until `slots[pos & mask].seq ==
//!   pos` (Acquire), write the value, then `seq = pos + 1` (Release).
//! * **pop** at position `pos`: wait until `slots[pos & mask].seq ==
//!   pos + 1` (Acquire), read the value out, then `seq = pos +
//!   slots.len()` (Release) — marking the slot free for the producer's
//!   lap `pos + slots.len()`.
//!
//! # Memory-ordering argument
//!
//! The only data transferred between threads is the slot payload, and it
//! is bracketed by exactly one release/acquire edge per direction:
//!
//! 1. The producer's non-atomic write of the payload *happens-before*
//!    its `seq.store(pos + 1, Release)`.
//! 2. The consumer admits a slot only after `seq.load(Acquire)` observes
//!    `pos + 1`; the Acquire load synchronizes-with the Release store,
//!    so the payload write is visible.
//! 3. Symmetrically, the consumer's read (a by-value move out of the
//!    slot) happens-before its `seq.store(pos + len, Release)`, and the
//!    producer re-uses the slot only after observing that value with
//!    Acquire — so the producer never overwrites a payload that the
//!    consumer is still reading.
//!
//! The `head`/`tail` atomics exist for occupancy accounting (the exact
//! logical-capacity backpressure check and `len()`) and for the final
//! drop-drain; they are read and written with Relaxed ordering because
//! no payload access is justified by them — a stale `head` can only make
//! the producer *underestimate* free space, which is conservative.
//!
//! Exclusive access per side is enforced by the type system, not by the
//! protocol: [`ring`] returns a [`Producer`]/[`Consumer`] pair, neither
//! of which is `Clone`, and `push`/`pop` take `&mut self`. With exactly
//! one producer and one consumer, each side's position counter is
//! plain-local state and the seq handshake above is the whole story.
//!
//! # Waiting
//!
//! Blocking operations ([`Producer::send`], [`Consumer::recv_many`])
//! never sleep on an OS primitive: they spin a bounded number of times
//! with [`core::hint::spin_loop`] and then fall back to
//! [`std::thread::yield_now`], so a full/empty ring costs scheduler
//! yields instead of futex waits — the right trade for run-to-completion
//! shards that are expected to drain within microseconds.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns its contents to a cache line so the producer-owned
/// and consumer-owned indices never share a line (no false sharing).
#[repr(align(64))]
struct CachePadded<T>(T);

/// One ring slot: a sequence counter and an uninitialized payload cell.
///
/// `seq` encodes both occupancy and the lap number, so neither side ever
/// needs to read the other side's index to make progress.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Inner<T> {
    slots: Box<[Slot<T>]>,
    /// `slots.len() - 1`; slot index for position `p` is `p & mask`.
    mask: usize,
    /// Logical capacity: the exact backpressure bound the caller asked
    /// for (may be less than `slots.len()`).
    cap: usize,
    /// Next position the producer will write. Relaxed; accounting only.
    tail: CachePadded<AtomicUsize>,
    /// Next position the consumer will read. Relaxed; accounting only.
    head: CachePadded<AtomicUsize>,
    closed: AtomicBool,
}

// SAFETY: `Inner<T>` is shared between exactly two threads (the
// `Producer` and `Consumer` handles are not `Clone`). All shared mutable
// state is either atomic or the slot payloads, and every payload access
// is bracketed by the seq release/acquire handshake described in the
// module docs, so payloads are never accessed concurrently. Payloads do
// move between threads, hence the `T: Send` bound; no `&T` is ever
// shared across threads, so no `T: Sync` bound is needed.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: see the `Send` impl above; `&Inner<T>` is what the two handles
// actually hold, and all its methods are safe for one-producer +
// one-consumer concurrent use by construction.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both handles are gone (`Arc` strong count reached zero), so we
        // have exclusive access; drop any payloads still in flight.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for pos in head..tail {
            let slot = &self.slots[pos & self.mask];
            // SAFETY: positions in `head..tail` were written by the
            // producer (its seq store happened-before the thread join
            // that preceded this drop) and never consumed, so each cell
            // holds an initialized value we own exclusively.
            unsafe { (*slot.value.get()).assume_init_drop() };
        }
    }
}

/// Bounded spins before falling back to `yield_now` in blocking waits.
const SPIN_LIMIT: u32 = 64;

/// Creates a bounded SPSC ring with logical capacity `cap` (≥ 1),
/// returning the two exclusive endpoints.
///
/// `send` applies backpressure exactly at `cap` queued items, even
/// though the physical slot array is rounded up to a power of two.
pub fn ring<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap >= 1, "ring capacity must be at least 1");
    let physical = cap.next_power_of_two();
    let slots: Box<[Slot<T>]> = (0..physical)
        .map(|i| Slot { seq: AtomicUsize::new(i), value: UnsafeCell::new(MaybeUninit::uninit()) })
        .collect();
    let inner = Arc::new(Inner {
        slots,
        mask: physical - 1,
        cap,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (Producer { inner: Arc::clone(&inner), tail: 0 }, Consumer { inner, head: 0 })
}

/// Why a [`Producer::try_send`] could not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring holds `cap` items; the consumer has not caught up.
    Full(T),
    /// The ring is closed; no further items will be accepted.
    Closed(T),
}

/// The exclusive sending endpoint of a [`ring`]. Not `Clone`: single
/// producer is a type-level invariant, which is what makes the plain
/// (non-CAS) slot protocol sound.
pub struct Producer<T: Send> {
    inner: Arc<Inner<T>>,
    /// Producer-local copy of the next write position. The authoritative
    /// `inner.tail` mirrors it for accounting.
    tail: usize,
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue without blocking.
    pub fn try_send(&mut self, item: T) -> Result<(), TrySendError<T>> {
        let inner = &*self.inner;
        if inner.closed.load(Ordering::Acquire) {
            return Err(TrySendError::Closed(item));
        }
        let pos = self.tail;
        // Exact logical-capacity check: `head` is Relaxed, so it may lag
        // the consumer — which only *underestimates* free space, keeping
        // occupancy ≤ cap always true (backpressure exactness).
        if pos.wrapping_sub(inner.head.0.load(Ordering::Relaxed)) >= inner.cap {
            return Err(TrySendError::Full(item));
        }
        let slot = &inner.slots[pos & inner.mask];
        // With occupancy < cap ≤ physical, the slot must be free; the
        // Acquire load pairs with the consumer's Release in `try_recv`
        // so the previous payload's move-out happened-before our write.
        debug_assert_eq!(slot.seq.load(Ordering::Acquire), pos);
        let _ = slot.seq.load(Ordering::Acquire);
        // SAFETY: single producer (unique `&mut self`), and the capacity
        // check plus the seq handshake guarantee the consumer is done
        // with this slot, so we have exclusive access to the cell.
        unsafe { (*slot.value.get()).write(item) };
        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
        self.tail = pos.wrapping_add(1);
        inner.tail.0.store(self.tail, Ordering::Relaxed);
        Ok(())
    }

    /// Enqueues `item`, blocking (bounded spin, then `yield_now`) while
    /// the ring is full. Returns the item back if the ring was closed
    /// before it could be enqueued — matching the blocking `send` of the
    /// old mutex queue, including failing on a closed, non-full ring.
    pub fn send(&mut self, item: T) -> Result<(), T> {
        let mut item = item;
        let mut spins = 0u32;
        loop {
            match self.try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(it)) => return Err(it),
                Err(TrySendError::Full(it)) => {
                    item = it;
                    if spins < SPIN_LIMIT {
                        spins += 1;
                        core::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Closes the ring: subsequent sends fail, the consumer drains what
    /// is left and then sees end-of-stream.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// Number of items currently queued (approximate from the producer's
    /// point of view; exact when the consumer is idle).
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.inner.head.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is currently empty (see [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical capacity (exact backpressure bound).
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }
}

impl<T: Send> Drop for Producer<T> {
    fn drop(&mut self) {
        // A vanished producer must not strand the consumer in a blocking
        // wait (e.g. a worker thread that panicked mid-stream).
        self.close();
    }
}

impl<T: Send> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").field("len", &self.len()).finish()
    }
}

/// The exclusive receiving endpoint of a [`ring`]. Not `Clone`.
pub struct Consumer<T: Send> {
    inner: Arc<Inner<T>>,
    /// Consumer-local copy of the next read position.
    head: usize,
}

impl<T: Send> Consumer<T> {
    /// Non-blocking single-item pop.
    pub fn try_recv(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let pos = self.head;
        let slot = &inner.slots[pos & inner.mask];
        // Occupied slots carry seq == pos + 1. The Acquire load pairs
        // with the producer's Release store, making the payload visible.
        if slot.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
            return None;
        }
        // SAFETY: single consumer (unique `&mut self`), and seq == pos+1
        // proves the producer finished writing this slot and will not
        // touch it again until we release it below — exclusive access.
        let item = unsafe { (*slot.value.get()).assume_init_read() };
        // Free the slot for the producer's next lap over the buffer.
        slot.seq.store(pos.wrapping_add(inner.slots.len()), Ordering::Release);
        self.head = pos.wrapping_add(1);
        inner.head.0.store(self.head, Ordering::Relaxed);
        Some(item)
    }

    /// Blocks (bounded spin, then `yield_now`) until at least one item
    /// is available, then moves up to `max` items into `out`. Returns
    /// `false` iff the ring is closed and fully drained (the consumer
    /// should exit) — same contract as the old mutex queue.
    pub fn recv_many(&mut self, out: &mut Vec<T>, max: usize) -> bool {
        let mut spins = 0u32;
        loop {
            let mut got = 0;
            while got < max {
                match self.try_recv() {
                    Some(item) => {
                        out.push(item);
                        got += 1;
                    }
                    None => break,
                }
            }
            if got > 0 {
                return true;
            }
            // Empty. Check the closed flag *then* re-check the ring: any
            // item enqueued before `close()` has its seq store ordered
            // before the closed store (both Release from the producer
            // side), so observing closed==true with an Acquire load and
            // then finding the ring empty means no item can be missed.
            if self.inner.closed.load(Ordering::Acquire) {
                match self.try_recv() {
                    Some(item) => {
                        out.push(item);
                        return true;
                    }
                    None => return false,
                }
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                core::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Closes the ring from the consumer side, unblocking a producer
    /// stuck in [`Producer::send`] (used when the driver abandons a
    /// worker's output).
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// Number of items currently queued (approximate from the consumer's
    /// point of view).
    pub fn len(&self) -> usize {
        self.inner.tail.0.load(Ordering::Relaxed).wrapping_sub(self.head)
    }

    /// Whether the ring is currently empty (see [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        // A vanished consumer must not strand the producer in `send`.
        self.close();
    }
}

impl<T: Send> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn backpressure_exactly_at_capacity() {
        // Logical capacity 5 is deliberately not a power of two: the
        // physical buffer is 8 slots, but backpressure must engage at 5.
        let (mut tx, mut rx) = ring::<u32>(5);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(99), Err(TrySendError::Full(99)));
        assert_eq!(tx.len(), 5);
        // One pop frees exactly one slot.
        assert_eq!(rx.try_recv(), Some(0));
        tx.try_send(5).unwrap();
        assert_eq!(tx.try_send(100), Err(TrySendError::Full(100)));
    }

    #[test]
    fn close_fails_senders_and_drains_consumers() {
        let (mut tx, mut rx) = ring::<u32>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        tx.close();
        assert_eq!(tx.try_send(3), Err(TrySendError::Closed(3)));
        assert!(tx.send(3).is_err());
        let mut out = Vec::new();
        assert!(rx.recv_many(&mut out, 10));
        assert_eq!(out, vec![1, 2]);
        assert!(!rx.recv_many(&mut out, 10));
    }

    #[test]
    fn blocking_send_unblocks_on_pop() {
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
        drop(tx); // closes
        assert!(rx.recv_many(&mut got, 10));
        assert_eq!(got, vec![1, 2, 3]);
        assert!(!rx.recv_many(&mut got, 10));
    }

    #[test]
    fn producer_drop_closes() {
        let (tx, mut rx) = ring::<u32>(2);
        drop(tx);
        let mut out = Vec::new();
        assert!(!rx.recv_many(&mut out, 10));
    }

    #[test]
    fn consumer_drop_closes() {
        let (mut tx, rx) = ring::<u32>(2);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn drops_in_flight_items() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = ring::<D>(4);
        for _ in 0..3 {
            assert!(tx.try_send(D).is_ok());
        }
        drop(rx.try_recv()); // one consumed and dropped
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn close_on_drop_mid_batch_loses_nothing() {
        // A shard worker dying (DESIGN.md §9): the consumer side
        // vanishes mid-stream while the producer is still pushing a
        // batch. The producer must observe Closed with its item handed
        // back, everything enqueued before the close must remain
        // drainable, and in-flight items must be either drained or
        // destructed — never leaked, never double-dropped.
        use std::sync::atomic::AtomicU32;
        static LIVE: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Tracked(#[allow(dead_code)] u32);
        impl Tracked {
            fn new(v: u32) -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Tracked(v)
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = ring::<Tracked>(8);
        // Mid-batch: 5 of a planned 8 delivered, then the consumer dies.
        for i in 0..5 {
            tx.try_send(Tracked::new(i)).unwrap();
        }
        rx.close();
        // The producer observes Closed on both send flavors, item intact.
        match tx.try_send(Tracked::new(100)) {
            Err(TrySendError::Closed(item)) => drop(item),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(tx.send(Tracked::new(101)).is_err());
        // Everything enqueued before the close is still drainable in
        // order — close never discards accepted items.
        let mut got = 0;
        while rx.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 5, "accepted items must survive the close");
        assert_eq!(tx.len(), 0);
        drop(tx);
        drop(rx);
        assert_eq!(LIVE.load(Ordering::Relaxed), 0, "every item destructed exactly once");
    }

    #[test]
    fn consumer_drop_mid_batch_counts_stranded_items() {
        // Same scenario, but the driver does NOT drain: the stranded
        // items' destructors run in Inner::drop, and the producer can
        // still count what it had queued (the shard pool's lost_to_kill
        // ledger) before tearing down.
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, rx) = ring::<D>(8);
        for _ in 0..6 {
            tx.try_send(D).unwrap();
        }
        drop(rx); // consumer handle dies mid-batch, 6 items in flight
        assert_eq!(tx.len(), 6, "producer can still account stranded items");
        assert!(matches!(tx.try_send(D), Err(TrySendError::Closed(_))));
        drop(tx);
        // 6 stranded + 1 handed back on Closed (dropped by the match) = 7.
        assert_eq!(DROPS.load(Ordering::Relaxed), 7, "nothing silently lost");
    }

    #[test]
    fn producer_drop_mid_batch_drains_then_reports_closed() {
        // Mirror case: the producer dies mid-batch. The consumer must
        // first drain every accepted item, and only then see the ring
        // as closed (recv_many returning false).
        let (mut tx, mut rx) = ring::<u32>(8);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        drop(tx);
        let mut out = Vec::new();
        assert!(rx.recv_many(&mut out, 3), "accepted items come before the close signal");
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        assert!(rx.recv_many(&mut out, 10));
        assert_eq!(out, vec![3, 4]);
        out.clear();
        assert!(!rx.recv_many(&mut out, 10), "only then is the close observed");
        assert!(out.is_empty());
    }

    #[test]
    fn wraps_many_laps() {
        let (mut tx, mut rx) = ring::<usize>(3);
        let mut next_out = 0;
        for i in 0..10_000 {
            tx.send(i).unwrap();
            if i % 2 == 0 {
                assert_eq!(rx.try_recv(), Some(next_out));
                next_out += 1;
            }
            while tx.len() >= 3 {
                assert_eq!(rx.try_recv(), Some(next_out));
                next_out += 1;
            }
        }
    }

    #[test]
    fn two_thread_transfer_preserves_order_and_counts() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i).unwrap();
            }
            // tx drops here → ring closes.
        });
        let mut expected = 0u64;
        let mut batch = Vec::with_capacity(128);
        while rx.recv_many(&mut batch, 128) {
            for v in batch.drain(..) {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            }
        }
        assert_eq!(expected, N, "items lost or duplicated");
        producer.join().unwrap();
    }
}
