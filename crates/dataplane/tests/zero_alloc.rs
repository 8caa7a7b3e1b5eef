//! Regression test: after warm-up, [`Gateway::process_into`] performs zero
//! heap allocations per packet — policing, building and HVF stamping all
//! run on installed state and the caller's recycled buffer.
//!
//! A counting global allocator (std only) tallies allocations made by the
//! current thread, so tests running on other threads cannot disturb the
//! count.

use colibri_base::{Bandwidth, Duration, HostAddr, Instant, IsdAsId, ResId, ReservationKey};
use colibri_crypto::Key;
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_dataplane::{Gateway, GatewayConfig, QosMode};
use colibri_qdisc::HtbConfig;
use colibri_wire::{EerInfo, HopField};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counter is const-initialized and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const HOST: HostAddr = HostAddr(7);

fn owned(n_hops: usize) -> OwnedEer {
    let exp = Instant::from_secs(3600);
    OwnedEer {
        key: ReservationKey::new(IsdAsId::new(1, 10), ResId(1)),
        eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
        path_ases: (0..n_hops).map(|i| IsdAsId::new(1, 10 + i as u32)).collect(),
        hop_fields: (0..n_hops).map(|i| HopField::new(i as u16, i as u16 + 1)).collect(),
        versions: vec![OwnedEerVersion {
            ver: 0,
            bw: Bandwidth::from_gbps(400),
            exp,
            hop_auths: (0..n_hops).map(|i| Key([i as u8; 16])).collect(),
        }],
    }
}

/// Stamps `n` packets after a warm-up and returns the allocations the
/// measured packets made.
fn allocs_after_warmup(mut gw: Gateway, n_hops: usize, n: u64) -> u64 {
    let t0 = Instant::from_secs(1);
    gw.install(&owned(n_hops), t0);
    let payload = [0x5au8; 512];
    let mut buf = Vec::new();
    let mut send = |gw: &mut Gateway, i: u64| {
        let now = t0 + Duration::from_micros(i);
        gw.process_into(HOST, ResId(1), &payload, now, &mut buf).expect("admitted");
    };
    for i in 0..16 {
        send(&mut gw, i);
    }
    let before = allocs();
    for i in 16..16 + n {
        send(&mut gw, i);
    }
    allocs() - before
}

#[test]
fn default_gateway_stamps_without_allocating() {
    let gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(1), ..Default::default() });
    assert_eq!(allocs_after_warmup(gw, 4, 1000), 0, "allocations over 1000 packets");
}

#[test]
fn shaped_gateway_stamps_without_allocating() {
    let qos = QosMode::Hierarchical(HtbConfig::shaped(Bandwidth::from_gbps(100)));
    let gw = Gateway::new(GatewayConfig { burst: Duration::from_secs(1), qos });
    // Nine hops: one 8-wide HVF batch plus a scalar remainder.
    assert_eq!(allocs_after_warmup(gw, 9, 1000), 0, "allocations over 1000 packets");
}
