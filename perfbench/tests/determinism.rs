//! The counted window's exact counts — allocations, AES blocks, key
//! expansions, drops by hop and reason, cache hits and evictions, false
//! duplicates, control-plane outcomes — repeat bit for bit for a seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the workloads are too heavy for a debug build.

use colibri_perfbench::{run, RunConfig, Workload};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The allocation counter is process-wide: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn exact(workload: Workload, seed: u64) -> BTreeMap<String, u64> {
    let _guard = SERIAL.lock().expect("a previous run panicked");
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace: true,
    };
    let rep = run(&cfg).unwrap_or_else(|e| panic!("{} failed a check: {e}", workload.name()));
    assert!(
        rep.exact.len() > 10,
        "too few exact counts: {:?}",
        rep.exact
    );
    rep.exact
}

fn assert_repeats(workload: Workload) {
    let a = exact(workload, 7);
    let b = exact(workload, 7);
    assert_eq!(
        a,
        b,
        "{}: exact counts differ between two runs of one seed",
        workload.name()
    );
    assert!(a.contains_key("router.drops.duplicate"));
    assert!(a.contains_key("crypto.aes_blocks"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn hot_small_counts_repeat() {
    assert_repeats(Workload::HotSmall);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn cold_mixed_counts_repeat() {
    assert_repeats(Workload::ColdMixed);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn ctrl_churn_counts_repeat() {
    assert_repeats(Workload::CtrlChurn);
}
