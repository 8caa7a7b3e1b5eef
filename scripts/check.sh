#!/usr/bin/env bash
# The full local gate: release build, the complete test suite, and
# clippy with warnings promoted to errors. CI and pre-merge runs use
# exactly this script, so a clean run here means a clean run there.
set -euo pipefail
cd "$(dirname "$0")/.."

# `check.sh --attack` runs only the adversarial battery: the seeded
# mutation/flood/kill gates plus the attack-focused unit suites. Fast
# enough to run on every data-plane change; the full gate below also
# covers all of it via `cargo test -q` and the quick bench gates.
if [[ "${1:-}" == "--attack" ]]; then
  # Runs a cargo test command and fails if it selected no test at all, so
  # a renamed module cannot turn a filtered step into a vacuous pass.
  nonempty() {
    local out
    out=$("$@" 2>&1) || { echo "$out"; return 1; }
    echo "$out"
    if ! grep -Eq '^running [1-9][0-9]* tests?$' <<<"$out"; then
      echo "==> FAIL: no test selected by: $*" >&2
      return 1
    fi
  }
  echo "==> adversarial test battery (mutation taxonomy, 4x flood goodput, shard-kill recovery, contained panics)"
  nonempty cargo test --release -q -p colibri-dataplane --test adversarial
  echo "==> attack-generator + shard-pool unit suites"
  nonempty cargo test --release -q -p colibri-sim --lib attack
  nonempty cargo test --release -q -p colibri-dataplane --lib -- pool supervisor
  nonempty cargo test --release -q -p colibri-ring --lib
  echo "==> repro_pipeline --quick --gate (survivability rows: taxonomy exact, goodput ≥95%, ledger balanced)"
  cargo run --release -q -p colibri-bench --bin repro_pipeline -- \
    --quick --gate --out target/BENCH_dataplane.attack.json
  echo "==> attack checks passed"
  exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy -p colibri-telemetry -- -D warnings"
cargo clippy -p colibri-telemetry --all-targets -- -D warnings

echo "==> cargo clippy -p colibri-ctrl -p colibri-sim -p colibri-host -- -D warnings (overload-resilience modules)"
cargo clippy -p colibri-ctrl -p colibri-sim -p colibri-host --all-targets -- -D warnings

echo "==> chaos suite, release (renewal storm, shedding priority, regional outage — must replay bit-identically)"
cargo test --release -q -p colibri --test chaos

echo "==> breaker/budget property suite"
cargo test --release -q -p colibri-ctrl --test breaker_props

echo "==> repro_pipeline --quick --gate (data plane must not regress; telemetry ≤2%," \
     "scrape verified: no unregistered/duplicate metric names; storm amplification ≤3," \
     "renewals admitted ahead of new setups under overload)"
cargo run --release -q -p colibri-bench --bin repro_pipeline -- \
  --quick --gate --out target/BENCH_dataplane.quick.json

echo "==> timeline/store property suites (segment tree ≡ slot-vector oracle, aggregates reconcile)"
cargo test --release -q -p colibri-ctrl --test timeline_props
cargo test --release -q -p colibri-ctrl --test proptests

echo "==> repro_store --quick --gate (admit at 10^6 ≤ 2x 10^3; naive foil ≥100x;" \
     "GC ∝ expired records; timeline ≡ oracle in release)"
cargo run --release -q -p colibri-bench --bin repro_store -- \
  --quick --gate --out target/BENCH_store.quick.json

echo "==> cargo clippy -p colibri-qdisc -- -D warnings (QoS hierarchy)"
cargo clippy -p colibri-qdisc --all-targets -- -D warnings

echo "==> qdisc fairness property suite (tenant isolation, no token creation, fair refill, burst ≤ capacity)"
cargo test --release -q -p colibri-qdisc --test fairness_props

echo "==> gateway QoS differential suite (gateway ≡ flat-bucket oracle, renewal carries tokens, churn conserves nodes)"
cargo test --release -q -p colibri-dataplane --test qos_props

echo "==> repro_qos --quick --gate (reserved goodput ≥95% of entitlement under 4x best-effort" \
     "overload with zero reserved drops; idle link scavenged ≥90% and ≤1+burst/T;" \
     "gateway ≡ flat-bucket oracle in release)"
cargo run --release -q -p colibri-bench --bin repro_qos -- \
  --quick --gate --out target/BENCH_qos.quick.json

echo "==> all checks passed"
