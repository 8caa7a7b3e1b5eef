#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <hot_small|cold_mixed|ctrl_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (a package of its own
that depends on the workspace's `colibri` facade by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, and
passes its output through: the last line of standard output is the result
JSON. The run's record -- metrics with median, min, max and sample count,
offered counts, exact counts, and the host, toolchain and source it ran
on -- is written to `perfbench/out/<workload>-seed<n>-trace<t>.json`,
and a traced run's spans to `perfbench/out/<workload>.spans.csv`. Exits
non-zero without a result when the build, the run or any correctness
check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot_small", "cold_mixed", "ctrl_churn")
BUILD_TIMEOUT_S = 850
# A run takes `--seconds` of measuring (traced runs add up to half again
# for the untraced comparison), plus set-up and warm-up: up to ~40 s on a
# 2-core host.
RUN_MARGIN_S = 120


def run_timeout(seconds):
    return 2 * seconds + RUN_MARGIN_S


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a record names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for base in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host_record():
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host_cores": os.cpu_count(),
        "cpu_model": cpu,
        "build_profile": "release",
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
        env["CARGO_TARGET_DIR"] = str(target)
    manifest = HERE / "Cargo.toml"
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out_dir = HERE / "out"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", str(out_dir),
    ]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=run_timeout(args.seconds))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        print(f"run.py: benchmark failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        print("run.py: malformed result line", file=sys.stderr)
        return 1

    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = json.loads(record_path.read_text())
    record["host"] = host_record()
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    sys.stdout.write(run.stdout if run.stdout.endswith("\n") else run.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
