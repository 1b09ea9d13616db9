#!/usr/bin/env python3
"""Host-time benchmark of the MTAT simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mtat --seed 1 --seconds 10 --trace 0

Builds the `perfbench` crate in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload in one or more fresh
processes, checks the outputs, prints every metric with its unit and
ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. See perfbench/README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Cold processes that each pay paper_mtat's SAC pretraining; setup_s is
# the median over them. Other workloads take their set-up samples
# inside one process.
COLD_SETUPS = {"paper_mtat": 2}

# Per-process limit, below the benchmark's 180 s budget.
PROCESS_TIMEOUT_S = 170

# Files that make up the sources the benchmark builds; build output
# (`target`, `.bench_build`) and other generated files are left out.
SOURCE_SUFFIXES = {".rs", ".toml", ".lock", ".py", ".json"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def is_source(path):
    rel = path.relative_to(ROOT).parts
    hidden_or_built = any(p == "target" or p.startswith(".") for p in rel)
    return path.is_file() and path.suffix in SOURCE_SUFFIXES and not hidden_or_built


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if is_source(p))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment():
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit,
        "source_sha256": source_digest(),
        "build": "release",
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run_process(binary, workload, mode, seed, seconds):
    cmd = [str(binary), workload, mode, str(seed), repr(seconds)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} {mode} exceeded {PROCESS_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    # The binary itself refuses a debug build and the MTAT_* variables
    # that would change what it measures (exit 2).
    if out.returncode != 0 or not lines:
        die(f"{workload} {mode} exited with {out.returncode}")
    return json.loads(lines[-1])


def main():
    args = parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"no MTAT source tree at {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    info = environment()
    print("# env " + json.dumps(info, sort_keys=True))

    mode = "layers" if args.trace else "e2e"
    outs = [run_process(binary, args.workload, mode, args.seed, args.seconds)]
    if not args.trace:
        for _ in range(COLD_SETUPS.get(args.workload, 1) - 1):
            outs.append(run_process(binary, args.workload, "setup", args.seed, args.seconds))
    main_out = outs[0]

    metrics = dict(main_out["metrics"])
    checks = [c for o in outs for c in o["checks"]]
    if not args.trace:
        setups = [s for o in outs for s in o["setup_samples"]]
        metrics["setup_s"] = statistics.median(setups)
        probe = main_out["probe_digest"]
        checks.append({"name": "golden_probe_digest", "ok": probe == golden["probe_digest"],
                       "detail": f"default-seed digest {probe}, golden {golden['probe_digest']}"})
        if args.seed == golden["seed"]:
            first = (main_out["digests"] or [None])[0]
            checks.append({"name": "golden_run_digest", "ok": first == golden["run_digest"],
                           "detail": f"digest {first}, golden {golden['run_digest']}"})

    # Runs that returned an error are counted by the binary (and are not
    # checks); a failed output check adds one more.
    attempted = sum(o["attempted"] for o in outs)
    failed_checks = [c for c in checks if not c["ok"]]
    failed = sum(o["failed"] for o in outs) + len(failed_checks)
    missing = [m["name"] for m in wanted
               if not isinstance(metrics.get(m["name"]), (int, float))]
    for c in failed_checks:
        print(f"# FAILED check {c['name']}: {c['detail']}")
    for name in missing:
        print(f"# FAILED: no value for metric {name}")
    correct = not failed_checks and not missing and failed == 0 and attempted > 0

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for m in wanted:
        print(f"{m['name']:32} {metrics.get(m['name'])!s:>24} {m['unit']}")
    print(f"{'failed_pct':32} {100.0 * failed / max(attempted, 1):>24} %")
    for k, v in main_out["info"].items():
        print(f"# {k} = {v:g}")
    print(f"# checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
