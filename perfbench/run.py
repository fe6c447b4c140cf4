#!/usr/bin/env python3
"""Benchmark of the replicated, threshold-signed DNS service, end to end.

    python3 perfbench/run.py --workload zipf|uniform --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --steadiness K [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the daemons (../src,
../apps) and the C++ driver (perfbench/src) with CMake into $CARGO_TARGET_DIR
(default .bench_build), then runs one benchmark run: the driver deals a
(4,1) cluster with a seeded 3000-name threshold-signed zone, forks four
sdnsd replicas and one sdns_edge, drives the read, ladder, update and mixed
phases (see perfbench/src/main.cpp), checks every answer, and prints one
JSON object as the last line of stdout. With --trace 1 the object carries
the per-layer metrics and the spans go to <build>/out/; the tracing overhead
against the last untraced run of the same workload is printed on stderr.

--steadiness K runs the workload K times with seeds N..N+K-1 and prints each
end-to-end metric's median and quartile spread next to its bound in
BENCHMARK.json. --self-test builds and runs the tests of the driver's logic.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 165
TARGETS = ["perfbench_driver", "sdnsd", "sdns_edge"]

_child = None


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(targets):
    """Configure once, then build incrementally; compiler output to stderr."""
    for needed in (ROOT / "src" / "CMakeLists.txt", ROOT / "apps" / "CMakeLists.txt"):
        if not needed.exists():
            log(f"perfbench: missing {needed.relative_to(ROOT)}: "
                "run from a checkout of the repository")
            sys.exit(2)
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists() and subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr).returncode != 0:
        log("perfbench: configure failed")
        sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return bdir


def stop_child(*_):
    """Stop the driver's whole process group (it kills its own children on
    SIGTERM; SIGKILL follows if it has not exited within two seconds)."""
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGTERM)
            _child.wait(timeout=2)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            try:
                os.killpg(_child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _child.wait()


def run_driver(bdir, workload, seed, seconds, trace):
    """One run; returns (exit code, the result line or None)."""
    global _child
    out_dir = bdir / "out"
    cmd = [str(bdir / "perfbench_driver"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", str(bdir / "sdns_apps"), "--work-dir", str(bdir / "run"),
           "--out-dir", str(out_dir)]
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = _child.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {DRIVER_TIMEOUT_S} s; stopped")
        stop_child()
        return 1, None
    finally:
        rc = _child.returncode if _child.returncode is not None else 1
        _child = None
    lines = [l for l in stdout.splitlines() if l.strip()]
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    if trace and result:
        report_overhead(out_dir, workload)
    return rc, result


def report_overhead(out_dir, workload):
    try:
        traced = json.loads((out_dir / f"e2e-{workload}-trace1.json").read_text())
        plain = json.loads((out_dir / f"e2e-{workload}-trace0.json").read_text())
    except (OSError, ValueError):
        log("tracing overhead: no untraced run of this workload to compare with")
        return
    log("tracing overhead (traced - untraced, last runs of this workload):")
    for name, m in traced["metrics"].items():
        if name in plain["metrics"]:
            diff = m["value"] - plain["metrics"][name]["value"]
            log(f"  {name:24s} {diff:+14.4f} {m['unit']}")


def steadiness(bdir, workload, seed, seconds, runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for k in range(runs):
        rc, result = run_driver(bdir, workload, seed + k, seconds, 0)
        if rc != 0 or result is None:
            log(f"run {k + 1} (seed {seed + k}) failed with code {rc}")
            return 1
        metrics = json.loads(result)["metrics"]
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        log(f"run {k + 1}/{runs} (seed {seed + k}): " +
            " ".join(f"{n}={m['value']:.4g}" for n, m in metrics.items()))
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    worst = 0.0
    for metric in bench["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= metric["bound"] / 3 else "  > bound/3"
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:20s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {metric['bound']:6.2f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGINT, lambda *a: (stop_child(), sys.exit(130)))
    signal.signal(signal.SIGTERM, lambda *a: (stop_child(), sys.exit(143)))

    if args.self_test:
        bdir = build(["perfbench_test"])
        return subprocess.run([str(bdir / "perfbench_test")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    started = time.monotonic()
    bdir = build(TARGETS)
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")
    if args.steadiness:
        return steadiness(bdir, args.workload, args.seed, args.seconds, args.steadiness)
    rc, result = run_driver(bdir, args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(result, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
