#!/usr/bin/env python3
"""Host-performance benchmark of the EM-X simulator.

Run from the repository root:

    python3 perfbench/run.py --workload bitonic-p64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The line
before it is the run's record: provenance and every raw sample.

`--trace 0` reports the end-to-end metrics of an untraced run. The
reference kernel (`perfbench --calibrate`, src/calib.rs) runs before the
first and after every execution, and the run's times are scaled by how far
the kernel ran from its nominal time, so that host drift cancels and a
change to the simulator does not.
`--trace 1` first runs untraced for part of the budget (for the overhead
baseline), then once traced, and reports the per-layer metrics.
`--seed 0` (the default) keeps every kernel's calibrated seed and checks
the pinned digests in `pins.txt`; any other seed checks the kernels' own
verification and same-seed determinism instead.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
# Share of the budget the untraced baseline of a traced run may use.
TRACE_BASELINE_SHARE = 0.4
# Workloads that run on more than one host thread (sweep-mix's workers).
MULTI_THREADED = {"sweep-mix"}
# Checksum of the reference kernel, the same on every host.
CALIB_CHECKSUM = "359b5a068c040164"
# End-to-end metrics that are host times, and those that are rates.
TIMES = ("wall_s", "setup_s")
RATES = ("sim_mcycles_per_s",)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Build both binaries; returns their directory or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"build failed with exit code {r.returncode}")
        return None
    return target_dir() / "release"


def first_line(path, prefix):
    try:
        for line in path.read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the binaries are built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", HERE / "Cargo.toml"]
    for base in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(runs):
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                                  cwd=ROOT).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    commit = out(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": first_line(Path("/proc/cpuinfo"), "model name"),
        "os": platform.platform(),
        "rustc": out(["rustc", "-V"]),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "build_profile": "release (perfbench/Cargo.toml: lto=thin, codegen-units=4)",
        "child_runs": runs,
    }


def run_child(binary, args):
    """Run one benchmark process; returns its parsed last line or None."""
    cmd = [str(binary)] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{binary.name} did not finish: {e}")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"{binary.name} exited with code {r.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{binary.name} printed no result line")
        return None


def calibrate(bins):
    """One reference kernel in its own process: (seconds, nominal seconds) or None."""
    res = run_child(bins / "perfbench", ["--calibrate"])
    if res is None:
        return None
    if res["checksum"] != CALIB_CHECKSUM:
        log(f"reference kernel checksum {res['checksum']}, expected {CALIB_CHECKSUM}")
        return None
    return res["calib_s"], res["ref_s"]


def current_cpu():
    """The CPU this process is running on (field 39 of /proc/self/stat), or None."""
    try:
        stat = Path("/proc/self/stat").read_text()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def pin_cpu(workload):
    """Confine a single-threaded workload and its reference kernels to the
    CPU this run started on, so both measure the same core."""
    if workload in MULTI_THREADED or not hasattr(os, "sched_setaffinity"):
        return
    cpu = current_cpu()
    if cpu in os.sched_getaffinity(0):
        os.sched_setaffinity(0, [cpu])


def untraced(bins, common, seconds):
    """Run one-execution processes until the budget is spent, at least once.

    A fresh process per execution gives every execution the same allocator
    state, and makes `peak_rss_mb` the peak of a process that ran the
    workload once. A reference kernel runs before the first execution and
    after each one. Each metric is the median over the executions, times
    scaled by nominal / median kernel seconds, rates divided by it.
    Returns (result, record, --expect flags) or None.
    """
    results, expect, longest = [], [], 0.0
    cal = calibrate(bins)
    if cal is None:
        return None
    cals, ref_s = [cal[0]], cal[1]
    start = time.monotonic()
    while True:
        t = time.monotonic()
        res = run_child(bins / "perfbench", common + expect)
        cal = calibrate(bins) if res is not None else None
        if cal is None:
            return None
        cals.append(cal[0])
        longest = max(longest, time.monotonic() - t)
        results.append(res)
        if not expect:
            # Later executions must reproduce the first one's digests.
            for name, digest in res["record"]["digests"].items():
                expect += ["--expect", f"{name}={digest}"]
        if time.monotonic() - start + longest > seconds:
            break
    scale = ref_s / statistics.median(cals)
    raw = {name: [r["metrics"][name]["value"] for r in results] for name in results[0]["metrics"]}

    def scaled(name):
        v = statistics.median(raw[name])
        return v * scale if name in TIMES else v / scale if name in RATES else v

    metrics = {name: {"value": scaled(name), "unit": results[0]["metrics"][name]["unit"]}
               for name in raw}
    attempted = sum(r["attempted"] for r in results)
    record = {
        "mode": "untraced",
        "executions": len(results),
        "raw_samples": raw,
        "calib_s": cals,
        "calib_ref_s": ref_s,
        "scale": scale,
        "raw_wall_s_median": statistics.median(raw["wall_s"]),
        "busy_s_median": statistics.median(r["record"]["busy_s"] for r in results),
        "error_rate": sum(r["record"]["failed_ops"] for r in results) / attempted,
        "first": results[0]["record"],
    }
    res = {"correct": all(r["correct"] for r in results), "attempted": attempted,
           "failed": sum(r["failed"] for r in results), "metrics": metrics}
    return res, record, expect


def measure(bins, workload, seed, seconds, trace, workdir, extra=()):
    """One benchmark run: returns (result, records) or None on failure."""
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir), *extra]
    share = TRACE_BASELINE_SHARE if trace else 1.0
    pin_cpu(workload)
    base = untraced(bins, common, seconds * share)
    if base is None:
        return None
    res, rec, expect = base
    if not trace:
        return res, [rec]
    args = common + expect + ["--untraced-wall", str(rec["raw_wall_s_median"]),
                              "--untraced-busy", str(rec["busy_s_median"])]
    traced = run_child(bins / "perfbench-traced", args)
    if traced is None:
        return None
    records = [rec, traced.pop("record")]
    traced["correct"] = bool(traced["correct"] and res["correct"])
    traced["attempted"] += res["attempted"]
    traced["failed"] += res["failed"]
    return traced, records


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest(bins, workdir):
    """Tiny sizes, every workload, both modes, plus a corrupted pin."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            out = measure(bins, w, 0, 0, trace, workdir, ["--size", "tiny"])
            if out is None:
                problems.append(f"{w} trace={trace}: no result")
                continue
            res, records = out
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected_metrics(trace):
                problems.append(f"{w} trace={trace}: metrics {sorted(got)} do not match BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} trace={trace}: not correct: {records}")
        out = measure(bins, w, 0, 0, 0, workdir, ["--size", "tiny", "--corrupt-pins"])
        if out is None or out[0]["correct"] or out[0]["failed"] < 1:
            problems.append(f"{w}: a wrong pinned digest was not counted as an error")
        log(f"selftest {w}: done")
    for p in problems:
        log(f"selftest: {p}")
    print(json.dumps({"selftest": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "BENCHMARK.json").is_file():
        log("BENCHMARK.json not found beside perfbench/")
        return 2
    bins = build()
    if bins is None:
        return 2
    workdir = target_dir() / "perfbench-work" / str(os.getpid())
    try:
        if a.selftest:
            return selftest(bins, workdir)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            log(f"unknown workload {a.workload!r}")
            return 2
        out = measure(bins, a.workload, a.seed, a.seconds, a.trace, workdir)
        if out is None:
            return 1
        res, records = out
        missing = sorted(set(expected_metrics(a.trace)) - set(res["metrics"]))
        print(json.dumps({"record": records, "missing_metrics": missing,
                          "provenance": provenance(len(records))}))
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
