#!/usr/bin/env python3
"""Build rperf_bench from source and run one of its workloads.

Run from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --smoke [--binary PATH]

The first form builds the benchmark under .bench_build/ (configuring on
first use), runs workload NAME for S seconds, and prints the benchmark's
human-readable lines followed, as the last line of standard output, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end-to-end metrics, with --trace 1 its
per-layer metrics (the traced pass also writes its spans, as Chrome trace
JSON, to .bench_build/spans-NAME.json).

--smoke runs every workload at tiny sizes with the traced pass on and
checks that every metric BENCHMARK.json names is reported, with its unit,
for every workload, and that no operation failed. --binary skips the build
and uses an already built rperf_bench.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "rperf_bench"
# Every run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (first use only) and build the rperf_bench target."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run([cmake, "--build", str(BUILD_DIR), "--target",
                    "rperf_bench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "rperf_bench"


def run_binary(binary, args):
    """Run rperf_bench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([str(binary)] + args, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"rperf_bench exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Pool workers and workload processes share the group; none may
        # outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def check_metrics(workload, result, defs, positive):
    """Errors for metrics of `defs` missing from or disagreeing with
    `result`; `positive` metrics must also be finite and nonzero."""
    errors = []
    got = result["metrics"]
    for d in defs:
        m = got.get(d["name"])
        if m is None:
            errors.append(f"{workload}: metric {d['name']} not reported")
        elif m["unit"] != d["unit"]:
            errors.append(f"{workload}: {d['name']} unit {m['unit']!r}, "
                          f"BENCHMARK.json says {d['unit']!r}")
        elif positive and not (math.isfinite(m["value"]) and m["value"] > 0):
            errors.append(f"{workload}: end-to-end {d['name']} is "
                          f"{m['value']}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required (or --smoke)")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"{ROOT} holds no repository sources to build; run from the "
            "repository root")
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not a.smoke and a.workload not in names:
        log(f"unknown workload {a.workload!r}; expected one of {names}")
        return 2

    t0 = time.monotonic()
    try:
        binary = Path(a.binary) if a.binary else build()
    except (subprocess.CalledProcessError, RuntimeError) as e:
        log(f"build failed: {e}")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    BUILD.mkdir(exist_ok=True)
    result_path = BUILD / f"result-{os.getpid()}.json"
    args = ["--json", str(result_path), "--workdir", str(BUILD / "work")]
    if a.smoke:
        args += ["--workload", "all", "--smoke",
                 "--trace", str(BUILD / "spans-smoke.json")]
    else:
        args += ["--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds)]
        if a.trace:
            args += ["--trace", str(BUILD / f"spans-{a.workload}.json")]
    try:
        code = run_binary(binary, args)
    except RuntimeError as e:
        log(str(e))
        return 1
    if code not in (0, 1) or not result_path.exists():
        log(f"rperf_bench exited with {code} and no result")
        return 1
    doc = json.loads(result_path.read_text())
    result_path.unlink()

    if a.smoke:
        errors = []
        for name in names:
            r = doc["workloads"].get(name)
            if r is None:
                errors.append(f"{name}: not run")
                continue
            errors += check_metrics(name, r, spec["end_to_end"], True)
            errors += check_metrics(name, r, spec["per_layer"], False)
            if r["metrics"]["bench.fail_frac"]["value"] != 0:
                errors.append(f"{name}: fail_frac "
                              f"{r['metrics']['bench.fail_frac']['value']}")
        for e in errors:
            log(e)
        print(f"smoke: {len(names)} workloads, "
              f"{len(spec['end_to_end']) + len(spec['per_layer'])} metrics "
              f"each: {'ok' if not errors else 'FAILED'}")
        return 0 if not errors and code == 0 else 1

    r = doc["workloads"][a.workload]
    defs = spec["per_layer"] if a.trace else spec["end_to_end"]
    errors = check_metrics(a.workload, r, defs, positive=not a.trace)
    for e in errors:
        log(e)
    correct = bool(r["correct"]) and code == 0 and not errors
    out = {
        "correct": correct,
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {d["name"]: {"value": r["metrics"][d["name"]]["value"],
                                "unit": d["unit"]}
                    for d in defs if d["name"] in r["metrics"]},
    }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
