"""Benchmark runner for nilary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner makes the workload's inputs
from the seed, then starts one fresh, single-threaded worker process per
pass (``perfbench/worker.py``) until ``--seconds`` would be exceeded;
every run makes at least one pass, even when it takes longer. The first
worker also runs the CLI and oracle checks. With ``--trace 1`` traced
and untraced workers alternate, and the per-layer metrics are medians
over the traced ones.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The line before it is the run
record: machine, versions, each pass's timings and its exact counters.
``attempted`` counts rings over all passes; ``failed`` counts the rings
that raised, failed a digest, harness, replay, CLI or oracle check.
Passes of one run whose counters differ make the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 165  # every worker must end within this much of the run's start
SETUPS = 3  # set-ups per untraced worker; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict[str, str]:
    return {**os.environ, **{var: "1" for var in THREAD_VARS},
            "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "nilary").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def run_worker(cmd: list[str], rings: int, timeout: float) -> dict:
    """One worker pass; a crash or timeout counts every ring as failed."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker exceeded {timeout:.0f} s", "attempted": rings,
                "failed": rings}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": proc.stderr[-2000:], "attempted": rings, "failed": rings}
    out = json.loads(lines[-1])
    out["failed"] = len(out["failed"]) if out["failed"] else 0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nilary benchmark runner")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nilary" / "__init__.py").is_file():
        print(f"error: no nilary sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    from workloads import make_specs

    start = time.monotonic()
    workdir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    specs = make_specs(args.workload, args.seed, workdir, ROOT)
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps({"workload": args.workload, "specs": specs}, indent=1))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "passes": []}
    passes = record["passes"]

    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        cmd = [sys.executable, str(HERE / "worker.py"), str(inputs),
               "--setups", "1" if traced else str(SETUPS)]
        if not passes:
            cmd.append("--checks")
        if traced:
            cmd += ["--trace", "--spans", str(workdir / "spans.jsonl.gz")]
        t0 = time.monotonic()
        passes.append(run_worker(cmd, len(specs), BUDGET_S - (t0 - start)))
        elapsed = time.monotonic() - start
        # the next pass should take as long as this one, less its one-off checks
        took = time.monotonic() - t0 - passes[-1].get("checks_s", 0)
        if "crashed" in passes[-1] or elapsed + took > BUDGET_S:
            break
        if args.trace and len(passes) < 2:
            continue
        if elapsed + took > args.seconds:
            break

    ok = [q for q in passes if "crashed" not in q]
    timed = [q for q in ok if q["wall_s"] is not None]
    plain = [q for q in timed if "layers" not in q]
    traced = [q for q in timed if "layers" in q]
    attempted = sum(q["attempted"] for q in passes)
    failed = sum(q["failed"] for q in passes)
    steady = len({json.dumps(q["counters"], sort_keys=True) for q in ok}) <= 1
    record["counters"] = ok[0]["counters"] if ok and steady else None
    record["fail_frac"] = failed / attempted
    record["machine"]["loadavg_end"] = os.getloadavg()
    if not steady:
        record["error"] = "exact counters differ between passes of one run"
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    if not plain or (args.trace and not traced):
        print(json.dumps({"record": record}), file=sys.stderr)
        print("error: no pass completed; see the record above", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))

    if args.trace:
        wanted = spec["per_layer"]
        base = median(q["wall_s"] for q in plain)
        values = {m["name"]: median(q["layers"].get(m["name"], 0) for q in traced)
                  for m in wanted}
        values["trace.overhead_frac"] = median(q["wall_s"] for q in traced) / base - 1
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": median(s for q in plain for s in q["setup_s"]),
            "wall_s": median(q["wall_s"] for q in plain),
            "warm_wall_s": median(q["warm_wall_s"] for q in plain),
            "peak_rss_mb": median(q["peak_rss_mb"] for q in plain),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and len(ok) == len(passes) and steady,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
