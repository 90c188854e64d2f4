"""Check that the benchmark is steady across seeds and across repeated sets.

    python3 perfbench/steady.py --seeds 1-10 [--workload NAME ...] [--save FILE]
                                [--compare FILE]

Runs ``perfbench/run.py`` once per workload and seed (untraced, with
``run_seconds`` from BENCHMARK.json), one run at a time. For every
end-to-end metric it prints the median over the seeds and the spread:
the distance between the first and third quartile as a share of the
median. A spread should stay below a third of the metric's bound
(setup_s is exempt). With ``--compare`` it also checks a saved earlier
set: every exact counter must repeat for the same seed, and no median
may be worse than the earlier one by more than the bound. Exits 1 on
any failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": proc.stderr[-2000:]}
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append")
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    runs: dict = {}
    bad = []
    for w in workloads:
        for seed in seed_range(args.seeds):
            got = runs.setdefault(w, {})[str(seed)] = run(w, seed, bench["run_seconds"])
            if "error" in got or not got["result"]["correct"]:
                bad.append(f"{w} seed {seed}: {got.get('error') or got['record']}")
                continue
            before = earlier.get(w, {}).get(str(seed))
            if before and before["record"]["counters"] != got["record"]["counters"]:
                bad.append(f"{w} seed {seed}: counters differ from the earlier set")
            print(w, seed, {k: round(v["value"], 4) for k, v in got["result"]["metrics"].items()},
                  flush=True)
        good = [g for g in runs[w].values() if "result" in g]
        for m in metrics:
            values = [g["result"]["metrics"][m["name"]]["value"] for g in good]
            if len(values) < 2:
                continue
            q1, mid, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / mid
            line = f"{w:16} {m['name']:12} median {mid:.4f} spread {spread:.3f} bound {m['bound']}"
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                bad.append(f"{w} {m['name']}: spread {spread:.3f} >= bound/3")
                line += "  UNSTEADY"
            old = [g["result"]["metrics"][m["name"]]["value"]
                   for g in earlier.get(w, {}).values() if "result" in g]
            if old:
                shift = mid / median(old) - 1
                line += f"  vs earlier {shift:+.3f}"
                worse = shift if m["better"] == "lower" else -shift
                if worse > m["bound"]:
                    bad.append(f"{w} {m['name']}: median worse than earlier by {worse:.3f}")
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    for b in bad:
        print("FAIL", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
