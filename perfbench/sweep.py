"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload certify --seeds 1-10
    python3 perfbench/sweep.py --workload budget --seeds 11,12,13 --trace 1

Each run is a separate process of ``perfbench/run.py`` with the seconds of
``BENCHMARK.json``.  For every metric the sweep prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, which is the spread the metric's bound is held to.
With ``--json`` the runs' result objects and the summary are written there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, walls = [], []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: wall {walls[-1]:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        bound = bounds.get(name) if args.trace == 0 else None
        flag = "" if bound is None else ("  ok" if s["spread"] <= bound / 3 else "  WIDE" if s["spread"] <= bound else "  OVER")
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.3f}"
              f"{'' if bound is None else f' (bound {bound})'}{flag}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "trace": args.trace, "walls": walls,
                                         "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
