"""Run the benchmark on several seeds and summarise each metric.

Usage, from the repository root::

    python3 mfbench/spread.py --workloads atlas-sl4 corpus --seeds 1-10 --seconds 20 \
        --out mfbench/.work/spread.json [--trace 1]

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the distance
between the quartiles as a share of the median.  The output also records the
machine (``nproc``, CPU model) and the Python version, so a summary can serve
as the baseline for comparing a later change (compare ratios taken on one
machine back to back, never absolute seconds across machines).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version()}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    summary = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
               "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "workloads": {}}
    ok = True
    for name in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            result["seed"] = seed
            result["exit"] = proc.returncode
            runs.append(result)
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            brief = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()
                     if not k.startswith(("verify.", "corpus."))}
            print(f"{name} seed {seed} exit {proc.returncode} {brief}", flush=True)
        metrics = sorted({k for r in runs for k in r.get("metrics", {})})
        summary["workloads"][name] = {
            "runs": runs,
            "metrics": {k: {"unit": next(r["metrics"][k]["unit"] for r in runs
                                         if k in r.get("metrics", {})),
                            **summarise([r["metrics"][k]["value"] for r in runs
                                         if k in r.get("metrics", {})])}
                        for k in metrics},
        }
        for k, s in summary["workloads"][name]["metrics"].items():
            if args.trace == 0:
                print(f"  {name:11s} {k:14s} median {s['median']:.4f} spread {s['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
