"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workloads A,B] [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the root of a checkout. With no ``--workloads`` it runs every
workload of BENCHMARK.json, so ``python3 perfbench/repeat.py`` is the one
command that runs, checks and prints them all. Each seed is one ``run.py``
run with the ``run_seconds`` of BENCHMARK.json. For every metric it prints
the median with its unit, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound. ``--out`` keeps every run's figures and
summary lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def repeat(workload: str, seeds: list[int], trace: int, bench: dict) -> dict:
    """Run ``workload`` once per seed; print each run and the spread table."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["summary"] = lines[:-1]
        runs.append(result)
        print(f"{workload} seed {seed}: correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}")
        for line in result["summary"]:
            if not line.startswith(("env", "workload")):
                print(f"  {line}")
        sys.stdout.flush()

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        verdict = "ok" if bound is not None and spread <= bound / 3 else "WIDE"
        mark = "" if bound is None else f"  bound {bound}: {verdict}"
        print(f"  {name:34s} {median:<11.6g} {units[name]:<15s} q1 {q1:<11.6g} "
              f"q3 {q3:<11.6g} spread {spread:.4f}{mark}")
    return {"runs": runs, "summary": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: every workload)")
    parser.add_argument("--seeds", default=[1], type=seed_range, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    try:
        report = {name: repeat(name, args.seeds, args.trace, bench) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
