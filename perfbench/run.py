"""Benchmark of pyrseiz: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pyrseiz checkout; the program is imported from
``./src``. Set-up (``pyrseiz synth``, plus ``pyrseiz train`` and reference
vote logs for ``predict-serial``) runs in one fresh process, the measured
closed loop in another, so ``peak_rss_mb`` is that of the loop alone. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). Scratch files live under ``.perfbench_work/`` and are removed
at exit. Workload choices and findings are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from session import WORKLOADS, declared_metrics  # noqa: E402

WORK_DIR = ".perfbench_work"
DEADLINE_S = 175.0


def _phase(phase: str, args: list[str], root: Path, work: Path, deadline: float) -> dict:
    """Run one session phase in a fresh process group and return its result."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result_path = work / f"{phase}.json"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), phase, *args[:2], str(work),
         str(result_path), *args[2:]],
        cwd=root, env=env, stdout=sys.stderr, start_new_session=True,
    )
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{phase} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{phase} exited with code {code}")
    return json.loads(result_path.read_text())


def _summary(workload, setup: dict, result: dict, units: dict, trace: bool) -> list[str]:
    """Human-readable lines, naming the figures per workload (cv_wall_s,
    predict_p50_ms, error_rate, ...)."""
    m = result["metrics"]
    env = result["env"]
    lines = [f"workload {workload.name}: {result['attempted']} calls, {result['failed']} failed"]
    lines.append(
        f"env: nproc {env['nproc']}, {env['cpu']}, python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']}"
    )
    lines.append("env threads: " + ", ".join(
        f"{k}={'unset' if v is None else v}" for k, v in env["thread_variables"].items()))
    for problem in result["problems"]:
        lines.append(f"check failed: {problem}")
    if trace:
        missing = result["missing_hooks"]
        lines.append("trace hooks missing: " + (", ".join(missing) if missing else "none"))
        for name, value in m.items():
            lines.append(f"{name} {value:.6g} {units[name]}")
        return lines
    error_rate = result["failed"] / result["attempted"]
    latency = result["latency_ms"]
    if workload.is_cv:
        lines.append(f"cv_wall_s {latency['p50'] / 1000.0:.4f} s (median of "
                     f"{latency['calls']} calls: "
                     + " ".join(f"{wall:.3f}" for wall in result["calls_s"]) + ")")
        lines.append(f"cv_acc {m['acc']:.4f} share")
        lines.append(f"cv_acc_v {m['acc_v']:.4f} share")
    else:
        lines.append(f"predict_p50_ms {latency['p50']:.4f} ms")
        lines.append(f"predict_tail_ms {latency['tail']:.4f} ms "
                     f"(p{latency['tail_percentile']:g} of {latency['calls']} calls)")
        lines.append(f"predict_records_per_s {result['records_per_s']:.2f} 1/s")
        lines.append(f"predict_acc {m['acc']:.4f} share, predict_acc_v {m['acc_v']:.4f} share")
    lines.append(f"call_min_ms {m['call_min_ms']:.4f} ms (fastest of {latency['calls']} calls)")
    lines.append(f"peak_rss_mb {m['peak_rss_mb']:.1f} MB")
    lines.append(f"error_rate {error_rate:.4f} share")
    lines.append(f"setup_s {statistics.median(setup['setup_s']):.4f} s (median of "
                 + " ".join(f"{t:.3f}" for t in setup["setup_s"]) + ")")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "pyrseiz" / "__init__.py").is_file():
        print(f"error: no pyrseiz sources under {root / 'src'}; run from the root "
              "of a pyrseiz checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        common = [args.workload, str(args.seed)]
        setup = _phase("setup", common, root, work, deadline)
        result = _phase("measure", [*common, str(args.seconds), str(args.trace)],
                        root, work, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    metrics = dict(result["metrics"])
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup["setup_s"])
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match the "
              "declared set", file=sys.stderr)
        return 3
    for line in _summary(workload, setup, result, units, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
