"""One phase of a benchmark run, in a fresh process: set-up or measurement.

    python3 perfbench/session.py setup   WORKLOAD SEED WORK RESULT
    python3 perfbench/session.py measure WORKLOAD SEED WORK RESULT SECONDS TRACE

``run.py`` starts both with ``src`` on ``PYTHONPATH`` and the caller's
environment otherwise untouched (BLAS and OpenMP thread variables stay as
the user has them). The program is driven only through ``pyrseiz.cli.main``
in-process and public module functions; the phase writes its figures as
JSON to RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Traced/plain call pairs of a traced cv run (after its warm-up call).
TRACE_PAIRS_CV = 2

# Fold processes of every cv call: --jobs 2 oversubscribes the two cores and
# could not be made steady (perfbench/README.md).
JOBS = 1

# Thread-count variables recorded with every run; none is set by the benchmark.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_THREAD_LIMIT",
)

# Percentiles tried, highest first, for the tail: the first with at least
# ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ``folds == 0`` marks the per-record predict loop.
    ``setups`` is how many times a run sets up, for ``setup_s``."""

    name: str
    classes: int
    records: int
    case: str
    model: str
    scheme: int
    epochs: int
    folds: int = 0
    setups: int = 9

    @property
    def is_cv(self) -> bool:
        return self.folds > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-pyramid-s1", 3, 30, "A-B-C", "M5", 1, epochs=2, folds=5),
        Workload("cv-traditional-s2", 5, 40, "AB-CD-E", "M4", 2, epochs=2, folds=4),
        Workload("predict-serial", 3, 30, "A-B-C", "M5", 1, epochs=1, setups=5),
    )
}


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    bench = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _cli(args: list) -> int:
    """``pyrseiz ARGS`` in-process; its exit code, 1 for an uncaught exception
    (as a user running the command would see)."""
    from pyrseiz import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in args])
    except Exception:  # noqa: BLE001 - the caller records the failure and goes on
        traceback.print_exc()
        return 1


def _checkpoint(work: Path) -> Path:
    (path,) = (work / "train").glob("*.ckpt")
    return path


def setup(w: Workload, seed: int, work: Path) -> dict:
    """Write the synthetic data set (and, for predict, the checkpoint and the
    reference vote logs of the library path, segment_testing ->
    predict_instance) ``w.setups`` times, timing each."""
    from pyrseiz import (define_case, get_scheme, load_bonn_root, load_checkpoint,
                         predict_instance, segment_testing)

    data = work / "data"
    times = []
    for _ in range(w.setups):
        start = time.perf_counter()
        steps = [["synth", "--classes", w.classes, "--records", w.records,
                  "--seed", seed, "--out", data]]
        if not w.is_cv:
            steps.append(["train", "--data-root", data, "--case", w.case,
                          "--scheme", w.scheme, "--model", w.model,
                          "--epochs", w.epochs, "--seed", seed, "--out", work / "train"])
        for step in steps:
            if _cli(step) != 0:
                raise RuntimeError(f"set-up step failed: pyrseiz {' '.join(map(str, step))}")
        if not w.is_cv:
            case, scheme = define_case(w.case), get_scheme(w.scheme)
            params, config = load_checkpoint(_checkpoint(work))
            reference = work / "reference"
            reference.mkdir(exist_ok=True)
            for record in load_bonn_root(data, letters=case.sets):
                votes = [predict_instance(params, config, inst, scheme)
                         for inst in segment_testing(record, case, scheme)]
                rows = [(*v.origin, v.votes, v.final, v.tie_broken) for v in votes]
                (reference / f"predict_{record.record_id}_votes.csv").write_text(
                    checks.render_vote_log(rows))
        times.append(time.perf_counter() - start)
    return {"setup_s": times}


class Loop:
    """Closed loop with one client: each call starts when the previous returns.

    With tracing, calls alternate between plain and traced (wrappers
    installed), so drift in the machine's speed affects both alike; the
    first call, plain, also warms the process and is left out of the
    comparison (the first cv call in a process runs about 8% slower).
    """

    def __init__(self, seconds: float, min_calls: int, tracing_context=None) -> None:
        self.seconds = seconds
        self.min_calls = min_calls
        self.tracing_context = tracing_context
        self.walls: list[tuple[bool, float]] = []  # (traced, seconds) per call
        self.failed_calls: set[int] = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def run(self, next_args, check) -> None:
        """Call ``pyrseiz`` with ``next_args(i)`` for the loop's seconds and at
        least its minimum number of calls; ``check(i, exit_code)`` lists problems."""
        start = time.perf_counter()
        i = 0
        while i < self.min_calls or time.perf_counter() - start < self.seconds:
            traced = self.tracing_context is not None and i % 2 == 1
            args = next_args(i)
            with self.tracing_context() if traced else contextlib.nullcontext():
                begin = time.perf_counter()
                rc = _cli(args)
                self.walls.append((traced, time.perf_counter() - begin))
            problems = check(i, rc)
            if problems:
                self.failed_calls.add(i)
                self.problems.extend(f"call {i}: {p}" for p in problems)
            i += 1


def measure_cv(w: Workload, seed: int, work: Path, loop: Loop) -> dict:
    """Repeat one ``pyrseiz cv`` call; every report must match the first."""
    args = ["cv", "--data-root", work / "data", "--case", w.case, "--scheme", w.scheme,
            "--model", w.model, "--folds", w.folds, "--epochs", w.epochs,
            "--seed", seed, "--jobs", JOBS]
    reports: list[str] = []

    def check(i: int, rc: int) -> list[str]:
        out = work / f"cv{i}"
        found = list(out.glob("cv_*.csv"))
        if rc != 0 or len(found) != 1:
            return [f"exit code {rc}, {len(found)} reports"]
        reports.append(found[0].read_text())
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
        return checks.check_cv_report(reports[-1], reports[0])

    loop.run(lambda i: args + ["--out", work / f"cv{i}"], check)
    try:
        acc, acc_v = checks.cv_report_accuracy(reports[0])
    except (IndexError, ValueError):  # no readable report: every call failed its check
        acc, acc_v = 0.0, 0.0
    return {"acc": acc, "acc_v": acc_v}


def measure_predict(w: Workload, seed: int, work: Path, loop: Loop) -> dict:
    """``pyrseiz predict`` on one record file per call, cycling over the set."""
    from pyrseiz import define_case

    case = define_case(w.case)
    records = sorted((work / "data").glob("*/*.txt"))
    checkpoint = _checkpoint(work)
    out = work / "predict"
    scores = [0, 0, 0, 0]

    def args(i: int) -> list:
        return ["predict", "--checkpoint", checkpoint, "--input", records[i % len(records)],
                "--case", w.case, "--scheme", w.scheme, "--out", out]

    def check(i: int, rc: int) -> list[str]:
        record = records[i % len(records)]
        name = f"predict_{record.stem}_votes.csv"
        log = out / name
        if rc != 0 or not log.is_file():
            return [f"exit code {rc}, no vote log"]
        text = log.read_text()
        log.unlink()
        problems = checks.check_vote_log(text, (work / "reference" / name).read_text())
        try:
            counts = checks.vote_log_scores(text, case.class_of_set[record.parent.name])
        except ValueError as exc:
            return problems + [f"unreadable vote log: {exc}"]
        for k, value in enumerate(counts):
            scores[k] += value
        return problems

    loop.run(args, check)
    acc = scores[0] / scores[1] if scores[1] else 0.0
    acc_v = scores[2] / scores[3] if scores[3] else 0.0
    return {"acc": acc, "acc_v": acc_v}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the maximum (p100) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = int(n * p / 100.0)
        if n - rank - 1 >= 10:
            return p, ordered[rank]
    return 100.0, ordered[-1]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '')})",
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def measure(w: Workload, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    """Run the closed loop; with ``trace``, every second call runs under the
    per-layer wrappers and only those calls give the per-layer figures."""
    from pyrseiz import define_case, init_parameters, model_config

    import spans

    tracing_context = None
    if trace:
        config = model_config(w.model, define_case(w.case).num_classes)
        conv_shapes = [weights.shape for weights in init_parameters(config, 0).conv_weights]
        tracer = spans.Tracer()
        trace_path = work / "trace.jsonl"

        def tracing_context():
            return spans.installed(tracer, trace_path, conv_shapes)

    # cv needs two calls to compare reports. Tracing needs a warm-up call and
    # then traced and plain calls in turn: one pair on predict, which runs
    # hundreds in its seconds, and TRACE_PAIRS_CV pairs on cv, whose calls
    # outlast the seconds, so that the fastest of each kind can be compared.
    if trace:
        min_calls = 1 + 2 * (TRACE_PAIRS_CV if w.is_cv else 1)
    else:
        min_calls = 2 if w.is_cv else 1
    loop = Loop(seconds, min_calls, tracing_context)
    scores = (measure_cv if w.is_cv else measure_predict)(w, seed, work, loop)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # the accuracy bound holds for the run as a whole, over every call's output
    run_problems = [f"run: {p}" for p in checks.check_accuracy(scores["acc"], scores["acc_v"])]
    result = {
        "correct": loop.attempted > 0 and not loop.problems and not run_problems,
        "attempted": loop.attempted,
        "failed": len(loop.failed_calls),
        "problems": run_problems + loop.problems[:20],
        "env": environment(),
    }
    if not trace:
        plain = [wall for _, wall in loop.walls]
        percentile, tail_s = tail(plain)
        result["metrics"] = {
            "call_min_ms": 1000.0 * min(plain),
            "acc": scores["acc"],
            "acc_v": scores["acc_v"],
            "peak_rss_mb": peak_kb / 1024.0,
        }
        result["latency_ms"] = {
            "p50": 1000.0 * statistics.median(plain),
            "tail": 1000.0 * tail_s,
            "tail_percentile": percentile,
            "calls": len(plain),
        }
        result["records_per_s"] = len(plain) / sum(plain)
        if w.is_cv:
            result["calls_s"] = plain
        return result
    traced = [wall for is_traced, wall in loop.walls if is_traced]
    plain = [wall for is_traced, wall in loop.walls[1:] if not is_traced]
    metrics = spans.layer_metrics(trace_path, declared_metrics("per_layer"), len(traced),
                                  sum(traced), JOBS)
    # fastest against fastest, as call_min_ms: the host's drift would
    # otherwise swamp a difference of a few percent
    overhead = min(traced) - min(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / min(plain)
    result["metrics"] = metrics
    result["missing_hooks"] = tracer.missing
    return result


def main(argv: list[str]) -> int:
    phase, name, seed, work, result_path = argv[:5]
    w = WORKLOADS[name]
    work = Path(work)
    if phase == "setup":
        result = setup(w, int(seed), work)
    else:
        result = measure(w, int(seed), work, float(argv[5]), argv[6] == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
