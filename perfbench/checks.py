"""Output checks of the benchmark: report accuracy, byte identity, vote logs.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

# Window (acc) and voted (acc_v) accuracy a run must reach: the C6 bound.
ACCURACY_BOUND = 0.90

VOTE_LOG_HEADER = "record_id,subsignal_index,votes,final,tie_broken"


def check_accuracy(acc: float, acc_v: float, bound: float = ACCURACY_BOUND) -> list[str]:
    problems = []
    if not acc >= bound:
        problems.append(f"window accuracy {acc:.4f} is below {bound}")
    if not acc_v >= bound:
        problems.append(f"voted accuracy {acc_v:.4f} is below {bound}")
    return problems


def cv_report_accuracy(report: str) -> tuple[float, float]:
    """(acc, acc_v) of the mean row of a CSV cross-validation report."""
    lines = report.strip().splitlines()
    header = lines[0].split(",")
    mean = lines[-1].split(",")
    if mean[header.index("fold")] != "mean":
        raise ValueError("report has no mean row")
    return float(mean[header.index("acc")]), float(mean[header.index("acc_v")])


def check_cv_report(report: str, first_report: str) -> list[str]:
    """A report passes when it repeats the run's first report byte for byte
    and its mean accuracies reach the bound."""
    problems = []
    if report != first_report:
        problems.append("report differs from the first report of this seed")
    try:
        acc, acc_v = cv_report_accuracy(report)
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable report: {exc}"]
    return problems + check_accuracy(acc, acc_v)


def vote_log_scores(log: str, true_class: int) -> tuple[int, int, int, int]:
    """(windows correct, windows, instances correct, instances) of a vote log."""
    lines = log.strip().splitlines()
    if not lines or lines[0] != VOTE_LOG_HEADER:
        raise ValueError("vote log header is missing")
    windows_ok = windows = instances_ok = instances = 0
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"malformed vote log row {line!r}")
        cast = [int(v) for v in fields[2].split()]
        final = fields[3]
        windows += len(cast)
        windows_ok += sum(v == true_class for v in cast)
        instances += 1
        instances_ok += int(final) == true_class
    return windows_ok, windows, instances_ok, instances


def render_vote_log(rows) -> str:
    """The vote-log CSV of ``(record_id, subsignal_index, votes, final,
    tie_broken)`` rows in the documented format, written here rather than by
    the program so that the program's own writer is checked too."""
    lines = [VOTE_LOG_HEADER]
    for record_id, sub, votes, final, tie_broken in rows:
        lines.append(f"{record_id},{sub},{' '.join(map(str, votes))},{final},"
                     f"{str(tie_broken).lower()}")
    return "\n".join(lines) + "\n"


def check_vote_log(log: str, reference: str) -> list[str]:
    """A predict vote log passes when it equals the library-path reference."""
    if log != reference:
        return ["vote log differs from the segment_testing/predict_instance reference"]
    return []
