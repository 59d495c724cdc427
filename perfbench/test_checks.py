"""Self-test of the output checks: corrupted outputs must be rejected.

Run with ``python3 -m pytest perfbench/test_checks.py``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

REPORT = (
    "case,scheme,model,fold,acc,acc_v,sen,spe,precision,f_m,g_m,ties\n"
    "A-B-C,1,M5,1,1.0,1.0,1.0,1.0,1.0,1.0,1.0,0\n"
    "A-B-C,1,M5,mean,0.95,0.9166666666666666,1.0,1.0,1.0,1.0,1.0,0\n"
)
VOTE_LOG = (
    "record_id,subsignal_index,votes,final,tie_broken\n"
    "B007,0,1 1 1,1,false\n"
    "B007,1,1 0 1,1,false\n"
    "B007,2,1 1 1,1,false\n"
    "B007,3,1 1 2,1,false\n"
)


def test_good_outputs_pass():
    rows = [("B007", 0, (1, 1, 1), 1, False), ("B007", 1, (1, 0, 1), 1, False),
            ("B007", 2, (1, 1, 1), 1, False), ("B007", 3, (1, 1, 2), 1, False)]
    assert checks.render_vote_log(rows) == VOTE_LOG
    assert checks.check_cv_report(REPORT, REPORT) == []
    assert checks.check_vote_log(VOTE_LOG, VOTE_LOG) == []
    assert checks.vote_log_scores(VOTE_LOG, 1) == (10, 12, 4, 4)


def test_sub_bound_accuracy_is_rejected():
    low = REPORT.replace("mean,0.95,", "mean,0.85,")
    problems = checks.check_cv_report(low, low)
    assert problems == ["window accuracy 0.8500 is below 0.9"]
    assert checks.check_accuracy(0.95, 0.8999) == ["voted accuracy 0.8999 is below 0.9"]


def test_report_that_is_not_byte_identical_is_rejected():
    other = REPORT.replace("0.9166666666666666", "0.9166666666666667")
    assert checks.check_cv_report(other, REPORT) == [
        "report differs from the first report of this seed"
    ]


def test_corrupted_vote_log_is_rejected():
    corrupted = VOTE_LOG.replace("B007,1,1 0 1,1", "B007,1,1 0 0,0")
    assert checks.check_vote_log(corrupted, VOTE_LOG) != []
    windows_ok, windows, instances_ok, instances = checks.vote_log_scores(corrupted, 1)
    assert instances_ok / instances < checks.ACCURACY_BOUND

