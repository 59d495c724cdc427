import os

import pytest

from pyrseiz.artifacts import write_atomic


def test_writes_text_and_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "report.csv"
    assert write_atomic(path, "x,y\n1,2\n") == path
    assert path.read_text() == "x,y\n1,2\n"
    assert os.listdir(path.parent) == ["report.csv"]


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "votes.csv"
    write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "new, then a lone surrogate \udcff")  # fails mid-write
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["votes.csv"]


def test_file_mode_is_that_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    write_atomic(tmp_path / "atomic.txt", "x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode
