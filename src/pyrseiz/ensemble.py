"""Majority-vote fusion of per-window decisions over a test instance."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import write_atomic
from .network import ModelConfig, NetworkParameters, Workspace, forward
from .windowing import SchemeSpec, TestInstance

# Windows per inference pass, the rows of a classify call's one workspace. It
# bounds the activations inference holds: passes of 256 windows set much of
# the peak memory of a cv run.
INFER_BATCH = 32


@dataclass(frozen=True)
class VoteRecord:
    """Per-window votes and probabilities plus the fused decision."""

    votes: tuple[int, ...]
    probabilities: np.ndarray  # (n, num_classes)
    final: int
    tie_broken: bool
    origin: tuple[str, int] | None = None


def majority_vote(
    votes: Sequence[int], probs: Sequence[np.ndarray] | np.ndarray
) -> tuple[int, bool]:
    """Fuse expert votes: most frequent class wins.

    A count tie among leaders goes to the leader with the highest summed
    probability mass over all experts; any remaining tie goes to the lowest
    class index. ``tie_broken`` is set whenever counts alone were not decisive.
    """
    votes = list(votes)
    if not votes:
        raise ValueError("majority_vote needs at least one vote")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != len(votes):
        raise ValueError(
            f"expected one probability vector per vote, got {probs.shape} "
            f"for {len(votes)} votes"
        )
    num_classes = probs.shape[1]
    counts = np.bincount(votes, minlength=num_classes)
    top = counts.max()
    leaders = [c for c in range(num_classes) if counts[c] == top]
    if len(leaders) == 1:
        return leaders[0], False
    mass = probs.sum(axis=0)
    best = max(mass[c] for c in leaders)
    winners = [c for c in leaders if mass[c] == best]
    return winners[0], True


def classify(params: NetworkParameters, windows: np.ndarray) -> list[VoteRecord]:
    """Classify every expert window of each test instance and fuse by majority vote.

    ``windows`` is (n_instances, width, input_length). Every expert is the
    same model, and inference covers all windows in passes of at most
    INFER_BATCH through one workspace. Window votes are argmax classes (ties
    to the lowest index). The records carry no origin.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (instances, width, window) windows, got shape {x.shape}")
    n, width, length = x.shape
    probs = _infer(params, x.reshape(n * width, length)).reshape(n, width, -1)
    records = []
    for votes, instance_probs in zip(probs.argmax(axis=2).tolist(), probs):
        final, tie_broken = majority_vote(votes, instance_probs)
        records.append(
            VoteRecord(
                votes=tuple(votes),
                probabilities=instance_probs,
                final=final,
                tie_broken=tie_broken,
            )
        )
    return records


def _infer(params: NetworkParameters, windows: np.ndarray) -> np.ndarray:
    """Class probabilities of (n, input_length) windows, INFER_BATCH windows
    per pass; the last, partial pass runs on the workspace's leading rows."""
    n = len(windows)
    probs = np.empty((n, params.config.num_classes))
    workspace = Workspace(params.config, min(INFER_BATCH, n)) if n else None
    for start in range(0, n, INFER_BATCH):
        chunk = windows[start : start + INFER_BATCH]
        probs[start : start + len(chunk)], _ = forward(params, chunk, workspace.head(len(chunk)))
    return probs


def predict_instance(
    params: NetworkParameters,
    config: ModelConfig,
    instance: TestInstance,
    scheme: SchemeSpec,
) -> VoteRecord:
    """Classify each window of a test instance with the one trained model and
    fuse the window decisions by majority vote. ``config`` must be
    ``params.config``."""
    if config != params.config:
        raise ValueError("config differs from params.config, the network's own")
    width = scheme.ensemble_width
    if len(instance.windows) != width:
        raise ValueError(
            f"instance has {len(instance.windows)} windows, scheme {scheme.id} "
            f"expects {width}"
        )
    (record,) = classify(params, instance.windows[None])
    return replace(record, origin=instance.origin)


def write_vote_log(records: Iterable[VoteRecord], path: str | Path) -> None:
    """Emit per-instance vote logs as CSV, replacing the file atomically."""
    rows = ["record_id,subsignal_index,votes,final,tie_broken\n"]
    for rec in records:
        record_id, sub = rec.origin if rec.origin is not None else ("", "")
        votes = " ".join(str(v) for v in rec.votes)
        rows.append(f"{record_id},{sub},{votes},{rec.final},{str(rec.tie_broken).lower()}\n")
    write_atomic(path, "".join(rows))
