"""Majority-vote fusion of per-window decisions over a test instance."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .network import ModelConfig, NetworkParameters, forward
from .windowing import SchemeSpec, TestInstance

# Windows per inference pass. It bounds the activations one pass holds: a
# fold's whole test set run as one batch set the peak memory of a cv run.
INFER_BATCH = 256


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


def classify(
    params: NetworkParameters | Sequence[NetworkParameters],
    config: ModelConfig,
    windows: np.ndarray,
) -> list[VoteRecord]:
    """Classify every expert window of each test instance and fuse by majority vote.

    ``windows`` is (n_instances, width, input_length). With one parameter
    set every expert is the same model and inference covers all windows in
    passes of at most INFER_BATCH; a sequence of ``width`` parameter sets
    runs independently trained experts, expert j on window j of every
    instance. Window votes are argmax classes (ties to the lowest index).
    The records carry no origin.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (instances, width, window) windows, got shape {x.shape}")
    n, width, length = x.shape
    if isinstance(params, NetworkParameters):
        probs = _infer(params, config, x.reshape(n * width, length)).reshape(n, width, -1)
    else:
        experts = list(params)
        if len(experts) != width:
            raise ValueError(
                f"got {len(experts)} expert parameter sets for {width} windows per instance"
            )
        probs = np.stack([_infer(p, config, x[:, j]) for j, p in enumerate(experts)], axis=1)
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


def _infer(params: NetworkParameters, config: ModelConfig, windows: np.ndarray) -> np.ndarray:
    """Class probabilities of (n, input_length) windows, INFER_BATCH windows per pass."""
    chunks = [
        forward(config, params, windows[start : start + INFER_BATCH], training=False)[0]
        for start in range(0, len(windows), INFER_BATCH)
    ]
    return np.concatenate(chunks) if chunks else np.empty((0, config.num_classes))


def predict_instance(
    params: NetworkParameters | Sequence[NetworkParameters],
    config: ModelConfig,
    instance: TestInstance,
    scheme: SchemeSpec,
) -> VoteRecord:
    """Classify each window of a test instance and fuse by majority vote.

    By default every expert is the same trained model; passing a sequence of
    parameter sets (one per expert) runs independently trained experts
    instead.
    """
    width = scheme.ensemble_width
    if len(instance.windows) != width:
        raise ValueError(
            f"instance has {len(instance.windows)} windows, scheme {scheme.id} "
            f"expects {width}"
        )
    (record,) = classify(params, config, instance.windows[None])
    return replace(record, origin=instance.origin)


def write_vote_log(records: Iterable[VoteRecord], path: str | Path) -> None:
    """Emit per-instance vote logs as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("record_id,subsignal_index,votes,final,tie_broken\n")
        for rec in records:
            record_id, sub = rec.origin if rec.origin is not None else ("", "")
            votes = " ".join(str(v) for v in rec.votes)
            fh.write(f"{record_id},{sub},{votes},{rec.final},{str(rec.tie_broken).lower()}\n")
