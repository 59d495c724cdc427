"""Bonn-format EEG records, experiment cases, fold plans, and synthetic data."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import write_atomic

SET_LETTERS = ("A", "B", "C", "D", "E")

# The public archive names its sets Z/O/N/F/S; A..E is the usual
# normal / normal / interictal / interictal / ictal reading.
BONN_ALIASES: dict[str, str] = {"A": "Z", "B": "O", "C": "N", "D": "F", "E": "S"}

BONN_RECORD_LENGTH = 4097
# Bonn's recordings are sampled at 173.61 Hz; synthetic records share the rate.
BONN_SAMPLE_RATE = 173.61
# Samples in a window, the network's input; a synthetic record holds one at least.
WINDOW_SIZE = 512
MIN_RECORD_LENGTH = WINDOW_SIZE


@dataclass(frozen=True)
class EegRecord:
    """One single-channel EEG signal plus its set label and record index.

    Immutable after construction; the sample array is copied and marked
    read-only so records can be shared across parallel workers. A nan or inf
    sample raises ValueError.
    """

    set_label: str
    index: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.set_label not in SET_LETTERS:
            raise ValueError(
                f"unknown set label {self.set_label!r}; expected one of {SET_LETTERS}"
            )
        if self.index < 1:
            raise ValueError(f"record index must be >= 1, got {self.index}")
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not np.isfinite(samples).all():
            raise ValueError(f"record {self.record_id} has a non-finite (nan or inf) sample")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def record_id(self) -> str:
        return f"{self.set_label}{self.index:03d}"

    def __len__(self) -> int:
        return int(self.samples.size)


def read_samples(path: str | Path, expected_length: int) -> np.ndarray:
    """Parse a sample file: plain text, one sample per line, blank lines skipped.

    A non-numeric or non-finite (nan, inf) sample raises with its
    ``path:line``, and a file that is not UTF-8 text raises with its path;
    nothing downstream can classify such a signal. So does a sample count
    other than ``expected_length``: the window arithmetic downstream assumes
    the exact length, so a record is never truncated or padded.
    """
    samples = _parse_samples(Path(path))
    if samples.size != expected_length:
        raise ValueError(
            f"{path}: wrong length, expected {expected_length} samples, found {samples.size}"
        )
    return samples


def _parse_samples(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"sample file not found: {path}")
    # One pass over the whole text. Lines are split on "\n" as file iteration
    # splits them (str.splitlines would also split on \x0c, \x1c, \x85, ...).
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a UTF-8 text sample file") from None
    if lines[-1] == "":
        lines.pop()
    try:  # the loop's float() rule, in one call while no line is blank or bad
        values = np.fromiter(map(float, lines), np.float64, len(lines))
    except ValueError:
        pass  # a blank or bad line: the loop below skips or names it
    else:
        if np.isfinite(values).all():
            return values
    samples: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric sample {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite sample {text!r}")
        samples.append(value)
    return np.array(samples, dtype=np.float64)


def load_record(
    path: str | Path,
    set_label: str,
    index: int,
    expected_length: int = BONN_RECORD_LENGTH,
) -> EegRecord:
    """Parse one Bonn-format record file of ``expected_length`` samples
    (see ``read_samples``)."""
    samples = read_samples(path, expected_length)
    return EegRecord(set_label=set_label, index=index, samples=samples)


def save_record(record: EegRecord, path: str | Path) -> None:
    """Write a record in Bonn file format, 17 significant digits per sample,
    replacing the file atomically."""
    write_atomic(path, "\n".join(format(v, ".17g") for v in record.samples.tolist()) + "\n")


@dataclass(frozen=True)
class ExperimentCase:
    """Mapping from set letters to class indices for one classification problem."""

    name: str
    class_of_set: dict[str, int]
    num_classes: int

    @property
    def sets(self) -> tuple[str, ...]:
        return tuple(sorted(self.class_of_set))

    def group_letters(self, class_index: int) -> str:
        """Set letters belonging to one class, e.g. 'AB' for class 0 of AB-CD-E."""
        return "".join(
            s for s in SET_LETTERS if self.class_of_set.get(s) == class_index
        )


def define_case(spec: str) -> ExperimentCase:
    """Build an ExperimentCase from a group spec like 'AB-CD-E' or 'A-E'.

    Each dash-separated group of set letters becomes one class; class index
    equals the group's position in the spec.
    """
    groups = spec.strip().upper().split("-")
    if len(groups) < 2:
        raise ValueError(f"case spec {spec!r} needs at least two groups")
    class_of_set: dict[str, int] = {}
    for class_index, group in enumerate(groups):
        if not group:
            raise ValueError(f"case spec {spec!r} contains an empty group")
        for letter in group:
            if letter not in SET_LETTERS:
                raise ValueError(
                    f"unknown set letter {letter!r} in case spec {spec!r}"
                )
            if letter in class_of_set:
                raise ValueError(
                    f"set letter {letter!r} appears twice in case spec {spec!r}"
                )
            class_of_set[letter] = class_index
    return ExperimentCase(
        name="-".join(groups), class_of_set=class_of_set, num_classes=len(groups)
    )


@dataclass(frozen=True)
class FoldPlan:
    """Per-set partition of record indices into k disjoint test groups.

    Every set has exactly k nonempty chunks and no record appears twice among
    them, so every fold tests and trains on each set, never on the same record.
    """

    k: int
    seed: int
    assignments: dict[str, tuple[tuple[int, ...], ...]]

    def __post_init__(self) -> None:
        for group, chunks in sorted(self.assignments.items()):
            if len(chunks) != self.k:
                raise ValueError(f"set {group} has {len(chunks)} chunks, not k={self.k}")
            for fold, chunk in enumerate(chunks, start=1):
                if not chunk:
                    raise ValueError(f"set {group} has no test records in fold {fold}")
            counts = Counter(i for chunk in chunks for i in chunk)
            repeated = sorted(i for i, n in counts.items() if n > 1)
            if repeated:
                raise ValueError(f"records {group}{repeated} appear twice in the fold plan")

    def test_ids(self, group: str, fold: int) -> tuple[int, ...]:
        return self.assignments[group][fold]

    def train_ids(self, group: str, fold: int) -> tuple[int, ...]:
        chunks = self.assignments[group]
        out: list[int] = []
        for i, chunk in enumerate(chunks):
            if i != fold:
                out.extend(chunk)
        return tuple(out)


def plan_folds(
    ids_by_group: Mapping[str, Sequence[int]], k: int, seed: int
) -> FoldPlan:
    """Stratified k-fold partition, deterministic for a given seed.

    Each group's ids are shuffled with a seeded generator and sliced into k
    near-equal chunks (groups are processed in sorted order so the plan does
    not depend on mapping order).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    # the smallest set bounds k (the first in letter order on a tie)
    sizes = {group: len(ids) for group, ids in sorted(ids_by_group.items())}
    fewest = min(sizes, key=sizes.__getitem__, default=None)
    if fewest is not None and sizes[fewest] < k:
        raise ValueError(
            f"k must be at most {sizes[fewest]}, the number of records in set {fewest}, got {k}"
        )
    rng = np.random.default_rng(seed)
    assignments: dict[str, tuple[tuple[int, ...], ...]] = {}
    for group in sorted(ids_by_group):
        ids = sorted(ids_by_group[group])
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        base, extra = divmod(len(ids), k)
        chunks: list[tuple[int, ...]] = []
        start = 0
        for fold in range(k):
            size = base + (1 if fold < extra else 0)
            chunks.append(tuple(shuffled[start : start + size]))
            start += size
        assignments[group] = tuple(chunks)
    return FoldPlan(k=k, seed=seed, assignments=assignments)


# Sinusoids summed into each synthetic record, and its default noise scale.
SYNTH_COMPONENTS = 3
SYNTH_NOISE_LEVEL = 0.05

# Well-separated default bands (Hz) for synthetic classes, low to high, one
# per set letter.
SYNTH_BANDS = (
    (2.0, 4.0),
    (8.0, 12.0),
    (20.0, 30.0),
    (35.0, 45.0),
    (55.0, 65.0),
)


@dataclass(frozen=True)
class BandSpec:
    """Frequency band (Hz) one synthetic class draws its sinusoids from."""

    low_hz: float
    high_hz: float

    def __post_init__(self) -> None:
        if not 0.0 < self.low_hz < self.high_hz:
            raise ValueError(
                f"need 0 < low_hz < high_hz, got ({self.low_hz}, {self.high_hz})"
            )


def synth_profiles(num_classes: int) -> list[BandSpec]:
    """The bands of the first ``num_classes`` of ``SYNTH_BANDS``: classes
    A, B, ... of the synthetic dataset ``pyrseiz synth`` writes."""
    if not 2 <= num_classes <= len(SYNTH_BANDS):
        raise ValueError(f"num_classes must be in [2, {len(SYNTH_BANDS)}], got {num_classes}")
    return [BandSpec(low, high) for low, high in SYNTH_BANDS[:num_classes]]


def synthesize_dataset(
    num_records_per_class: int,
    class_profiles: Sequence[BandSpec],
    length: int = BONN_RECORD_LENGTH,
    noise_level: float = SYNTH_NOISE_LEVEL,
    seed: int = 0,
) -> list[EegRecord]:
    """Generate a labeled desk-scale dataset of band-limited sinusoid mixtures.

    Class i is assigned set letter SET_LETTERS[i]. Each record, sampled at
    BONN_SAMPLE_RATE, sums SYNTH_COMPONENTS sinusoids with frequencies drawn
    uniformly from the class band (amplitudes in [0.5, 1.5), random phases)
    plus white Gaussian noise scaled by ``noise_level``. Bitwise-deterministic
    for fixed arguments.
    """
    profiles = list(class_profiles)
    if num_records_per_class < 1:
        raise ValueError(f"num_records_per_class must be >= 1, got {num_records_per_class}")
    if len(profiles) < 2:
        raise ValueError("need at least two class profiles")
    if len(profiles) > len(SET_LETTERS):
        raise ValueError(f"at most {len(SET_LETTERS)} class profiles supported")
    if length < MIN_RECORD_LENGTH:
        raise ValueError(f"length must be >= {MIN_RECORD_LENGTH}, got {length}")
    if not (math.isfinite(noise_level) and noise_level >= 0):
        raise ValueError(f"noise_level must be finite and >= 0, got {noise_level}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64) / BONN_SAMPLE_RATE
    records: list[EegRecord] = []
    for class_index, band in enumerate(profiles):
        letter = SET_LETTERS[class_index]
        for index in range(1, num_records_per_class + 1):
            freqs = rng.uniform(band.low_hz, band.high_hz, size=SYNTH_COMPONENTS)
            amps = rng.uniform(0.5, 1.5, size=SYNTH_COMPONENTS)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=SYNTH_COMPONENTS)
            signal = np.zeros(length, dtype=np.float64)
            for f, a, p in zip(freqs, amps, phases):
                signal += a * np.sin(2.0 * np.pi * f * t + p)
            signal += noise_level * rng.standard_normal(length)
            records.append(EegRecord(set_label=letter, index=index, samples=signal))
    return records


def _set_directory(root: Path, letter: str) -> Path | None:
    alias = BONN_ALIASES.get(letter, letter)
    for name in (letter, letter.lower(), alias, alias.lower()):
        candidate = root / name
        if candidate.is_dir():
            return candidate
    return None


def _record_index(stem: str, fallback: int) -> int:
    digits = re.findall(r"\d+", stem)
    return int(digits[-1]) if digits else fallback


def load_bonn_set(
    root: str | Path,
    letter: str,
    expected_length: int = BONN_RECORD_LENGTH,
) -> list[EegRecord]:
    """Load every record of one set from a Bonn-layout directory tree.

    Set directories may be named by letter (A..E) or by the archive's native
    prefix (Z/O/N/F/S); record indices are parsed from filename digits.
    Hidden entries (names starting with ".") are skipped, among them the
    temporaries an interrupted ``write_atomic`` leaves behind.
    """
    root = Path(root)
    set_dir = _set_directory(root, letter)
    if set_dir is None:
        raise FileNotFoundError(
            f"no directory for set {letter} (or alias {BONN_ALIASES.get(letter)}) under {root}"
        )
    files = sorted(
        p for p in set_dir.iterdir() if p.is_file() and not p.name.startswith(".")
    )
    if not files:
        raise FileNotFoundError(f"set directory {set_dir} contains no record files")
    records = []
    seen: set[int] = set()
    for position, path in enumerate(files, start=1):
        index = _record_index(path.stem, position)
        if index in seen:
            raise ValueError(f"duplicate record index {index} in {set_dir}")
        seen.add(index)
        records.append(load_record(path, letter, index, expected_length))
    records.sort(key=lambda r: r.index)
    return records


def load_bonn_root(
    root: str | Path,
    letters: Iterable[str] = SET_LETTERS,
    expected_length: int = BONN_RECORD_LENGTH,
) -> list[EegRecord]:
    """Load the requested sets from a Bonn-layout directory tree."""
    records: list[EegRecord] = []
    for letter in letters:
        records.extend(load_bonn_set(root, letter, expected_length))
    return records


def write_bonn_dataset(records: Iterable[EegRecord], root: str | Path) -> list[Path]:
    """Write records as ``<root>/<letter>/<letter><index>.txt`` Bonn files."""
    root = Path(root)
    paths = []
    for record in records:
        path = root / record.set_label / f"{record.record_id}.txt"
        save_record(record, path)
        paths.append(path)
    return paths


def ids_by_set(records: Iterable[EegRecord]) -> dict[str, list[int]]:
    """Record indices grouped by set letter, each list sorted."""
    out: dict[str, list[int]] = {}
    for record in records:
        out.setdefault(record.set_label, []).append(record.index)
    for ids in out.values():
        ids.sort()
    return out
