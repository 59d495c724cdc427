"""Versioned checkpoints: config echo, training header, learnable tensors, BN running stats.

Layout of ``p1dcnn-v2``, the version written:

    p1dcnn-v2
    config <key> <values...>          (one line per ModelConfig field,
                                       in declaration order)
    case <spec>                       (optional: the case the model was trained on)
    scheme <id>                       (optional: its windowing scheme)
    tensor <name> <dim> [<dim>...]    followed by one line holding the values,
    <base64>                          row-major, as little-endian float64 bytes
    ...
    end

``p1dcnn-v1`` files, which have no ``case``/``scheme`` lines and hold each
tensor as whitespace-separated decimals (17 significant digits), still load.
Round trips are bitwise exact, and every value must be finite.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .artifacts import write_atomic
from .dataset import define_case
from .network import ModelConfig, NetworkParameters, count_parameters
from .windowing import get_scheme

CHECKPOINT_VERSION = "p1dcnn-v2"
_DECIMAL_VERSION = "p1dcnn-v1"

# Each config value is read back with the type of its field's default.
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)}


class CheckpointError(ValueError):
    """Raised for version mismatches and header/shape/value corruption."""


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: the parameters, their config, and the case spec
    and scheme id the model was trained with (``None`` when the file does not
    record them, as in every v1 file).

    It unpacks as ``params, config = load_checkpoint(path)``.
    """

    params: NetworkParameters
    config: ModelConfig
    case: str | None = None
    scheme: int | None = None

    def __iter__(self):
        return iter((self.params, self.config))


def save_checkpoint(
    params: NetworkParameters,
    config: ModelConfig,
    path: str | Path,
    case: str | None = None,
    scheme: int | None = None,
) -> None:
    """Write parameters, their config and, when given, the case spec and
    scheme id they were trained with; the on-disk order is fixed and the file
    is replaced atomically. ``config`` must be ``params.config``; nothing is
    written when it is not."""
    if config != params.config:
        raise ValueError("config differs from params.config, the network's own")
    lines = [CHECKPOINT_VERSION]
    for key, value in asdict(config).items():
        values = value if isinstance(value, tuple) else (value,)
        lines.append(f"config {key} " + " ".join(format(v, ".17g") for v in values))
    if case is not None:
        lines.append(f"case {define_case(case).name}")
    if scheme is not None:
        lines.append(f"scheme {get_scheme(scheme).id}")
    for name, tensor in params.tensors.items():
        lines.append(f"tensor {name} " + " ".join(str(d) for d in tensor.shape))
        raw = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
        lines.append(base64.b64encode(raw).decode("ascii"))
    lines.append("end")
    write_atomic(path, "\n".join(lines) + "\n")


def _parse_config(path: Path, lines: list[str], pos: int) -> tuple[ModelConfig, int]:
    """The ``config`` lines from ``lines[pos]`` on: the config and the
    position after them. Every field appears once, a scalar with one value,
    and every value is spelled as ``format(value, ".17g")`` spells it."""
    values: dict[str, object] = {}
    while pos < len(lines) and lines[pos].startswith("config "):
        parts = lines[pos].split()
        default = _CONFIG_DEFAULTS.get(parts[1]) if len(parts) > 2 else None
        scalar = not isinstance(default, tuple)
        if default is None or parts[1] in values or (scalar and len(parts) != 3):
            raise CheckpointError(
                f"{path}: malformed, unknown or repeated config line {lines[pos]!r}"
            )
        convert = type(default) if scalar else type(default[0])
        try:
            parsed = [convert(token) for token in parts[2:]]
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from None
        # int() and float() also take '5_12', '+20', '03', '0.50' and non-ASCII
        # digits; a file as save_checkpoint writes it has none of these
        for token, value in zip(parts[2:], parsed):
            if token != format(value, ".17g"):
                raise CheckpointError(
                    f"{path}: non-canonical value {token!r} in config line {lines[pos]!r}"
                )
        values[parts[1]] = parsed[0] if scalar else tuple(parsed)
        pos += 1
    missing = [key for key in _CONFIG_DEFAULTS if key not in values]
    if missing:
        raise CheckpointError(f"{path}: checkpoint config is missing {missing}")
    try:
        return ModelConfig(**values), pos
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from None


def _parse_training_header(
    path: Path, entries: dict[str, str], config: ModelConfig
) -> tuple[str | None, int | None]:
    """The ``case`` and ``scheme`` header values, checked against the config."""
    case = entries.get("case")
    scheme = entries.get("scheme")
    try:
        if case is not None:
            spec = define_case(case)
            if spec.name != case or spec.num_classes != config.num_classes:
                raise ValueError(
                    f"case {case!r} does not name {config.num_classes} classes "
                    "in canonical form"
                )
        if scheme is not None:
            scheme = get_scheme(scheme).id
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid training header: {exc}") from None
    return case, scheme


def _decimal_block(
    path: Path, lines: list[str], pos: int, name: str, count: int
) -> tuple[np.ndarray, int]:
    """v1: whitespace-separated decimals from ``lines[pos]`` on, possibly over
    several lines; the values and the position after the block."""
    values: list[float] = []
    while len(values) < count:
        if pos >= len(lines):
            raise CheckpointError(f"{path}: truncated while reading tensor {name}")
        for token in lines[pos].split():
            try:
                values.append(float(token))
            except ValueError:
                raise CheckpointError(
                    f"{path}: non-numeric value {token!r} in tensor {name}"
                ) from None
        pos += 1
    if len(values) != count:
        raise CheckpointError(
            f"{path}: tensor {name} has {len(values)} values, expected {count}"
        )
    return np.array(values, dtype=np.float64), pos


def _base64_block(
    path: Path, lines: list[str], pos: int, name: str, count: int
) -> tuple[np.ndarray, int]:
    """v2: one line of base64 holding exactly ``count`` little-endian float64s."""
    if pos >= len(lines):
        raise CheckpointError(f"{path}: truncated while reading tensor {name}")
    try:
        raw = base64.b64decode(lines[pos].strip(), validate=True)
    except (binascii.Error, ValueError):
        raise CheckpointError(f"{path}: invalid base64 in tensor {name}") from None
    if len(raw) != 8 * count:
        raise CheckpointError(
            f"{path}: tensor {name} has {len(raw)} bytes, expected {8 * count}"
        )
    return np.frombuffer(raw, dtype="<f8"), pos + 1


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a v2 or v1 checkpoint; truncated or corrupt files raise, never
    load partially."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: not a text checkpoint") from None
    lines = text.splitlines()
    version = lines[0].strip() if lines else "<empty file>"
    if version == CHECKPOINT_VERSION:
        read_block = _base64_block
        header_keys: tuple[str, ...] = ("case", "scheme")
    elif version == _DECIMAL_VERSION:
        read_block = _decimal_block
        header_keys = ()
    else:
        raise CheckpointError(
            f"{path}: version mismatch, expected {CHECKPOINT_VERSION!r} or "
            f"{_DECIMAL_VERSION!r}, found {version!r}"
        )
    config, pos = _parse_config(path, lines, 1)
    header: dict[str, str] = {}
    while pos < len(lines) and lines[pos].split(" ", 1)[0] in header_keys:
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] in header:
            raise CheckpointError(f"{path}: malformed or repeated header line {lines[pos]!r}")
        header[parts[0]] = parts[1]
        pos += 1
    case, scheme = _parse_training_header(path, header, config)
    if 2 * count_parameters(config) > len(text):  # below one digit and a separator each
        raise CheckpointError(
            f"{path}: truncated, too short for the {count_parameters(config)} "
            "values its config implies"
        )
    params = NetworkParameters(config)  # zeros until each tensor is read into its view

    seen: set[str] = set()
    while pos < len(lines):
        line = lines[pos].strip()
        if line == "end":
            pos += 1
            break
        parts = line.split()
        if not parts or parts[0] != "tensor":
            raise CheckpointError(f"{path}: expected a tensor header, found {line!r}")
        if len(parts) < 3:
            raise CheckpointError(f"{path}: malformed tensor header {line!r}")
        name = parts[1]
        tensor = params.tensors.get(name)
        if tensor is None:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if name in seen:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        try:
            shape = tuple(int(d) for d in parts[2:])
        except ValueError:
            raise CheckpointError(f"{path}: non-integer dimension in {line!r}") from None
        if shape != tensor.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, config implies {tensor.shape}"
            )
        values, pos = read_block(path, lines, pos + 1, name, tensor.size)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name} has a non-finite (nan or inf) value")
        tensor.reshape(-1)[:] = values
        seen.add(name)
    else:
        raise CheckpointError(f"{path}: truncated, missing 'end' marker")
    if any(lines[p].strip() for p in range(pos, len(lines))):
        raise CheckpointError(f"{path}: trailing content after 'end' marker")
    missing = sorted(set(params.tensors) - seen)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {missing}")
    return Checkpoint(params, config, case, scheme)
