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
The loader reads the lines in the order the writer writes them, and takes a
line only if spelling back what it read gives that exact line: a v2 file
loads only if saving what it holds writes its bytes back. Round trips are
bitwise exact, and every value must be finite.
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


def _case_name(spec: str, config: ModelConfig) -> str:
    case = define_case(spec)
    if case.num_classes != config.num_classes:
        raise ValueError(f"case {spec!r} does not name {config.num_classes} classes")
    return case.name


# The optional training header, one ``<key> <value>`` line per row in this
# order, v2 only. Each row maps a value, or the text after the key, to the
# canonical value whose str() the line holds; the keys are Checkpoint fields.
_TRAINING_LINES = {
    "case": _case_name,
    "scheme": lambda scheme, config: get_scheme(scheme).id,
}


def _config_line(key: str, value) -> str:
    values = value if isinstance(value, tuple) else (value,)
    return f"config {key} " + " ".join(format(v, ".17g") for v in values)


def _tensor_line(name: str, shape: tuple[int, ...]) -> str:
    return f"tensor {name} " + " ".join(str(d) for d in shape)


def save_checkpoint(
    params: NetworkParameters,
    config: ModelConfig,
    path: str | Path,
    case: str | None = None,
    scheme: int | None = None,
) -> None:
    """Write parameters, their config and, when given, the case spec and
    scheme id they were trained with; the on-disk order is fixed and the file
    is replaced atomically. ``config`` must be ``params.config`` and a case
    must name its ``num_classes`` classes; nothing is written otherwise."""
    if config != params.config:
        raise ValueError("config differs from params.config, the network's own")
    training = {"case": case, "scheme": scheme}
    lines = [CHECKPOINT_VERSION]
    lines += [_config_line(key, value) for key, value in asdict(config).items()]
    for key, canonical in _TRAINING_LINES.items():
        if training[key] is not None:
            lines.append(f"{key} {canonical(training[key], config)}")
    for name, tensor in params.tensors.items():
        lines.append(_tensor_line(name, tensor.shape))
        raw = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
        lines.append(base64.b64encode(raw).decode("ascii"))
    lines.append("end")
    write_atomic(path, "\n".join(lines) + "\n")


def _spelled_back(path: Path, line: str, spelling: str) -> None:
    # int(), float() and get_scheme() also take '5_12', '+20', '03', '0.50'
    # and non-ASCII digits; a file as save_checkpoint writes it has none
    if line != spelling:
        raise CheckpointError(
            f"{path}: non-canonical value in header line {line!r}, written as {spelling!r}"
        )


def _parse_config(path: Path, lines: list[str]) -> ModelConfig:
    """The config from the lines after the version line, one ``config`` line
    per field in field order."""
    values: dict[str, object] = {}
    for line, (key, default) in zip(lines[1:], _CONFIG_DEFAULTS.items()):
        prefix = f"config {key} "
        if not line.startswith(prefix):
            raise CheckpointError(f"{path}: checkpoint config is missing {[key]}, found {line!r}")
        scalar = not isinstance(default, tuple)
        convert = type(default) if scalar else type(default[0])
        try:
            parsed = tuple(convert(token) for token in line[len(prefix) :].split(" "))
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: invalid checkpoint config line {line!r}: {exc}"
            ) from None
        values[key] = parsed[0] if scalar else parsed
        _spelled_back(path, line, _config_line(key, values[key]))
    try:
        return ModelConfig(**values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from None


def _decimal_block(
    path: Path, lines: list[str], pos: int, name: str, count: int
) -> tuple[np.ndarray, int]:
    """v1: whitespace-separated decimals from ``lines[pos]`` on, possibly over
    several lines; the values and the position after the block."""
    values: list[float] = []
    while len(values) < count:  # the file's 'end' line stops it as non-numeric
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
    try:
        raw = base64.b64decode(lines[pos], validate=True)
    except (binascii.Error, ValueError):
        raw = None
    # b64decode also takes set padding bits and surplus '=' in the last four
    # characters, which b64encode never writes; the rest is spelled one way
    if raw is None or lines[pos][-4:] != base64.b64encode(raw[-(len(raw) % 3 or 3) :]).decode():
        raise CheckpointError(f"{path}: invalid base64 in tensor {name}")
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
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: not a text checkpoint") from None
    lines = text.split("\n")
    if lines[0] == CHECKPOINT_VERSION:
        read_block, training = _base64_block, _TRAINING_LINES
    elif lines[0] == _DECIMAL_VERSION:
        read_block, training = _decimal_block, {}
    else:
        raise CheckpointError(
            f"{path}: version mismatch, expected {CHECKPOINT_VERSION!r} or "
            f"{_DECIMAL_VERSION!r}, found {lines[0]!r}"
        )
    # No parse below takes the line 'end', so none reads past it.
    if not text.endswith("\nend\n"):
        raise CheckpointError(f"{path}: truncated or extended, 'end' is not its last line")
    config = _parse_config(path, lines)
    pos, header = 1 + len(_CONFIG_DEFAULTS), {}
    for key, canonical in training.items():
        if lines[pos].startswith(f"{key} "):
            try:
                header[key] = canonical(lines[pos][len(key) + 1 :], config)
            except ValueError as exc:
                raise CheckpointError(
                    f"{path}: invalid training header line {lines[pos]!r}: {exc}"
                ) from None
            _spelled_back(path, lines[pos], f"{key} {header[key]}")
            pos += 1
    if 2 * count_parameters(config) > len(text):  # below one digit and a separator each
        raise CheckpointError(
            f"{path}: truncated, too short for the {count_parameters(config)} "
            "values its config implies"
        )
    params = NetworkParameters(config)  # zeros until each tensor is read into its view
    for name, tensor in params.tensors.items():
        spelling = _tensor_line(name, tensor.shape)
        if lines[pos] != spelling:
            raise CheckpointError(
                f"{path}: missing tensors {[name]}: expected a tensor header with its "
                f"name and shape, {spelling!r}, found {lines[pos]!r}"
            )
        values, pos = read_block(path, lines, pos + 1, name, tensor.size)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name} has a non-finite (nan or inf) value")
        tensor.reshape(-1)[:] = values
    if lines[pos:] != ["end", ""]:
        raise CheckpointError(
            f"{path}: expected the last line, 'end', after the last tensor, found {lines[pos]!r}"
        )
    return Checkpoint(params, config, **header)
