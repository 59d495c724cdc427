"""Versioned text checkpoints: config echo, learnable tensors, BN running stats.

Layout:

    p1dcnn-v1
    config <key> <values...>          (seven keys, fixed order)
    tensor <name> <dim> [<dim>...]    followed by the values, row-major,
    <whitespace-separated decimals>   17 significant digits
    ...
    end

Round trips are value-exact for float64.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .network import ModelConfig, NetworkParameters, parameter_shapes

CHECKPOINT_VERSION = "p1dcnn-v1"

_CONFIG_KEYS = (
    "kernel_counts",
    "receptive_fields",
    "strides",
    "fc1_width",
    "dropout_rate",
    "num_classes",
    "input_length",
)


class CheckpointError(ValueError):
    """Raised for version mismatches and header/shape/value corruption."""


def save_checkpoint(
    params: NetworkParameters, config: ModelConfig, path: str | Path
) -> None:
    """Write parameters and their config; the on-disk order is fixed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CHECKPOINT_VERSION]
    lines.append("config kernel_counts " + " ".join(str(v) for v in config.kernel_counts))
    lines.append(
        "config receptive_fields " + " ".join(str(v) for v in config.receptive_fields)
    )
    lines.append("config strides " + " ".join(str(v) for v in config.strides))
    lines.append(f"config fc1_width {config.fc1_width}")
    lines.append(f"config dropout_rate {format(config.dropout_rate, '.17g')}")
    lines.append(f"config num_classes {config.num_classes}")
    lines.append(f"config input_length {config.input_length}")
    for name, tensor in params.named_tensors():
        lines.append(f"tensor {name} " + " ".join(str(d) for d in tensor.shape))
        lines.append(" ".join(format(v, ".17g") for v in tensor.ravel()))
    lines.append("end")
    path.write_text("\n".join(lines) + "\n")


def _parse_config(entries: dict[str, list[str]]) -> ModelConfig:
    missing = [key for key in _CONFIG_KEYS if key not in entries]
    if missing:
        raise CheckpointError(f"checkpoint config is missing {missing}")
    try:
        return ModelConfig(
            kernel_counts=tuple(int(v) for v in entries["kernel_counts"]),
            receptive_fields=tuple(int(v) for v in entries["receptive_fields"]),
            strides=tuple(int(v) for v in entries["strides"]),
            fc1_width=int(entries["fc1_width"][0]),
            dropout_rate=float(entries["dropout_rate"][0]),
            num_classes=int(entries["num_classes"][0]),
            input_length=int(entries["input_length"][0]),
        )
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from None


def load_checkpoint(path: str | Path) -> tuple[NetworkParameters, ModelConfig]:
    """Read a checkpoint; truncated or corrupt files raise, never load partially."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_VERSION:
        found = lines[0].strip() if lines else "<empty file>"
        raise CheckpointError(
            f"{path}: version mismatch, expected {CHECKPOINT_VERSION!r}, found {found!r}"
        )
    pos = 1
    config_entries: dict[str, list[str]] = {}
    while pos < len(lines) and lines[pos].startswith("config "):
        parts = lines[pos].split()
        if len(parts) < 3:
            raise CheckpointError(f"{path}: malformed config line {lines[pos]!r}")
        config_entries[parts[1]] = parts[2:]
        pos += 1
    config = _parse_config(config_entries)
    expected = parameter_shapes(config)

    tensors: dict[str, np.ndarray] = {}
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
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        try:
            shape = tuple(int(d) for d in parts[2:])
        except ValueError:
            raise CheckpointError(f"{path}: non-integer dimension in {line!r}") from None
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, config implies {expected[name]}"
            )
        count = int(np.prod(shape))
        pos += 1
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
        tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
    else:
        raise CheckpointError(f"{path}: truncated, missing 'end' marker")
    if any(lines[p].strip() for p in range(pos, len(lines))):
        raise CheckpointError(f"{path}: trailing content after 'end' marker")
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise CheckpointError(f"{path}: missing tensors {missing}")

    return NetworkParameters.from_named(tensors), config
