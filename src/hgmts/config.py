"""Flat key=value run configuration files.

Lines are ``key = value``; '#' starts a comment. Unknown keys are rejected so
typos fail fast. The model's node count comes from the data, so a RunSpec
first materializes into a ModelConfig when that is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autodiff import ContractError
from .data import SplitSpec
from .model import ModelConfig
from .training import TrainConfig

_MODEL_KEYS = {
    "L": ("input_len", int),
    "K": ("horizon", int),
    "D": ("embed_dim", int),
    "hidden": ("hidden_dim", int),
    "kernel": ("kernel", int),
    "padding": ("padding", str),
    "gamma": ("gamma", float),
    "c": ("sampling_c", float),
    "rounds": ("rounds", int),
    "stacks": ("stacks", int),
    "blocks": ("blocks_per_stack", int),
    "variant": ("variant", str),
    "seed": ("seed", int),
}

_TRAIN_KEYS = {
    "lr0": ("lr0", float),
    "halve_every": ("halve_every", int),
    "patience": ("patience", int),
    "batch": ("batch_size", int),
    "max_epochs": ("max_epochs", int),
    "backcast_loss_weight": ("backcast_loss_weight", float),
}


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _list(kind):
    """A comma-list parser: items are stripped and empty items skipped."""
    return lambda text: [kind(p.strip()) for p in text.split(",") if p.strip()]


_RUN_KEYS = {
    "dataset": str,
    "name": str,
    "frequency": str,
    "split": SplitSpec.parse,
    "out_dir": str,
    "raw_space": _bool,
    "forward_fill": _bool,
    "seeds": _list(int),
    "gammas": _list(float),
    "horizons": _list(int),
    "variants": _list(str),
    "synth_n": int,
    "synth_length": int,
    "synth_seed": int,
    "synth_lag": int,
    "synth_noise": float,
}


def parse_kv_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def _coerce(key: str, value: str, parse):
    try:
        return parse(value)
    except ValueError as exc:
        raise ContractError(f"config key {key!r}: cannot parse {value!r}: {exc}") from None


@dataclass
class RunSpec:
    """Everything read from a config file, before the node count is known."""

    model_fields: dict = field(default_factory=dict)
    train_fields: dict = field(default_factory=dict)
    dataset: str | None = None
    name: str | None = None
    frequency: str | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    out_dir: str | None = None
    raw_space: bool = False
    forward_fill: bool = False
    seeds: list[int] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    horizons: list[int] = field(default_factory=list)
    variants: list[str] = field(default_factory=list)
    synth: dict = field(default_factory=dict)
    pairs: dict[str, str] = field(default_factory=dict)

    def model_config(self, n_nodes: int) -> ModelConfig:
        return ModelConfig(n_nodes=n_nodes, **self.model_fields)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{"seed": self.model_fields.get("seed", 0), **self.train_fields})


def load_run_spec(path, extra_pairs: dict[str, str] | None = None) -> RunSpec:
    """Parse a config file, then the --set pairs, into a RunSpec; a pair wins over
    the file's line for its key, and ``spec.pairs`` keeps the merged pairs."""
    spec = RunSpec()
    sources = [(path, parse_kv_file(path))] if path else []
    for source, pairs in [*sources, ("--set", extra_pairs or {})]:
        spec.pairs.update(pairs)
        for key, value in pairs.items():
            if key in _MODEL_KEYS:
                attr, kind = _MODEL_KEYS[key]
                spec.model_fields[attr] = _coerce(key, value, kind)
            elif key in _TRAIN_KEYS:
                attr, kind = _TRAIN_KEYS[key]
                spec.train_fields[attr] = _coerce(key, value, kind)
            elif key.startswith("synth_") and key in _RUN_KEYS:
                spec.synth[key.removeprefix("synth_")] = _coerce(key, value, _RUN_KEYS[key])
            elif key in _RUN_KEYS:
                setattr(spec, key, _coerce(key, value, _RUN_KEYS[key]))
            else:
                raise ContractError(f"unknown config key {key!r} in {source}")
    # keep training window length aligned with the model's input length
    if "input_len" not in spec.model_fields:
        spec.model_fields["input_len"] = 96
    if "horizon" not in spec.model_fields:
        spec.model_fields["horizon"] = spec.horizons[0] if spec.horizons else 96
    return spec
