"""Flat key=value run configuration files.

Lines are ``key = value``; '#' starts a comment. One table, ``_KEYS``, says
where each key lands and how it is parsed; unknown keys are rejected so typos
fail fast. The model's node count comes from the data, so a RunSpec
first materializes into a ModelConfig when that is known.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .autodiff import ContractError
from .data import SplitSpec
from .model import ModelConfig
from .training import TrainConfig


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


def _dataset(text: str) -> str:
    """``synthetic``, or a CSV path made absolute, so a recorded run reads it from anywhere."""
    return text if text == "synthetic" else os.path.abspath(text)


_MODEL, _TRAIN, _SYNTH = "model_fields", "train_fields", "synth"

# key -> (section, field, parser); a section of None means a RunSpec attribute,
# and the synth section holds generate_coupled's keyword arguments
_KEYS = {
    "L": (_MODEL, "input_len", int),
    "K": (_MODEL, "horizon", int),
    "D": (_MODEL, "embed_dim", int),
    "hidden": (_MODEL, "hidden_dim", int),
    "kernel": (_MODEL, "kernel", int),
    "padding": (_MODEL, "padding", str),
    "gamma": (_MODEL, "gamma", float),
    "c": (_MODEL, "sampling_c", float),
    "rounds": (_MODEL, "rounds", int),
    "stacks": (_MODEL, "stacks", int),
    "blocks": (_MODEL, "blocks_per_stack", int),
    "variant": (_MODEL, "variant", str),
    "seed": (_MODEL, "seed", int),
    "lr0": (_TRAIN, "lr0", float),
    "halve_every": (_TRAIN, "halve_every", int),
    "patience": (_TRAIN, "patience", int),
    "batch": (_TRAIN, "batch_size", int),
    "max_epochs": (_TRAIN, "max_epochs", int),
    "backcast_loss_weight": (_TRAIN, "backcast_loss_weight", float),
    "synth_n": (_SYNTH, "n_series", int),
    "synth_length": (_SYNTH, "length", int),
    "synth_seed": (_SYNTH, "seed", int),
    "synth_lag": (_SYNTH, "coupling_lag", int),
    "synth_noise": (_SYNTH, "noise_std", float),
    "dataset": (None, "dataset", _dataset),
    "name": (None, "name", str),
    "frequency": (None, "frequency", str),
    "split": (None, "split", SplitSpec.parse),
    "out_dir": (None, "out_dir", str),
    "raw_space": (None, "raw_space", _bool),
    "forward_fill": (None, "forward_fill", _bool),
    "seeds": (None, "seeds", _list(int)),
    "gammas": (None, "gammas", _list(float)),
    "horizons": (None, "horizons", _list(int)),
    "variants": (None, "variants", _list(str)),
}


def _split_pair(text: str, source: str) -> tuple[str, str]:
    """One ``key = value`` item; a malformed one names its source (``path:line`` or ``--set``)."""
    if "=" not in text:
        raise ContractError(f"{source}: expected 'key = value', got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def parse_kv_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(f"{path}:{n}", raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, 1)]
    return dict(_split_pair(line, source) for source, line in lines if line)


def set_pairs(items) -> dict[str, str]:
    """The pairs of a --set list, in order."""
    return dict(_split_pair(item, "--set") for item in items or [])


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
    # the CLI's synthetic noise; generate_coupled's own default is 0.1
    synth: dict = field(default_factory=lambda: {"noise_std": 0.3})
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
        for key, value in pairs.items():
            if key not in _KEYS:
                raise ContractError(f"unknown config key {key!r} in {source}")
            section, name, parse = _KEYS[key]
            parsed = _coerce(key, value, parse)
            (vars(spec) if section is None else getattr(spec, section))[name] = parsed
            # a string is recorded as parsed, so a dataset path is recorded absolute
            spec.pairs[key] = parsed if isinstance(parsed, str) else value
    # keep training window length aligned with the model's input length
    if "input_len" not in spec.model_fields:
        spec.model_fields["input_len"] = 96
    if "horizon" not in spec.model_fields:
        spec.model_fields["horizon"] = spec.horizons[0] if spec.horizons else 96
    return spec
