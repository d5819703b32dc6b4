"""Experiment grids (sparsity sweeps, ablations) and the shared report container."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import ContractError
from .data import Dataset, NormalizationStats, SplitSpec, normalize, split, window_list
from .model import ModelConfig, build_variant
from .training import TrainConfig, evaluate, train

REPORT_FIELDS = ("dataset", "variant", "gamma", "horizon", "seed", "mse", "mae", "epochs", "wall_s")
REPORT_HEADER = ",".join(REPORT_FIELDS)


@dataclass
class EvalReport:
    rows: list[dict]

    def to_csv(self) -> str:
        lines = [REPORT_HEADER]
        for row in self.rows:
            lines.append(",".join(_fmt(row.get(f)) for f in REPORT_FIELDS))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def averaged(self) -> "EvalReport":
        """One row per (dataset, variant, gamma, horizon): arithmetic mean over runs."""
        groups: dict[tuple, list[dict]] = {}
        for row in self.rows:
            key = (row["dataset"], row["variant"], row["gamma"], row["horizon"])
            groups.setdefault(key, []).append(row)
        out = []
        for (dataset, variant, gamma, horizon), members in groups.items():
            out.append(
                {
                    "dataset": dataset,
                    "variant": variant,
                    "gamma": gamma,
                    "horizon": horizon,
                    "seed": f"avg{len(members)}",
                    "mse": float(np.mean([m["mse"] for m in members])),
                    "mae": float(np.mean([m["mae"] for m in members])),
                    "epochs": float(np.mean([m["epochs"] for m in members])),
                    "wall_s": float(np.sum([m["wall_s"] for m in members])),
                }
            )
        return EvalReport(out)

    def table(self) -> str:
        widths = {f: max(len(f), *(len(_fmt(r.get(f))) for r in self.rows)) if self.rows else len(f)
                  for f in REPORT_FIELDS}
        header = "  ".join(f.ljust(widths[f]) for f in REPORT_FIELDS)
        ruler = "  ".join("-" * widths[f] for f in REPORT_FIELDS)
        body = [
            "  ".join(_fmt(r.get(f)).ljust(widths[f]) for f in REPORT_FIELDS) for r in self.rows
        ]
        return "\n".join([header, ruler, *body])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class PreparedData:
    """Normalized splits plus their window lists for one (L, K) setting."""

    train: list
    val: list
    test: list
    stats: NormalizationStats
    name: str


def prepare_windows(ds: Dataset, spec: SplitSpec, input_len: int, horizon: int) -> PreparedData:
    train_ds, val_ds, test_ds = split(ds, spec)
    stats = NormalizationStats.from_train(train_ds.values)
    return PreparedData(
        train=window_list(normalize(train_ds, stats), input_len, horizon),
        val=window_list(normalize(val_ds, stats), input_len, horizon),
        test=window_list(normalize(test_ds, stats), input_len, horizon),
        stats=stats,
        name=ds.name,
    )


def split_windows(prepared: PreparedData, split: str, input_len: int, horizon: int) -> list:
    """The windows of one split; a split with none is refused by name."""
    windows = getattr(prepared, split)
    if not windows:
        raise ContractError(f"split {split!r} has no windows at this (L, K): it needs at least "
                            f"L + K = {input_len + horizon} rows")
    return windows


def report_row(cfg: ModelConfig, dataset: str, mse: float, mae: float, epochs: int = 0,
               wall_s: float = 0.0) -> dict:
    """One report row: a model's settings and its scores on one split."""
    return dict(zip(REPORT_FIELDS, (dataset, cfg.variant, cfg.gamma, cfg.horizon, cfg.seed,
                                    mse, mae, epochs, wall_s)))


def run_one(prepared: PreparedData, model_cfg: ModelConfig, train_cfg: TrainConfig,
            stats: NormalizationStats | None = None):
    """Train one configuration and score it on the test split, at the run's
    batch size, in raw units when ``stats`` is given; returns (row, model, result).
    An empty test split is refused before the model is built."""
    test = split_windows(prepared, "test", model_cfg.input_len, model_cfg.horizon)
    model = build_variant(model_cfg)
    result = train(model, prepared.train, prepared.val, train_cfg)
    test_mse, test_mae = evaluate(model, test, stats, train_cfg.batch_size)
    row = report_row(model_cfg, prepared.name, test_mse, test_mae, result.epochs_run,
                     result.wall_s)
    return row, model, result


def grid_run(ds: Dataset, spec: SplitSpec, field: str, values: list, horizons: list[int],
             model_cfg: ModelConfig, train_cfg: TrainConfig,
             seeds: list[int] | None = None, raw_space: bool = False) -> EvalReport:
    """Train and evaluate per (horizon, value of the ModelConfig ``field``, seed);
    one report row each, scored in raw units when ``raw_space``.  Every config
    of the grid is built before the first one trains, so a bad value fails
    before any training."""
    seeds = seeds or [model_cfg.seed]
    grid = [(horizon, [replace(model_cfg, **{field: value}, horizon=horizon, seed=seed)
                       for value in values for seed in seeds])
            for horizon in horizons]
    rows = []
    for horizon, cfgs in grid:
        prepared = prepare_windows(ds, spec, model_cfg.input_len, horizon)
        for cfg in cfgs:
            rows.append(run_one(prepared, cfg, replace(train_cfg, seed=cfg.seed),
                                prepared.stats if raw_space else None)[0])
    return EvalReport(rows)
