"""The four benchmark workloads and the settings they share.

Every workload uses L=48, K=24, D=32, kernel 25, 3 stacks of 1 block and 3
message-passing rounds. The generator settings are those of acceptance
criterion 7; only the series count and the seed change between workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# acceptance criterion 7's generator settings (SYNTH_KW in tests/test_acceptance.py)
SYNTH_KW = dict(
    length=2000,
    coupling_lag=24,
    parents_per_node=1,
    coupling_scale=0.95,
    noise_std=0.05,
    walk_std=0.35,
    walk_rho=0.96,
    season_amp=1.0,
    walk_sources=2,
)
MODEL_KW = dict(input_len=48, horizon=24, embed_dim=32, kernel=25, stacks=3,
                blocks_per_stack=1, rounds=3)
SPLIT = (0.7, 0.1, 0.2)

# the forecast-c7 checkpoint: one epoch over the whole training split
CHECKPOINT_LR = 1e-3
CHECKPOINT_VAL_WINDOWS = 64

EVAL_WINDOWS = 64  # windows per timed evaluate call on forecast-c7 (two batches of 32)
FORECAST_WINDOWS = 200  # batch-1 forecasts cycle over the first 200 test windows
FORECAST_MIN_SAMPLES = 200  # so that at least 10 samples lie beyond p95


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": training.train calls; "forecast": evaluate passes on a checkpoint
    n_series: int
    variant: str
    sparsity: dict = field(default_factory=dict)  # gamma or sampling_c for ModelConfig
    batch: int = 32
    train_windows: int = 0  # windows per training.train call (train kind)
    val_windows: int = 0  # validation windows per training.train call (train kind)

    def model_kw(self, seed: int) -> dict:
        return dict(MODEL_KW, n_nodes=self.n_series, variant=self.variant, seed=seed,
                    **self.sparsity)

    def synth_kw(self, seed: int) -> dict:
        return dict(SYNTH_KW, n_series=self.n_series, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # tiny arrays: per-op Python, tape bookkeeping and the per-window graph loop dominate
        Workload("train-c7", "train", 8, "hgmts1", {"gamma": 0.7}, batch=32,
                 train_windows=64, val_windows=32),
        # 2,568 node rows per batch: dense GRU GEMMs dominate; validation kept to one
        # batch of 8 because evaluate at batch 32 and N=321 peaks at 4.2 GB
        Workload("train-wide", "train", 321, "hgmts1", {"sampling_c": 2.0}, batch=8,
                 train_windows=8, val_windows=8),
        # no graph, message, GRU or gate call: the "no change" side for graph work
        Workload("train-nograph", "train", 8, "hgmts4", {"gamma": 0.7}, batch=32,
                 train_windows=64, val_windows=32),
        # no backward or Adam: inference cost cannot hide inside training time
        Workload("forecast-c7", "forecast", 8, "hgmts1", {"gamma": 0.7}, batch=32),
    )
}
