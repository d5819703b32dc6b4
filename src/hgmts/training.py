"""Training loop: mini-batch Adam, halving schedule, early stopping on val MSE."""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError
from .data import NormalizationStats, denormalize
from .metrics import mae, mse, mse_loss
from .model import Model
from .optim import AdamState, adam_step


_SCORE_STACK = 64  # windows per stacked array in ``scores``


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr0: float = 1e-4
    halve_every: int = 2  # epochs between halvings
    patience: int = 10  # epochs without val-MSE improvement before stopping
    batch_size: int = 32
    max_epochs: int = 50
    seed: int = 0
    backcast_loss_weight: float = 0.0  # optional auxiliary penalty on the final residual

    def __post_init__(self):
        for name in ("halve_every", "patience", "batch_size", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        # lr0 = 0 freezes the model, useful for schedule diagnostics
        for name in ("lr0", "backcast_loss_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ContractError(f"{name} must be finite and >= 0, got {value}")


def lr_schedule(epoch: int, lr0: float = 1e-4, halve_every: int = 2) -> float:
    """lr0 halved every ``halve_every`` epochs (epochs count from 0)."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return lr0 * 0.5 ** (epoch // halve_every)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_mse: float


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_val_mse: float
    best_epoch: int
    epochs_run: int
    wall_s: float
    stopped_early: bool

    def history_csv(self) -> str:
        lines = ["epoch,lr,train_loss,val_mse"]
        for row in self.history:
            lines.append(f"{row.epoch},{row.lr!r},{row.train_loss!r},{row.val_mse!r}")
        return "\n".join(lines) + "\n"


@dataclass
class _Batcher:
    windows: list
    batch_size: int
    rng_seed: int

    def epoch_batches(self, epoch: int):
        order = np.random.default_rng(np.random.SeedSequence([self.rng_seed, epoch])).permutation(
            len(self.windows)
        )
        for lo in range(0, len(order), self.batch_size):
            yield [self.windows[i] for i in order[lo : lo + self.batch_size]]


@contextlib.contextmanager
def _diverges_on_numeric_error(model: Model, where: str):
    """Re-raise a NumericError of the block as TrainingDiverged naming ``where``
    and the parameter norm."""
    try:
        yield
    except ad.NumericError as exc:
        raise TrainingDiverged(f"{exc} at {where}; "
                               f"parameter norm {model.registry.value_norm():.4g}") from exc


def _train_step(model: Model, adam: AdamState, cfg: TrainConfig, batch: list, where: str) -> float:
    """One Adam step on ``batch``; returns its loss.  The step's tape dies on
    return, so no two steps' tapes are alive at once."""
    xs = np.stack([x for x, _ in batch])
    ys = np.concatenate([y for _, y in batch], axis=0)
    with _diverges_on_numeric_error(model, where):
        # the step count seeds this step's graph key samples
        forecast, residual, ctx = model.forward_batch(xs, step=adam.step)
        parallel = ctx.parallel  # backward runs on two threads where the forward pass did
        loss = mse_loss(forecast, ys)
        if cfg.backcast_loss_weight > 0:
            loss = ad.add(loss, ad.mul(ad.mean(ad.mul(residual, residual)),
                                       cfg.backcast_loss_weight))
        del forecast, residual, ctx  # from here the tape alone holds what backward reads
        value = loss.item()
        if not np.isfinite(value):
            raise ad.NumericError(f"non-finite loss {value}")
    ad.backward(loss, parallel=parallel)
    for p in adam.params.values():  # heads feeding only the unused final residual get zero grad
        if p.grad is None:
            p.grad = np.zeros_like(p.values)
    del loss  # the tape dies here, before Adam allocates its buffers
    adam_step(adam)
    return value


def train(model: Model, train_windows: list, val_windows: list, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam with the halving schedule; returns best-validation weights.

    The model is left holding the parameters of its best validation epoch.
    A step whose loss is not finite, a validation MSE that is not finite, or a
    step's forward pass or a validation pass that raises NumericError, raises
    TrainingDiverged naming the epoch and batch (or the validation pass) and
    the parameter norm.
    """
    if not train_windows:
        raise ContractError("train requires at least one training window")
    t0 = time.perf_counter()
    adam = AdamState(model.parameters(), lr=cfg.lr0)
    batcher = _Batcher(train_windows, cfg.batch_size, cfg.seed)
    history: list[EpochStats] = []
    best_val = float("inf")
    best_epoch = -1
    best_values = model.registry.named_values()
    stale = 0
    stopped_early = False

    for epoch in range(cfg.max_epochs):
        adam.lr = lr_schedule(epoch, cfg.lr0, cfg.halve_every)
        losses = []
        for batch_idx, batch in enumerate(batcher.epoch_batches(epoch)):
            losses.append(_train_step(model, adam, cfg, batch, f"epoch {epoch}, batch {batch_idx}"))

        train_loss = float(np.mean(losses))
        with _diverges_on_numeric_error(model, f"the validation pass of epoch {epoch}"):
            val = (evaluate(model, val_windows, batch_size=cfg.batch_size)[0] if val_windows
                   else train_loss)
            if not math.isfinite(val):
                raise ad.NumericError(f"non-finite validation MSE {val}")
        history.append(EpochStats(epoch=epoch, lr=adam.lr, train_loss=train_loss, val_mse=val))
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_values = model.registry.named_values()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stopped_early = True
                break

    model.registry.load_values(best_values)
    return TrainResult(
        history=history,
        best_val_mse=best_val,
        best_epoch=best_epoch,
        epochs_run=len(history),
        wall_s=time.perf_counter() - t0,
        stopped_early=stopped_early,
    )


def evaluate(model: Model, eval_windows: list, stats: NormalizationStats | None = None,
             batch_size: int = 32) -> tuple[float, float]:
    """Mean (MSE, MAE) over windows, in raw units when ``stats`` is given."""
    return scores(eval_windows, forecasts(model, eval_windows, batch_size), stats)


def scores(windows: list, preds, stats: NormalizationStats | None = None) -> tuple[float, float]:
    """Mean over the windows of each window's (MSE, MAE) of its forecast against
    its target; both are de-normalized first when ``stats`` is given.

    ``preds`` yields one forecast per window, in order.  Windows are scored in
    stacks of up to ``_SCORE_STACK``, each forecast copied as it arrives, so a
    long split's forecasts are never all held at once, and a forecast that
    views its batch's array lets that array die with the batch.
    """
    if not windows:
        raise ContractError("scoring requires at least one window")
    preds = iter(preds)
    mses, maes = [], []
    for lo in range(0, len(windows), _SCORE_STACK):
        ys = np.stack([y for _, y in windows[lo : lo + _SCORE_STACK]])
        stack = [np.array(pred, dtype=np.float64) for pred in itertools.islice(preds, len(ys))]
        if len(stack) < len(ys):
            raise ContractError(f"scoring got {lo + len(stack)} forecasts for "
                                f"{len(windows)} windows")
        ps = np.stack(stack)
        if stats is not None:
            ys, ps = denormalize(ys, stats), denormalize(ps, stats)
        mses.append(mse(ys, ps, axis=(1, 2)))
        maes.append(mae(ys, ps, axis=(1, 2)))
    if next(preds, None) is not None:
        raise ContractError(f"scoring got more forecasts than its {len(windows)} windows")
    return float(np.mean(np.concatenate(mses))), float(np.mean(np.concatenate(maes)))


def forecasts(model: Model, windows: list, batch_size: int = 32):
    """Each (x, y) window's (N, K) forecast, from one batched forward pass per
    ``batch_size`` windows; the passes record no tape, so each pass's arrays
    die before the next one starts.  A ``batch_size`` below 1 raises
    ContractError before any pass."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    for lo in range(0, len(windows), batch_size):
        xs = np.stack([x for x, _ in windows[lo : lo + batch_size]])
        yield from model.forward_batch(xs)[0].values.reshape(len(xs), model.cfg.n_nodes, -1)
