"""Set-up, timed phases, correctness checks and per-layer tables for one run.

Import only after ``env.pin_blas()`` and ``env.use_source_tree()``: this
module imports numpy and hgmts at load time.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from hgmts import autodiff, data, experiments, message_passing, nn, training
from hgmts import model as model_mod
from hgmts.data import SplitSpec
from hgmts.metrics import mse, persistence_forecast
from hgmts.model import ModelConfig
from spans import Tracer
from workloads import EVAL_WINDOWS, FORECAST_MIN_SAMPLES, FORECAST_WINDOWS, SPLIT, Workload

MIN_UNITS = 5  # timed training.train calls or evaluate calls per run, at least
FORECAST_SHARE = 0.25  # batch-1 forecasts take this share of the timed loop
SETUP_SHARE = 0.1  # repeated set-ups take this share; setup_s is their median
SETUP_MIN_REPS = 3
REPEAT_WINDOWS = 8  # test windows forecast twice for model.forecast_repeat_maxdiff
# On a 2-core host shared with other tenants the same code runs up to ~1.6x slower
# for stretches from seconds to minutes. A run's median or fast decile jumps with
# the share of slow time in the run, and a tail such as p95 flips between the fast
# and the slow speed with it. Totals and means move only in proportion to that
# share: total throughput and mean forecast latency are gated; the others are
# reported beside them.

STEP_LAYERS = (
    "latent_graph.build_ms",
    "message_passing.encode_ms",
    "message_passing.messages_ms",
    "message_passing.aggregate_ms",
    "message_passing.update_ms",
    "nn.gru_ms",
    "nn.gate_ms",
    "nn.mlp2_ms",
    "model.forward_self_ms",
    "decomposition.decompose_ms",
    "metrics.loss_ms",
    "autodiff.backward_ms",
    "optim.adam_ms",
    "training.self_ms",
)
SETUP_LAYERS = (
    "data.load_csv_ms",
    "experiments.prepare_windows_ms",
    "checkpoint.load_ms",
    "model.build_ms",
)


def tape_nodes(root) -> int:
    """Tensors reachable from ``root`` through parent links, leaves included."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def graph_budget_errors(adjacencies, cfg: ModelConfig) -> list[str]:
    """Each graph costs 2*N*n dot products and keeps n queries with n keys each."""
    n_nodes, n = cfg.n_nodes, cfg.selection_size()
    errors = []
    for adj in adjacencies:
        if adj.dot_product_count != 2 * n_nodes * n:
            errors.append(f"dot_product_count {adj.dot_product_count} != 2*{n_nodes}*{n}")
        if adj.selected_queries.shape != (n,) or adj.selected_keys.shape != (n, n):
            errors.append(f"selection shapes {adj.selected_queries.shape}, "
                          f"{adj.selected_keys.shape} != ({n},), ({n}, {n})")
    return errors


class Counts:
    """Work counted at layer boundaries during traced units, one record per unit."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.per_call: list[tuple] = []  # (steps, tape nodes per step, dot products, edges)
        self.budget_errors: list[str] = []
        self._reset()

    def _reset(self):
        self.steps, self.tape, self.dot_products, self.edges = 0, [], 0, 0

    def on_step(self, _):
        self.steps += 1

    def on_tape(self, root):
        self.tape.append(tape_nodes(root))

    def on_forward(self, out):
        self.on_tape(out[0])

    def on_graphs(self, adjacencies):
        self.dot_products += sum(a.dot_product_count for a in adjacencies)
        self.edges += sum(a.selected_keys.size for a in adjacencies)
        self.budget_errors += graph_budget_errors(adjacencies, self.cfg)

    def end_call(self):
        self.per_call.append((self.steps, tuple(self.tape), self.dot_products, self.edges))
        self._reset()


def step_targets(counts: Counts, kind: str):
    mpu = message_passing.MessagePassingUnit
    return [
        (training, "train", "training.self_ms", None),
        (training, "evaluate", "training.self_ms", None),
        (training, "mse_loss", "metrics.loss_ms", counts.on_tape if kind == "train" else None),
        (training, "adam_step", "optim.adam_ms", counts.on_step),
        (autodiff, "backward", "autodiff.backward_ms", None),
        (model_mod.Model, "forward_batch", "model.forward_self_ms",
         counts.on_forward if kind == "forecast" else None),
        (model_mod, "decompose", "decomposition.decompose_ms", None),
        (model_mod, "build_sparse_adjacency_batch", "latent_graph.build_ms", counts.on_graphs),
        (mpu, "encode_nodes", "message_passing.encode_ms", None),
        (mpu, "compute_messages", "message_passing.messages_ms", None),
        (message_passing, "aggregate", "message_passing.aggregate_ms", None),
        (mpu, "gated_update", "message_passing.update_ms", None),
        (nn.GRUCell, "__call__", "nn.gru_ms", None),
        (nn.GateUnit, "__call__", "nn.gate_ms", None),
        (nn.MLP2, "__call__", "nn.mlp2_ms", None),
    ]


SETUP_TARGETS = [
    (data, "load_csv", "data.load_csv_ms", None),
    (experiments, "prepare_windows", "experiments.prepare_windows_ms", None),
    (model_mod, "load_checkpoint", "checkpoint.load_ms", None),
    (model_mod, "build_variant", "model.build_ms", None),
]


@dataclass
class Run:
    """One benchmark run of one workload at one seed."""

    w: Workload
    seed: int
    seconds: float
    csv_path: str
    checkpoint_path: str | None
    tmp_dir: str
    cfg: ModelConfig = field(init=False)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> (ok, detail)
    report: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    tracers: dict = field(default_factory=dict)

    def __post_init__(self):
        self.cfg = ModelConfig(**self.w.model_kw(self.seed))

    def check(self, name: str, ok: bool, detail="") -> None:
        self.checks[name] = (bool(ok), detail)

    def fail(self, n: int, what: str) -> None:
        self.failed += n
        print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)

    # -- set-up ----------------------------------------------------------------

    def set_up(self):
        """Read the CSV, prepare windows, and build or load the model."""
        ds = data.load_csv(self.csv_path)
        prepared = experiments.prepare_windows(ds, SplitSpec(*SPLIT), self.cfg.input_len,
                                               self.cfg.horizon)
        if self.w.kind == "forecast":
            model, _ = model_mod.load_model(self.checkpoint_path)
        else:
            model = model_mod.build_variant(self.cfg)
        return prepared, model

    def timed_set_up(self) -> float:
        t0 = perf_counter()
        self.set_up()
        return perf_counter() - t0

    # -- timed units of work ------------------------------------------------------

    def train_call(self, prepared) -> tuple[float, object]:
        """One training.train call from a fresh model; returns (windows/s, model)."""
        w = self.w
        train_w = prepared.train[: w.train_windows]
        steps = math.ceil(len(train_w) / w.batch)
        self.attempted += steps
        model = model_mod.build_variant(self.cfg)
        try:
            t0 = perf_counter()
            result = training.train(model, train_w, prepared.val[: w.val_windows],
                                    training.TrainConfig(max_epochs=1, batch_size=w.batch,
                                                         seed=self.seed))
            wall = perf_counter() - t0
        except Exception:  # a raising step fails every step of its call
            self.fail(steps, "training.train")
            return math.nan, model
        last = result.history[-1]
        if not (np.isfinite(last.train_loss) and np.isfinite(last.val_mse)):
            self.failed += steps
        self.report.setdefault("val_mse_per_call", []).append(last.val_mse)
        return len(train_w) / wall, model

    def eval_call(self, model, windows) -> float:
        """One evaluate call at the workload's batch size; returns windows/s."""
        self.attempted += len(windows)
        try:
            t0 = perf_counter()
            test_mse, _ = training.evaluate(model, windows, batch_size=self.w.batch)
            wall = perf_counter() - t0
        except Exception:
            self.fail(len(windows), "evaluate")
            return math.nan
        if not np.isfinite(test_mse):
            self.failed += len(windows)
        return len(windows) / wall

    def unit(self, prepared, model, i: int):
        """(windows/s, model) for the i-th timed unit: one training.train call, or one
        evaluate call on the next EVAL_WINDOWS test windows (cycling through the split)."""
        if self.w.kind == "train":
            return self.train_call(prepared)
        lo = i * EVAL_WINDOWS % (len(prepared.test) - EVAL_WINDOWS + 1)
        return self.eval_call(model, prepared.test[lo : lo + EVAL_WINDOWS]), model

    def forecast(self, model, x) -> float:
        """One batch-1 Model.forward, as `eval --dump-predictions` does; seconds."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            out = model.forward(x).values
            wall = perf_counter() - t0
        except Exception:
            self.fail(1, "Model.forward")
            return math.nan
        if out.shape != (self.cfg.n_nodes, self.cfg.horizon) or not np.all(np.isfinite(out)):
            self.failed += 1
        return wall

    def loop(self, prepared, model, trace: bool, counts=None):
        """Timed units for --seconds.

        Untraced, batch-1 forecasts and repeated set-ups are interleaved between
        units so that all three sample the same stretch of machine time. Traced,
        every other unit runs under the tracer, for the same reason.
        Returns (untraced windows/s per unit, traced ones, model).
        """
        windows = [x for x, _ in prepared.test[:FORECAST_WINDOWS]]
        rates, traced, latencies, setups = [], [], [], self.report["setup_times"]
        busy_forecasting = busy_setting_up = 0.0
        t_start = perf_counter()
        while (min(len(rates), len(traced) if trace else MIN_UNITS) < MIN_UNITS
               or perf_counter() - t_start < self.seconds):
            if trace and len(rates) > len(traced):
                with self.tracers["steps"]:
                    rate, model = self.unit(prepared, model, len(rates) + len(traced))
                counts.end_call()
                traced.append(rate)
                continue
            rate, model = self.unit(prepared, model, len(rates) + len(traced))
            rates.append(rate)
            while not trace and busy_forecasting < FORECAST_SHARE * (perf_counter() - t_start):
                latencies.append(self.forecast(model, windows[len(latencies) % len(windows)]))
                busy_forecasting += latencies[-1] if not math.isnan(latencies[-1]) else 0.0
            while not trace and busy_setting_up < SETUP_SHARE * (perf_counter() - t_start):
                setups.append(self.timed_set_up())
                busy_setting_up += setups[-1]
        if not trace:
            while len(latencies) < FORECAST_MIN_SAMPLES:
                latencies.append(self.forecast(model, windows[len(latencies) % len(windows)]))
            while len(setups) < SETUP_MIN_REPS:
                setups.append(self.timed_set_up())
            ms = [1000 * t for t in latencies if not math.isnan(t)]
            self.report["forecast_ms"] = ms
            self.report["forecast_samples"] = len(ms)
            self.report["forecast_ms_mean"] = statistics.fmean(ms)
            for q in (10, 50, 95):
                self.report[f"forecast_ms_p{q}"] = float(np.percentile(ms, q))
        self.report["setup_s"] = statistics.median(setups)
        self.report["setup_reps"] = len(setups)
        return ([r for r in rates if not math.isnan(r)], [r for r in traced if not math.isnan(r)],
                model)

    # -- checks ------------------------------------------------------------------

    def final_checks(self, prepared, model) -> None:
        w, cfg = self.w, self.cfg
        # nondeterministic inference is a known defect: recorded, never asserted
        self.report["forecast_repeat_maxdiff"] = max(
            float(np.max(np.abs(model.forward(x).values - model.forward(x).values)))
            for x, _ in prepared.test[:REPEAT_WINDOWS])

        xs = np.stack([x for x, _ in prepared.test[: w.batch]])
        _, _, ctx = model.forward_batch(xs, collect=True)
        adjacencies = [rec[-1] for rec in ctx.graph_records]
        expected = w.batch * model.graph_builds_per_window()
        errors = graph_budget_errors(adjacencies, cfg)
        if len(adjacencies) != expected:
            errors.append(f"{len(adjacencies)} graphs for {expected} expected")
        self.check("graph_budget_2Nn", not errors, "; ".join(errors[:3]))

        with tempfile.TemporaryDirectory(dir=self.tmp_dir) as tmp:
            path = f"{tmp}/roundtrip.ckpt"
            model.save(path)
            loaded, _ = model_mod.load_model(path)
        before = model.registry.named_values()
        after = loaded.registry.named_values()
        same = before.keys() == after.keys() and all(
            before[k].tobytes() == after[k].tobytes() for k in before)
        self.check("checkpoint_roundtrip_bitwise", same)

        if w.kind == "train":
            vals = self.report["val_mse_per_call"]
            self.report["val_mse"] = vals[0]
            self.check("val_mse_repeats_bitwise", len(set(vals)) == 1,
                       f"{len(set(vals))} distinct values over {len(vals)} calls")
        else:
            test_mse = self.report["test_mse"]
            persistence = float(np.mean([mse(y, persistence_forecast(x, cfg.horizon))
                                         for x, y in prepared.test]))
            self.report["persistence_mse"] = persistence
            self.check("checkpoint_beats_persistence", test_mse < persistence,
                       f"test_mse {test_mse:.4g} vs persistence {persistence:.4g}")

    # -- whole runs --------------------------------------------------------------

    def warm_up(self, prepared, model):
        """Lazy set-up and allocator growth finish before timing. For a checkpoint,
        two full evaluate passes; the first one after load gives test_mse, as
        `hgmts eval` reports it."""
        if self.w.kind == "train":
            _, model = self.train_call(prepared)
        else:
            self.report["test_mse"] = training.evaluate(model, prepared.test,
                                                        batch_size=self.w.batch)[0]
            training.evaluate(model, prepared.test, batch_size=self.w.batch)
        for x, _ in prepared.test[:5]:
            model.forward(x)
        return model

    def run(self, trace: bool) -> None:
        t0 = perf_counter()
        prepared, model = self.set_up()
        self.report["setup_times"] = [perf_counter() - t0]
        counts = Counts(self.cfg)
        if trace:
            self.tracers["setup"] = Tracer(SETUP_TARGETS)
            with self.tracers["setup"]:
                for _ in range(SETUP_MIN_REPS):
                    self.set_up()
            self.tracers["steps"] = Tracer(step_targets(counts, self.w.kind))
        model = self.warm_up(prepared, model)
        rates, traced, model = self.loop(prepared, model, trace, counts)
        self.report["unit_wps"] = rates
        self.report["units"] = len(rates)
        self.report["wps_median"] = statistics.median(rates)
        # every unit has the same window count: windows over total unit time
        self.report["throughput_wps"] = statistics.harmonic_mean(rates)
        self.final_checks(prepared, model)
        self.report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            self.layer_tables(counts, traced, rates)

    def layer_tables(self, counts: Counts, traced_rates, untraced_rates) -> None:
        per_call = counts.per_call
        self.check("counts_repeat_per_call", len(set(per_call)) == 1,
                   f"{len(set(per_call))} distinct count sets over {len(per_call)} calls")
        self.check("graph_budget_2Nn_traced", not counts.budget_errors,
                   "; ".join(counts.budget_errors[:3]))
        # a step is one Adam step (train) or one evaluated window (forecast)
        steps = (sum(c[0] for c in per_call) if self.w.kind == "train"
                 else len(per_call) * EVAL_WINDOWS)
        self_s = self.tracers["steps"].self_seconds()
        layers = {name: 1000 * self_s.get(name, 0.0) / steps for name in STEP_LAYERS}
        setup_s = self.tracers["setup"].self_seconds()
        layers.update({name: 1000 * setup_s.get(name, 0.0) / SETUP_MIN_REPS
                       for name in SETUP_LAYERS})
        layers["latent_graph.dot_products"] = sum(c[2] for c in per_call) / steps
        layers["latent_graph.edges"] = sum(c[3] for c in per_call) / steps
        layers["autodiff.tape_nodes"] = max(max(c[1], default=0) for c in per_call)
        untraced = statistics.harmonic_mean(untraced_rates)
        traced = statistics.harmonic_mean(traced_rates)
        layers["trace.untraced_wps"] = untraced
        layers["trace.traced_wps"] = traced
        layers["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
        layers["model.forecast_repeat_maxdiff"] = self.report["forecast_repeat_maxdiff"]
        self.per_layer = layers
