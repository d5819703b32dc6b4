"""Metrics, learning-rate schedule, and training-loop mechanics."""

import weakref

import numpy as np
import pytest

from helpers import ref_scores, tape_inventory
from hgmts import autodiff as ad
from hgmts import training
from hgmts.autodiff import ContractError, NumericError, ShapeMismatch, _no_tape
from hgmts.data import SplitSpec
from hgmts.experiments import EvalReport, prepare_windows
from hgmts.metrics import mae, mse, mse_loss, persistence_forecast
from hgmts.model import Model, ModelConfig, build_variant
from hgmts.synthetic import generate_coupled
from hgmts.training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    lr_schedule,
    train,
)


class TestMetrics:
    def test_equal_arrays_score_zero(self):
        y = np.random.default_rng(0).uniform(-1, 1, (3, 4))
        assert mse(y, y) == 0.0
        assert mae(y, y) == 0.0

    def test_unit_error(self):
        assert mse([[0.0, 0.0]], [[1.0, 1.0]]) == 1.0
        assert mae([[0.0, 0.0]], [[1.0, 1.0]]) == 1.0

    def test_hand_arithmetic(self):
        y = [[1.0, 2.0], [3.0, 4.0]]
        y_hat = [[2.0, 2.0], [3.0, 2.0]]
        assert mse(y, y_hat) == 1.25
        assert mae(y, y_hat) == 0.75

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(-5, 5, (6, 7))
        y_hat = rng.uniform(-5, 5, (6, 7))
        acc_sq = acc_abs = 0.0
        for i in range(6):
            for j in range(7):
                acc_sq += (y[i, j] - y_hat[i, j]) ** 2
                acc_abs += abs(y[i, j] - y_hat[i, j])
        assert abs(mse(y, y_hat) - acc_sq / 42) < 1e-12
        assert abs(mae(y, y_hat) - acc_abs / 42) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            mse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_loss_tensor_matches_metric(self):
        rng = np.random.default_rng(2)
        from hgmts.autodiff import Tensor

        pred = Tensor(rng.uniform(-1, 1, (3, 4)))
        target = rng.uniform(-1, 1, (3, 4))
        assert abs(mse_loss(pred, target).item() - mse(target, pred.values)) < 1e-15

    def test_persistence_repeats_last_value(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(persistence_forecast(x, 2),
                                      [[3.0, 3.0], [6.0, 6.0]])


class TestLrSchedule:
    def test_paper_values(self):
        assert lr_schedule(0) == 1e-4
        assert lr_schedule(1) == 1e-4
        assert lr_schedule(4) == 2.5e-5

    def test_non_increasing_piecewise_constant(self):
        values = [lr_schedule(e) for e in range(12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for even in range(0, 12, 2):
            assert values[even] == values[even + 1]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            lr_schedule(-1)


def small_setup(seed=0, variant="hgmts1", length=400):
    ds, _ = generate_coupled(n_series=4, length=length, seed=3)
    prepared = prepare_windows(ds, SplitSpec(0.7, 0.1, 0.2), 12, 4)
    cfg = ModelConfig(n_nodes=4, input_len=12, horizon=4, embed_dim=4, kernel=5,
                      stacks=1, rounds=1, gamma=1.0, seed=seed, variant=variant)
    return build_variant(cfg), prepared


class TestScores:
    """``scores`` stacks the windows and reduces each one along its own axes:
    bitwise the per-window loop of ``helpers.ref_scores``."""

    @pytest.mark.parametrize("raw", [False, True])
    def test_bitwise_the_per_window_scores(self, raw):
        model, prepared = small_setup(length=600)
        windows = prepared.test  # views of the split, more than one stack of them
        assert len(windows) > training._SCORE_STACK
        preds = list(training.forecasts(model, windows))
        stats = prepared.stats if raw else None
        got = training.scores(windows, iter(preds), stats)
        assert got == ref_scores(windows, preds, stats)

    @pytest.mark.parametrize("raw", [False, True])
    def test_bitwise_at_wide_windows(self, raw):
        ds, _ = generate_coupled(n_series=40, length=300, seed=4)
        prepared = prepare_windows(ds, SplitSpec(0.5, 0.1, 0.4), 12, 24)
        rng = np.random.default_rng(5)
        preds = [rng.normal(size=y.shape) for _, y in prepared.test]
        stats = prepared.stats if raw else None
        got = training.scores(prepared.test, preds, stats)
        assert got == ref_scores(prepared.test, preds, stats)

    def test_one_forecast_per_window(self):
        _, prepared = small_setup(length=600)
        windows = prepared.test[:70]
        preds = [y for _, y in windows]
        assert training.scores(windows, preds) == (0.0, 0.0)
        with pytest.raises(ContractError, match="got 69 forecasts for 70 windows"):
            training.scores(windows, preds[:-1])
        with pytest.raises(ContractError, match="more forecasts than its 70 windows"):
            training.scores(windows, preds + preds[:1])
        with pytest.raises(ContractError, match="at least one window"):
            training.scores([], [])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_size_below_one_is_refused_by_name(self, batch_size):
        model, prepared = small_setup()
        windows = prepared.test[:5]
        with pytest.raises(ContractError, match=f"batch_size must be >= 1, got {batch_size}"):
            next(training.forecasts(model, windows, batch_size))
        with pytest.raises(ContractError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate(model, windows, batch_size=batch_size)


class TestTrainLoop:
    def test_validation_improves_from_first_epoch(self):
        model, prepared = small_setup()
        result = train(model, prepared.train, prepared.val,
                       TrainConfig(lr0=1e-3, max_epochs=4, seed=0))
        assert result.history[-1].val_mse < result.history[0].val_mse

    def test_patience_stops_after_exactly_patience_plus_one_epochs(self):
        # frozen model (lr 0): the first epoch sets the best, nothing improves after
        model, prepared = small_setup()
        cfg = TrainConfig(lr0=0.0, patience=3, max_epochs=50, seed=0)
        result = train(model, prepared.train[:40], prepared.val[:10], cfg)
        assert result.stopped_early
        assert result.epochs_run == 4  # patience + 1

    def test_identical_seeds_give_bitwise_identical_history(self):
        a, prepared = small_setup(seed=7)
        b, _ = small_setup(seed=7)
        cfg = TrainConfig(max_epochs=3, seed=7)
        ra = train(a, prepared.train[:60], prepared.val[:10], cfg)
        rb = train(b, prepared.train[:60], prepared.val[:10], cfg)
        assert ra.history_csv() == rb.history_csv()

    def test_best_checkpoint_restored(self):
        model, prepared = small_setup()
        result = train(model, prepared.train[:60], prepared.val[:20],
                       TrainConfig(lr0=1e-3, max_epochs=5, seed=1))
        assert result.best_val_mse == min(r.val_mse for r in result.history)
        val_now, _ = evaluate(model, prepared.val[:20])
        np.testing.assert_allclose(val_now, result.best_val_mse, rtol=1e-12)

    def test_history_records_schedule(self):
        model, prepared = small_setup()
        result = train(model, prepared.train[:40], prepared.val[:10],
                       TrainConfig(max_epochs=5, seed=0))
        for row in result.history:
            assert row.lr == lr_schedule(row.epoch)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("variant", ["hgmts1", "hgmts4"])
    def test_divergence_aborts_with_diagnostics(self, variant):
        # hgmts4 ends in a non-finite loss; hgmts1's graph softmax refuses first
        model, prepared = small_setup(variant=variant)
        for p in model.parameters().values():
            p.values = p.values * 1e200
        with pytest.raises(TrainingDiverged, match="at epoch 0, batch 0; parameter norm"):
            train(model, prepared.train[:40], prepared.val[:10],
                  TrainConfig(max_epochs=1, seed=0))

    def test_numeric_error_in_validation_aborts_naming_the_pass(self, monkeypatch):
        model, prepared = small_setup()

        def refuse(*args, **kwargs):
            raise NumericError("softmax_rows requires finite inputs")

        monkeypatch.setattr(training, "evaluate", refuse)
        with pytest.raises(TrainingDiverged, match="at the validation pass of epoch 0; "
                                                   "parameter norm"):
            train(model, prepared.train[:8], prepared.val[:4],
                  TrainConfig(max_epochs=1, batch_size=8, seed=0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_validation_mse_aborts_naming_the_pass(self):
        model, prepared = small_setup(variant="hgmts4")
        huge = [(np.full_like(x, 1e306), np.full_like(y, 1e306)) for x, y in prepared.val[:4]]
        with pytest.raises(TrainingDiverged, match="non-finite validation MSE inf at the "
                                                   "validation pass of epoch 0; parameter norm"):
            train(model, prepared.train[:8], huge, TrainConfig(max_epochs=3, batch_size=8, seed=0))

    def test_empty_training_set_rejected(self):
        model, prepared = small_setup()
        with pytest.raises(ContractError):
            train(model, [], prepared.val, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("field, value", [
        ("lr0", float("nan")), ("lr0", -1e-4), ("lr0", float("inf")),
        ("backcast_loss_weight", -1.0), ("backcast_loss_weight", float("nan")), ("seed", -1),
    ])
    def test_bad_train_values_rejected_at_construction(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})

    def test_frozen_learning_rate_allowed(self):
        assert TrainConfig(lr0=0.0).lr0 == 0.0

    def test_validation_runs_at_the_training_batch_size(self, monkeypatch):
        model, prepared = small_setup()
        forward_batch = Model.forward_batch
        inference_passes = []

        def spy(self, windows, *args, step=None, **kwargs):
            if step is None:
                inference_passes.append(len(windows))
            return forward_batch(self, windows, *args, step=step, **kwargs)

        monkeypatch.setattr(Model, "forward_batch", spy)
        train(model, prepared.train[:16], prepared.val[:20],
              TrainConfig(max_epochs=2, batch_size=8, seed=0))
        assert inference_passes == [8, 8, 4] * 2

    def test_backcast_penalty_changes_training(self):
        a, prepared = small_setup(seed=5)
        b, _ = small_setup(seed=5)
        plain = train(a, prepared.train[:40], prepared.val[:10],
                      TrainConfig(max_epochs=2, seed=5))
        with_aux = train(b, prepared.train[:40], prepared.val[:10],
                         TrainConfig(max_epochs=2, seed=5, backcast_loss_weight=0.5))
        assert plain.history[0].train_loss != with_aux.history[0].train_loss

    def test_raw_space_evaluation_roundtrips_normalization(self):
        model, prepared = small_setup()
        norm_mse, _ = evaluate(model, prepared.test[:10])
        raw_mse, _ = evaluate(model, prepared.test[:10], prepared.stats)
        assert raw_mse > 0 and norm_mse > 0 and raw_mse != norm_mse


def has_no_tape(tensor) -> bool:
    """No parents and no closure: a leaf, or an op result computed while recording was off."""
    return tensor._parents == () and tensor._grad_fn in (None, _no_tape)


class TestTapeLifetime:
    """Inference passes record no tape at all.  A training step's tape is freed
    before the next forward pass starts, so two passes' tapes never share the
    peak.  Tensors take no weak references (__slots__), so the forecast's and
    the residual's gradient functions stand in for the tape."""

    @pytest.mark.parametrize("call", ["train", "evaluate"])
    def test_earlier_passes_are_dead_when_the_next_forward_starts(self, call, monkeypatch):
        model, prepared = small_setup()
        forward_batch = Model.forward_batch
        earlier, alive_at_entry = [], []

        def spy(self, *args, step=None, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in earlier))
            out = forward_batch(self, *args, step=step, **kwargs)
            forecast, residual, ctx = out
            if step is None:
                assert has_no_tape(forecast) and has_no_tape(residual)
                earlier.append(weakref.ref(ctx))
            else:
                earlier.extend(weakref.ref(obj)
                               for obj in (forecast._grad_fn, residual._grad_fn, ctx))
            return out

        monkeypatch.setattr(Model, "forward_batch", spy)
        if call == "train":  # per epoch: 3 steps, then two validation passes at batch 8
            train(model, prepared.train[:24], prepared.val[:16],
                  TrainConfig(max_epochs=2, batch_size=8, seed=0))
        else:
            evaluate(model, prepared.test[:24], batch_size=8)
        assert len(alive_at_entry) == (10 if call == "train" else 3)
        assert alive_at_entry == [0] * len(alive_at_entry)

    def test_inference_outputs_and_graphs_hold_no_tape(self, monkeypatch):
        model, prepared = small_setup()
        forward_batch = Model.forward_batch
        outputs = []

        def spy(self, *args, **kwargs):
            outputs.append(forward_batch(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(Model, "forward_batch", spy)
        evaluate(model, prepared.test[:24], batch_size=8)
        model.forward_batch(np.stack([x for x, _ in prepared.test[:3]]), collect=True)
        assert len(outputs) == 4 and outputs[-1][2].graph_records
        for forecast, residual, ctx in outputs:
            graphs = [g.weights for g in ctx.graphs.values()]
            records = [adj.weights for *_, adj in ctx.graph_records]
            assert graphs and all(map(has_no_tape, [forecast, residual, *graphs, *records]))

    def test_step_tape_is_dead_when_adam_starts(self, monkeypatch):
        model, prepared = small_setup()
        forward_batch, adam_step = Model.forward_batch, training.adam_step
        step_refs, alive_at_adam = [], []

        def forward_spy(self, *args, **kwargs):
            out = forward_batch(self, *args, **kwargs)
            forecast, residual, ctx = out
            step_refs[:] = [weakref.ref(obj) for obj in (forecast._grad_fn, residual._grad_fn, ctx)]
            return out

        def adam_spy(state):
            alive_at_adam.append(sum(ref() is not None for ref in step_refs))
            adam_step(state)

        monkeypatch.setattr(Model, "forward_batch", forward_spy)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        train(model, prepared.train[:24], [], TrainConfig(max_epochs=2, batch_size=8, seed=0))
        assert alive_at_adam == [0] * 6

    def test_step_outputs_are_dead_when_backward_starts(self, monkeypatch):
        """No backward reads the forecast or the residual array, so the step lets
        both go before its backward pass, and the tape does not hold them."""
        model, prepared = small_setup()
        forward_batch, backward = Model.forward_batch, ad.backward
        outputs, alive_at_backward = [], []

        def forward_spy(self, *args, **kwargs):
            out = forward_batch(self, *args, **kwargs)
            outputs[:] = [weakref.ref(out[0].values), weakref.ref(out[1].values)]
            return out

        def backward_spy(loss, parallel=False):
            alive_at_backward.append(sum(ref() is not None for ref in outputs))
            backward(loss, parallel)

        monkeypatch.setattr(Model, "forward_batch", forward_spy)
        monkeypatch.setattr(ad, "backward", backward_spy)
        train(model, prepared.train[:24], [], TrainConfig(max_epochs=1, batch_size=8, seed=0))
        assert alive_at_backward == [0] * 3


class TestTapeSize:
    """What one training step's tape holds, at small_setup's shape (1 stack, 1 round).
    Each MLP2 and each round is one node; a change to these figures is deliberate."""

    @staticmethod
    def step_inventory(variant):
        model, prepared = small_setup(variant=variant)
        batch = prepared.train[:8]

        def build_loss():  # the loss alone survives, as in training's step
            forecast = model.forward_batch(np.stack([x for x, _ in batch]), step=0)[0]
            return mse_loss(forecast, np.concatenate([y for _, y in batch]))

        return tape_inventory(build_loss)

    @pytest.mark.parametrize("variant, nodes, nbytes", [("hgmts1", 96, 49_280),
                                                        ("hgmts4", 28, 16_000)])
    def test_training_step_tape_is_pinned(self, variant, nodes, nbytes):
        inventory = self.step_inventory(variant)
        assert (inventory.nodes, inventory.saved) == (nodes, nbytes)

    @pytest.mark.parametrize("variant", ["hgmts1", "hgmts4"])
    def test_no_op_output_outlives_the_forward_pass_unsaved(self, variant):
        assert self.step_inventory(variant).unsaved == 0

    def test_an_inference_pass_creates_no_node(self, monkeypatch):
        model, prepared = small_setup()
        created = []
        init = ad._Node.__init__

        def counting_init(self, *args):
            created.append(self)
            init(self, *args)

        monkeypatch.setattr(ad._Node, "__init__", counting_init)
        xs = np.stack([x for x, _ in prepared.test[:8]])
        model.forward_batch(xs, collect=True)
        assert created == []
        model.forward_batch(xs, step=0)
        assert created  # the count sees a recorded pass's nodes

    def test_tape_grows_with_n_by_graph_arrays_only(self):
        """From n = N/4 to n = N, one hgmts1 step's tape grows by at most 16
        (B, n, n)-sized arrays: each of the step's two graphs keeps its logits,
        weights and index arrays, and no round keeps its (B, n, n, H) hidden
        layer, which at H = 8 would be 8 such arrays per round and pathway."""
        n_nodes, batch = 32, 2
        rng = np.random.default_rng(0)
        windows, targets = rng.uniform(-1, 1, (batch, n_nodes, 12)), rng.uniform(-1, 1, (64, 4))
        nbytes = []
        for gamma in (0.25, 1.0):
            cfg = ModelConfig(n_nodes=n_nodes, input_len=12, horizon=4, embed_dim=4, hidden_dim=8,
                              kernel=5, stacks=1, rounds=2, gamma=gamma)
            model = build_variant(cfg)
            inventory = tape_inventory(
                lambda: mse_loss(model.forward_batch(windows, step=0)[0], targets))
            nbytes.append(inventory.saved + inventory.unsaved)
        assert nbytes[1] - nbytes[0] <= 16 * batch * n_nodes**2 * 8


class TestReportAveraging:
    def test_average_over_seeds_is_arithmetic_mean(self):
        rows = [
            {"dataset": "d", "variant": "hgmts1", "gamma": 0.5, "horizon": 4,
             "seed": s, "mse": m, "mae": a, "epochs": 3, "wall_s": 1.0}
            for s, m, a in [(0, 0.3, 0.2), (1, 0.6, 0.5), (2, 0.9, 0.8)]
        ]
        avg = EvalReport(rows).averaged()
        assert len(avg.rows) == 1
        np.testing.assert_allclose(avg.rows[0]["mse"], 0.6)
        np.testing.assert_allclose(avg.rows[0]["mae"], 0.5)
        assert avg.rows[0]["seed"] == "avg3"

    def test_csv_header(self):
        text = EvalReport([]).to_csv()
        assert text.splitlines()[0] == "dataset,variant,gamma,horizon,seed,mse,mae,epochs,wall_s"
