"""Two threads at large sizes: ``autodiff.both`` and the block and round that use it.

The threaded path runs only when a batch's (rows, embed_dim) arrays reach
``autodiff.PARALLEL_MIN_SIZE``; the fixture below lowers it so that these tiny
models run every two-pathway phase and every gated round's backward on two
threads, and it claims 2 usable CPUs so the path runs on any host.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from helpers import jitter_params, saving_gru_round, tape_nodes
from hgmts import autodiff as ad
from hgmts.autodiff import NumericError, Tensor, _no_tape
from hgmts.message_passing import MessagePassingUnit
from hgmts.metrics import mse_loss
from hgmts.model import ModelConfig, VARIANT_IDS, build_variant
from hgmts.nn import ParamRegistry, gru_round
from hgmts.training import TrainConfig, TrainingDiverged, train

SMALL = dict(n_nodes=6, input_len=12, horizon=4, embed_dim=4, kernel=5, rounds=2, stacks=2,
             gamma=0.5, seed=3)


def where() -> str:
    """Which thread runs this: "worker", the one ``ad.both`` starts, or "caller"."""
    return "worker" if threading.current_thread().name.startswith("hgmts-worker") else "caller"


@pytest.fixture
def threaded(monkeypatch):
    monkeypatch.setattr(ad, "PARALLEL_MIN_SIZE", 1)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)


@pytest.fixture
def encoder_threads(monkeypatch):
    """Names of the threads that ran each encoder call."""
    names = []
    encode = MessagePassingUnit.encode_nodes

    def spy(self, x):
        names.append(where())
        return encode(self, x)

    monkeypatch.setattr(MessagePassingUnit, "encode_nodes", spy)
    return names


def windows(count, seed=0):
    rng = np.random.default_rng(seed)
    n, length, horizon = SMALL["n_nodes"], SMALL["input_len"], SMALL["horizon"]
    return [(rng.uniform(-1, 1, (n, length)), rng.uniform(-1, 1, (n, horizon)))
            for _ in range(count)]


def one_step_and_training(variant, backcast_weight):
    """Forward values, gradients, tape size and graph records of one step, and the
    history of a 2-epoch training run, as bytes and numbers."""
    cfg = ModelConfig(**SMALL, variant=variant)
    model = build_variant(cfg)
    batch = windows(4)
    forecast, residual, ctx = model.forward_batch(np.stack([x for x, _ in batch]), collect=True,
                                                  step=0)
    loss = mse_loss(forecast, np.concatenate([y for _, y in batch]))
    if backcast_weight:
        loss = ad.add(loss, ad.mul(ad.mean(ad.mul(residual, residual)), backcast_weight))
    nodes = len(tape_nodes(loss))
    ad.backward(loss)
    grads = {name: None if p.grad is None else p.grad.tobytes()
             for name, p in model.parameters().items()}
    records = [(s, b, p, w, adj.selected_queries.tobytes(), adj.selected_keys.tobytes(),
                adj.weights.values.tobytes()) for s, b, p, w, adj in ctx.graph_records]
    history = train(build_variant(cfg), windows(12, seed=1), windows(4, seed=2),
                    TrainConfig(lr0=1e-3, max_epochs=2, batch_size=4, seed=0,
                                backcast_loss_weight=backcast_weight)).history_csv()
    return forecast.values.tobytes(), residual.values.tobytes(), grads, nodes, records, history


class TestBoth:
    def test_runs_first_on_the_worker_and_returns_in_order(self, threaded):
        assert ad.both(where, where, True) == ("worker", "caller")

    def test_inline_without_parallel_or_a_second_cpu(self, threaded, monkeypatch):
        assert ad.both(where, where, False) == ("caller", "caller")
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
        assert ad.both(where, where, True) == ("caller", "caller")

    def test_a_call_from_the_worker_runs_inline(self, threaded):
        out = {}

        def nested():
            return ad.both(where, where, True)

        caller = threading.Thread(target=lambda: out.update(both=ad.both(nested, where, True)),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert out["both"] == (("worker", "worker"), "caller")

    def test_worker_runs_under_the_recording_switch_and_errstate(self, threaded):
        x = Tensor(np.ones(3))
        with ad.recording(False):
            first, second = ad.both(lambda: ad.mul(x, x), lambda: ad.mul(x, x), True)
        assert first._grad_fn is _no_tape and second._grad_fn is _no_tape
        first, _ = ad.both(lambda: ad.mul(x, x), lambda: None, True)
        assert first._parents == (x, x)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            ad.both(lambda: np.ones(2) / np.zeros(2), lambda: None, True)

    def test_joins_the_worker_and_the_first_error_wins(self, threaded):
        done = threading.Event()

        def slow_first():
            done.wait(timeout=0.2)
            done.set()

        def fail():
            raise KeyError("second")

        with pytest.raises(KeyError, match="second"):
            ad.both(slow_first, fail, True)
        assert done.is_set()  # joined before the second's error surfaced

        def fail_first():
            raise ValueError("first")

        with pytest.raises(ValueError, match="first"):
            ad.both(fail_first, fail, True)


class TestThreadedModel:
    @pytest.mark.parametrize("backcast_weight", [0.0, 0.1])
    @pytest.mark.parametrize("variant", VARIANT_IDS)
    def test_bitwise_equal_to_serial(self, variant, backcast_weight, monkeypatch,
                                     encoder_threads):
        serial = one_step_and_training(variant, backcast_weight)
        assert "worker" not in encoder_threads
        monkeypatch.setattr(ad, "PARALLEL_MIN_SIZE", 1)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        threaded = one_step_and_training(variant, backcast_weight)
        assert ("worker" in encoder_threads) == (variant != "hgmts5")  # hgmts5 has one pathway
        assert threaded == serial

    def test_gated_round_backward_is_bitwise_the_round_that_saves_every_array(
            self, threaded, monkeypatch):
        reg = ParamRegistry(seed=65)
        unit = MessagePassingUnit(reg, "u", 6, 4, 3)
        jitter_params(reg, seed=66, scale=0.5)
        rng = np.random.default_rng(67)
        h, x = Tensor(rng.uniform(-1, 1, (5, 4))), Tensor(rng.uniform(-1, 1, (2, 4)))
        g = rng.uniform(-1, 1, (5, 4))
        cells = (unit.gru1, unit.gru2)
        ran_on, both = [], ad.both

        def spy(first, second, parallel):
            def first_spied():
                ran_on.append(where())
                return first()

            return both(first_spied, second, parallel)

        monkeypatch.setattr(ad, "both", spy)
        grads = gru_round(h, x, [3, 0], cells, unit.gate)._grad_fn(g)
        ref_grads = saving_gru_round(h, x, [3, 0], cells, unit.gate)._grad_fn(g)
        assert ran_on == ["worker"]
        assert [a.tobytes() for a in grads] == [a.tobytes() for a in ref_grads]

    def test_inference_through_the_worker_keeps_no_tape(self, threaded, encoder_threads):
        model = build_variant(ModelConfig(**SMALL))
        forecast, residual, ctx = model.forward_batch(np.stack([x for x, _ in windows(3)]),
                                                      collect=True)
        assert "worker" in encoder_threads
        graphs = [g.weights for g in ctx.graphs.values()]
        assert graphs and all(t._parents == () and t._grad_fn is _no_tape
                              for t in [forecast, residual, *graphs])

    def test_numeric_error_on_the_worker_diverges_and_the_next_call_runs(self, threaded,
                                                                         monkeypatch):
        softmax_rows = ad.softmax_rows

        def refuse_on_worker(a):
            if where() == "worker":
                raise NumericError("softmax_rows requires finite inputs")
            return softmax_rows(a)

        cfg = ModelConfig(**SMALL)
        monkeypatch.setattr(ad, "softmax_rows", refuse_on_worker)
        with pytest.raises(TrainingDiverged, match="at epoch 0, batch 0; parameter norm"):
            train(build_variant(cfg), windows(4), [], TrainConfig(max_epochs=1, batch_size=4))
        monkeypatch.setattr(ad, "softmax_rows", softmax_rows)
        result = train(build_variant(cfg), windows(4), [], TrainConfig(max_epochs=1, batch_size=4))
        assert np.isfinite(result.best_val_mse)

    def test_concurrent_callers_share_the_worker(self, threaded):
        model = build_variant(ModelConfig(**SMALL))
        batches = [np.stack([x for x, _ in windows(k, seed=k)]) for k in (1, 2, 3)]
        expected = [model.forward_batch(xs)[0].values for xs in batches]
        results: dict = {}
        start = threading.Barrier(3)

        def work(i):
            start.wait()
            results[i] = [model.forward_batch(batches[i])[0].values for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, want in enumerate(expected):
            assert all(np.array_equal(got, want) for got in results[i])

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
    def test_forked_child_runs_a_threaded_forward(self, threaded, encoder_threads):
        model = build_variant(ModelConfig(**SMALL))
        xs = np.stack([x for x, _ in windows(2)])
        expected = model.forward_batch(xs)[0].values  # the worker now runs in this process
        assert "worker" in encoder_threads
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            encoder_threads.clear()
            send.send((model.forward_batch(xs)[0].values, list(encoder_threads)))

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        try:
            assert receive.poll(60), "the forked child's threaded forward did not finish"
            values, names = receive.recv()
        finally:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0
        assert "worker" in names
        np.testing.assert_array_equal(values, expected)
