"""Two threads at large sizes: ``autodiff.both``, the block that uses it, and the
backward pass that drains one tape on two threads.

The threaded path runs only when a batch's (rows, embed_dim) arrays reach
``autodiff.PARALLEL_MIN_SIZE``; the fixture below lowers it so that these tiny
models run every two-pathway phase and every backward pass on two threads, and
it claims 2 usable CPUs so the path runs on any host.
"""

import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import jitter_params, saving_gru_round, tape_nodes
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, NumericError, Tensor, _no_tape
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


class GradSpy:
    """Wraps every gradient function recorded while installed: notes the thread
    that runs it, sleeps a random 0-2 ms before about half of them once ``rng``
    is set, and raises ``error`` the first time one runs on thread ``fail_on``."""

    def __init__(self):
        self.threads: list[str] = []
        self.rng: random.Random | None = None
        self.error, self.fail_on = None, None

    def wrap(self, fn):
        def spied(g):
            here = where()
            self.threads.append(here)
            if here == self.fail_on:
                self.fail_on = None
                raise self.error
            if self.rng is not None and self.rng.random() < 0.5:
                time.sleep(self.rng.uniform(0, 0.002))
            return fn(g)

        return spied


@pytest.fixture
def grad_spy(monkeypatch):
    spy = GradSpy()
    init = Tensor.__init__

    def spied_init(self, values, _parents=(), _grad_fn=None):
        init(self, values, _parents, None if _grad_fn is None else spy.wrap(_grad_fn))

    monkeypatch.setattr(Tensor, "__init__", spied_init)
    return spy


@pytest.fixture
def short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


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
    ad.backward(loss, parallel=ctx.parallel)
    grads = {name: None if p.grad is None else p.grad.tobytes()
             for name, p in model.parameters().items()}
    records = [(s, b, p, w, adj.selected_queries.tobytes(), adj.selected_keys.tobytes(),
                adj.weights.values.tobytes()) for s, b, p, w, adj in ctx.graph_records]
    history = train(build_variant(cfg), windows(12, seed=1), windows(4, seed=2),
                    TrainConfig(lr0=1e-3, max_epochs=2, batch_size=4, seed=0,
                                backcast_loss_weight=backcast_weight)).history_csv()
    return forecast.values.tobytes(), residual.values.tobytes(), grads, nodes, records, history


def step_grads(variant, parallel, seed=0):
    """Every parameter's gradient, as bytes, after one backward pass of a fresh
    model over a batch of 4 windows, with a backcast term in the loss."""
    model = build_variant(ModelConfig(**SMALL, variant=variant))
    batch = windows(4, seed=seed)
    forecast, residual, _ = model.forward_batch(np.stack([x for x, _ in batch]), step=0)
    loss = ad.add(mse_loss(forecast, np.concatenate([y for _, y in batch])),
                  ad.mul(ad.mean(ad.mul(residual, residual)), 0.1))
    ad.backward(loss, parallel=parallel)
    return {name: None if p.grad is None else p.grad.tobytes()
            for name, p in model.parameters().items()}


def in_thread(fn, timeout=60):
    """fn() on a daemon thread: its result or its error, or a failure when it has
    not finished within ``timeout`` seconds."""
    out = {}

    def run():
        try:
            out["result"] = fn()
        except Exception as exc:  # handed to the test's thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), f"not finished within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


class TestBoth:
    def test_runs_first_on_the_worker_and_returns_in_order(self, threaded):
        assert ad.both(where, where, True) == ("worker", "caller")

    def test_inline_without_parallel_or_a_second_cpu(self, threaded, monkeypatch):
        assert ad.both(where, where, False) == ("caller", "caller")
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
        assert ad.both(where, where, True) == ("caller", "caller")

    def test_a_call_from_the_worker_starts_its_own_worker(self, threaded):
        def nested():
            first, second = ad.both(threading.get_ident, threading.get_ident, True)
            return ad.both(where, where, True), first != second

        assert in_thread(lambda: ad.both(nested, where, True)) == (
            (("worker", "worker"), True), "caller")

    def test_a_call_from_second_starts_its_own_worker(self, threaded):
        # first waits on second's nested call: had that call to wait for first's
        # thread, the two would wait on each other until the event times out
        release = threading.Event()
        idents = {}

        def first():
            idents["first"] = threading.get_ident()
            release.wait(timeout=30)
            return where()

        def nested_first():
            idents["nested"] = threading.get_ident()
            return where()

        def second():
            nested = ad.both(nested_first, where, True)
            release.set()
            return nested

        assert in_thread(lambda: ad.both(first, second, True), timeout=10) == (
            "worker", ("worker", "caller"))
        assert release.is_set() and idents["nested"] != idents["first"]

    def test_no_worker_outlives_the_call(self, threaded):
        def workers():
            return [t for t in threading.enumerate() if t.name.startswith("hgmts-worker")]

        assert ad.both(where, where, True) == ("worker", "caller")
        assert workers() == []

        def fail():
            raise KeyError("first")

        with pytest.raises(KeyError, match="first"):
            ad.both(fail, where, True)
        assert workers() == []

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

    def test_a_worker_job_that_never_returns_does_not_hold_the_exit(self):
        script = textwrap.dedent("""
            import threading
            from hgmts import autodiff as ad
            ad._usable_cpus = lambda: 2
            started = threading.Event()

            def stuck():
                started.set()
                threading.Event().wait()

            threading.Thread(target=ad.both, args=(stuck, lambda: None, True), daemon=True).start()
            assert started.wait(30)
            print("exiting")
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "exiting\n"), done.stderr


class TestThreadedBackward:
    @pytest.mark.parametrize("variant", ["hgmts1", "hgmts2", "hgmts3", "hgmts6"])
    def test_bitwise_the_serial_walk_in_any_order(self, variant, threaded, grad_spy,
                                                  short_switch_interval):
        serial = step_grads(variant, parallel=False)
        assert "worker" not in grad_spy.threads
        grad_spy.rng = random.Random(variant)
        for _ in range(5):
            assert in_thread(lambda: step_grads(variant, parallel=True)) == serial
        assert "worker" in grad_spy.threads

    @pytest.mark.parametrize("variant", ["hgmts1", "hgmts4", "hgmts5"])
    def test_a_training_step_drains_on_two_threads_with_two_pathways(self, variant, threaded,
                                                                     grad_spy):
        grad_spy.rng = random.Random(2)  # only backward passes run gradient functions
        in_thread(lambda: train(build_variant(ModelConfig(**SMALL, variant=variant)), windows(4),
                                [], TrainConfig(max_epochs=1, batch_size=4)))
        assert ("worker" in grad_spy.threads) == (variant != "hgmts5")

    def test_two_callers_run_threaded_backward_passes_at_once(self, threaded,
                                                              short_switch_interval):
        # a worker's drain may start after its caller has drained the whole walk, and
        # must then return at once
        serial = [step_grads("hgmts1", parallel=False, seed=k) for k in (0, 1)]
        start = threading.Barrier(2)
        results: dict = {}

        def work(k):
            start.wait()
            results[k] = [step_grads("hgmts1", parallel=True, seed=k) for _ in range(3)]

        callers = [threading.Thread(target=work, args=(k,), daemon=True) for k in (0, 1)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
            assert not t.is_alive()
        assert [results[k] for k in (0, 1)] == [[want] * 3 for want in serial]

    @pytest.mark.parametrize("fail_on", ["worker", "caller"])
    def test_an_error_on_either_thread_reaches_the_caller(self, fail_on, threaded, grad_spy):
        serial = step_grads("hgmts1", parallel=False)
        grad_spy.rng = random.Random(1)  # sleeps let the worker take nodes
        grad_spy.error, grad_spy.fail_on = KeyError("gradient"), fail_on
        with pytest.raises(KeyError) as raised:
            in_thread(lambda: step_grads("hgmts1", parallel=True))
        assert raised.value is grad_spy.error
        assert in_thread(lambda: step_grads("hgmts1", parallel=True)) == serial

    def test_sums_in_the_documented_order(self, threaded, grad_spy, short_switch_interval):
        """Each node adds its incoming gradients left to right, consumers by
        descending topological position, then by parent-tuple index, with values
        whose float sum depends on that order; serial and in any interleaving."""
        big = 2.0**53  # big + 1.0 rounds back to big

        def leaf_grads(parallel):
            x, w = Tensor(np.ones(1)), Tensor(np.ones(1))
            t = ad.mul(x, w)  # an op node with three consumers
            u1, u2, u3 = ad.mul(t, 1.0), ad.mul(t, big), ad.mul(t, -big)
            sq, v = ad.mul(x, x), ad.mul(x, big)  # x: four slots, two from one consumer
            loss = ad.add(ad.add(ad.add(u1, u2), u3), ad.add(sq, v))
            ad.backward(loss, parallel=parallel)
            return x.grad.tobytes(), w.grad.tobytes()

        # positions: x 0, v 1, sq 2, sq + v 3, w 4, t 5, u3 6, u2 7, u1 8, ...
        g = np.ones(1)
        t_sum = g * 1.0 + g * big + g * -big  # u1, u2, u3
        x_sum = t_sum * 1.0 + g * 1.0 + g * 1.0 + g * big  # t, sq's first and second parent, v
        assert (t_sum[0], x_sum[0]) == (0.0, big + 2)
        assert (g * -big + g * big + g * 1.0)[0] == 1.0  # the reversed fold differs
        want = (x_sum.tobytes(), (t_sum * 1.0).tobytes())
        assert leaf_grads(parallel=False) == want
        grad_spy.rng = random.Random(3)
        for _ in range(20):
            assert in_thread(lambda: leaf_grads(parallel=True)) == want
        assert "worker" in grad_spy.threads

    def test_a_deep_tape_walks_without_recursion(self, threaded):
        depth, factor = 20_000, 1.0 + 2.0**-20
        want = 1.0
        for _ in range(depth):
            want *= factor  # each op multiplies the gradient once, from the loss down
        for parallel in (False, True):
            x = Tensor(np.ones(1))
            y = x
            for _ in range(depth):
                y = ad.mul(y, factor)
            in_thread(lambda: ad.backward(y, parallel=parallel))
            assert x.grad.tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_gradient_function_must_return_one_gradient_per_parent(self, parallel, threaded):
        # a parent left without its gradient would keep the walk waiting for it
        x, y = Tensor(1.0), Tensor(2.0)
        short = Tensor(3.0, (x, y), lambda g: (g,))
        with pytest.raises(ValueError, match="zip"):
            in_thread(lambda: ad.backward(short, parallel=parallel), timeout=10)

    def test_a_tapeless_result_is_refused(self, threaded):
        w = Tensor(np.ones((3, 2)))
        with ad.recording(False):
            tapeless = ad.mul(Tensor(np.ones((3, 2))), 2.0)
        loss = ad.mean(ad.add(ad.mul(w, w), tapeless))
        with pytest.raises(ContractError, match="computed without a tape"):
            ad.backward(loss, parallel=True)


class TestThreadedModel:
    @pytest.mark.parametrize("backcast_weight", [0.0, 0.1])
    @pytest.mark.parametrize("variant", VARIANT_IDS)
    def test_bitwise_equal_to_serial(self, variant, backcast_weight, monkeypatch,
                                     encoder_threads, grad_spy):
        serial = one_step_and_training(variant, backcast_weight)
        assert "worker" not in encoder_threads + grad_spy.threads
        monkeypatch.setattr(ad, "PARALLEL_MIN_SIZE", 1)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
        grad_spy.rng = random.Random(0)  # sleeps free the caller's hold on the interpreter
        threaded = one_step_and_training(variant, backcast_weight)
        two_pathways = variant != "hgmts5"
        assert ("worker" in encoder_threads) == two_pathways
        assert ("worker" in grad_spy.threads) == two_pathways
        assert threaded == serial

    def test_gated_round_backward_is_bitwise_the_round_that_saves_every_array(self):
        reg = ParamRegistry(seed=65)
        unit = MessagePassingUnit(reg, "u", 6, 4, 3)
        jitter_params(reg, seed=66, scale=0.5)
        rng = np.random.default_rng(67)
        h, x = Tensor(rng.uniform(-1, 1, (5, 4))), Tensor(rng.uniform(-1, 1, (2, 4)))
        g = rng.uniform(-1, 1, (5, 4))
        cells = (unit.gru1, unit.gru2)
        grads = gru_round(h, x, [3, 0], cells, unit.gate)._grad_fn(g)
        ref_grads = saving_gru_round(h, x, [3, 0], cells, unit.gate)._grad_fn(g)
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

    def test_concurrent_callers_each_start_a_worker(self, threaded):
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
        expected = model.forward_batch(xs)[0].values  # workers have run in this process
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
