"""Block/stack/model wiring, residual chaining, and the six variants."""

import hashlib
import re
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import block_outputs, finite_diff_max_err, jitter_params, pathway_outputs
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, Tensor
from hgmts.checkpoint import save_checkpoint
from hgmts.model import Block, BlockOutput, ForwardContext, ModelConfig, build_variant, load_model
from hgmts.training import evaluate

TINY = dict(n_nodes=3, input_len=8, horizon=4, embed_dim=4, kernel=3, rounds=3,
            stacks=1, blocks_per_stack=1, gamma=1.0)


def tiny_model(variant="hgmts1", seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides, "variant": variant, "seed": seed})
    return build_variant(cfg)


# Pinned from the wiring before the graph key, at stacks=2, blocks_per_stack=2:
# (parameter count, sha256 prefix of the sorted names joined by newlines, the
# (stack, block, pathway) of every pathway that builds a graph).  Each of them
# owns the only wq/wk of its key; the others reuse its graph.
ALL_PATHWAYS = [(s, b, p) for s in (0, 1) for b in (0, 1) for p in ("seas", "trend")]
SHARING = {
    "hgmts1": (272, "4cbc1d7f743159d9", ALL_PATHWAYS),
    "hgmts2": (264, "a96b1fe85bda8294", [t for t in ALL_PATHWAYS if t[2] == "seas"]),
    "hgmts3": (260, "bd12ca5556631451", ALL_PATHWAYS[:2]),
    "hgmts4": (96, "f9e59f08857d7742", []),
    "hgmts5": (136, "21bfd1cc9caaab88", [(s, b, "main") for s in (0, 1) for b in (0, 1)]),
    "hgmts6": (192, "bd022ca9109ffb04", ALL_PATHWAYS),
}


def rand_window(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (cfg.n_nodes, cfg.input_len))


def zero_forecast_heads(model):
    for name, p in model.registry.params.items():
        if ".forecast.l2." in name:
            p.values = np.zeros_like(p.values)


class TestBlockForward:
    def test_paper_scale_shapes(self):
        model = tiny_model(n_nodes=7, input_len=96, horizon=192, embed_dim=8, kernel=25)
        out = block_outputs(model, rand_window(model.cfg))[0]
        assert out.backcast.shape == (7, 96)
        assert out.forecast.shape == (7, 192)

    def test_zeroed_forecast_heads_give_zero_forecast(self):
        model = tiny_model()
        zero_forecast_heads(model)
        out = block_outputs(model, rand_window(model.cfg))[0]
        np.testing.assert_array_equal(out.forecast.values, np.zeros((3, 4)))

    def test_single_pathway_variant_output_is_its_pathway_output(self):
        model = tiny_model("hgmts5")
        x = rand_window(model.cfg)
        out = block_outputs(model, x)[0]
        pieces = pathway_outputs(model.stacks[0][0], Tensor(x))
        assert list(pieces) == ["main"]
        bc, fc = pieces["main"]
        np.testing.assert_array_equal(out.backcast.values, bc.values)
        np.testing.assert_array_equal(out.forecast.values, fc.values)

    def test_pathway_sum_identities(self):
        model = tiny_model()
        x = rand_window(model.cfg)
        out = block_outputs(model, x)[0]
        pieces = pathway_outputs(model.stacks[0][0], Tensor(x))
        bc_seas, fc_seas = pieces["seas"]
        bc_trend, fc_trend = pieces["trend"]
        np.testing.assert_array_equal(out.backcast.values,
                                      bc_seas.values + bc_trend.values)
        np.testing.assert_array_equal(out.forecast.values,
                                      fc_seas.values + fc_trend.values)


class FakeBlock:
    """Echo block: backcast equals its input, forecast is a constant."""

    def __init__(self, cfg, forecast):
        self.cfg = cfg
        self.forecast = forecast
        self.inputs = []

    def forward(self, x, batch=1, ctx=None):
        self.inputs.append(x.values.copy())
        return BlockOutput(backcast=Tensor(x.values.copy()), forecast=Tensor(self.forecast))


class TestStackForward:
    def test_backcast_equal_to_input_leaves_zero_residual(self):
        cfg = ModelConfig(**{**TINY, "variant": "hgmts1", "seed": 0})
        fake = FakeBlock(cfg, np.ones((3, 4)))
        x = rand_window(cfg)
        model = build_variant(cfg)
        model.stacks = [[fake]]
        forecast, residual, _ = model.forward_batch(x)
        np.testing.assert_array_equal(residual.values, np.zeros_like(x))
        np.testing.assert_array_equal(forecast.values, np.ones((3, 4)))

    def test_second_block_receives_first_residual(self):
        cfg = ModelConfig(**{**TINY, "variant": "hgmts1", "seed": 0})
        first = FakeBlock(cfg, np.ones((3, 4)))
        second = FakeBlock(cfg, 2 * np.ones((3, 4)))
        x = rand_window(cfg)
        model = build_variant(cfg)
        model.stacks = [[first, second]]
        forecast, residual, _ = model.forward_batch(x)
        np.testing.assert_array_equal(second.inputs[0], x - first.inputs[0])
        np.testing.assert_array_equal(forecast.values, 3 * np.ones((3, 4)))

    def test_two_real_blocks_forecast_sum(self):
        model = tiny_model(blocks_per_stack=2)
        x = rand_window(model.cfg)
        forecast, _, _ = model.forward_batch(x)
        total = sum(out.forecast.values for out in block_outputs(model, x))
        np.testing.assert_allclose(forecast.values, total, atol=1e-12)

    def test_empty_stack_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(**{**TINY, "blocks_per_stack": 0})


class TestModelForward:
    def test_all_zeroed_heads_give_zero_global_forecast(self):
        model = tiny_model(stacks=3)
        zero_forecast_heads(model)
        out = model.forward(rand_window(model.cfg))
        np.testing.assert_array_equal(out.values, np.zeros((3, 4)))

    def test_single_stack_equals_stack_forward(self):
        x = rand_window(ModelConfig(**{**TINY, "variant": "hgmts1"}))
        a = tiny_model(seed=5)
        b = tiny_model(seed=5)
        whole = a.forward(x)
        ctx = ForwardContext()
        residual, stack_fc = Tensor(x), None
        for block in b.stacks[0]:
            out = block.forward(residual, ctx)
            residual = ad.sub(residual, out.backcast)
            stack_fc = out.forecast if stack_fc is None else ad.add(stack_fc, out.forecast)
        np.testing.assert_allclose(whole.values, stack_fc.values, atol=1e-12)

    def test_three_stacks_match_stepwise_composition(self):
        """The model output must equal the hand-chained per-block outputs."""
        model = tiny_model(stacks=3, seed=7)
        x = rand_window(model.cfg, seed=1)
        forecast, residual, _ = model.forward_batch(x)
        running = x.copy()
        total = np.zeros((3, 4))
        for out in block_outputs(model, x):
            running = running - out.backcast.values
            total = total + out.forecast.values
        np.testing.assert_allclose(forecast.values, total, atol=1e-12)
        np.testing.assert_allclose(residual.values, running, atol=1e-12)

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    def test_residual_telescoping(self, stacks):
        model = tiny_model(stacks=stacks, seed=stacks)
        x = rand_window(model.cfg, seed=stacks)
        forecast, residual, _ = model.forward_batch(x)
        backcast_sum = sum(out.backcast.values for out in block_outputs(model, x))
        np.testing.assert_allclose(backcast_sum + residual.values, x, atol=1e-10)

    def test_window_shape_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError):
            model.forward(np.zeros((4, 8)))

    @pytest.mark.parametrize("shape", [(48,), (1, 1, 8, 48)])
    def test_window_array_of_wrong_rank_rejected_naming_its_shape(self, shape):
        with pytest.raises(ContractError, match=re.escape(str(shape))):
            tiny_model().forward_batch(np.zeros(shape))

    @pytest.mark.parametrize("step", [None, 0])
    def test_edge_memory_over_budget_refused_before_any_work(self, step):
        """N=2000 at gamma 1: a round over 8 windows would need 8 * 2000^2 * 8 * 8
        bytes per (B, n, n, H) array.  Refused before even one (B, n, H) row array."""
        cfg = ModelConfig(n_nodes=2000, input_len=12, horizon=4, embed_dim=8, kernel=5,
                          stacks=1, rounds=1, gamma=1.0)
        windows = np.zeros((8, 2000, 12))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=r"batch of 8 windows with n=2000 would "
                                                    r"hold about 2,441 MiB"):
                build_variant(cfg).forward_batch(windows, step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000 * 8 * 8
        no_graph = build_variant(ModelConfig(**{**vars(cfg), "variant": "hgmts4"}))
        assert no_graph.forward_batch(windows[:1], step=step)[0].shape == (2000, 4)

    @pytest.mark.parametrize("variant", ["hgmts1", "hgmts4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_refused_naming_its_place(self, monkeypatch, variant, bad):
        model = tiny_model(variant)
        windows = np.stack([rand_window(model.cfg, seed) for seed in (1, 2)])
        windows[1, 2, 5] = bad

        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(Block, "forward", no_block)
        with pytest.raises(ContractError, match=f"window 1, node 2, step 5 holds {bad}"):
            model.forward_batch(windows)

    def test_inference_pass_cannot_be_differentiated(self):
        model = tiny_model()
        forecast = model.forward_batch(rand_window(model.cfg))[0]
        with pytest.raises(ContractError, match="training step"):
            ad.backward(ad.mean(ad.mul(forecast, forecast)))

    def test_end_to_end_tiny_gradient_check(self):
        model = tiny_model(seed=11)
        jitter_params(model.registry, seed=12)
        x = rand_window(model.cfg, seed=13)
        probe = np.random.default_rng(14).uniform(-1, 1, (3, 4))

        def loss():
            return ad.sum(ad.mul(model.forward_batch(x, step=0)[0], Tensor(probe)))

        leaves = list(model.parameters().values())
        assert finite_diff_max_err(loss, leaves, max_per_leaf=4) < 1e-4


class TestVariants:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError, match="hgmts9"):
            ModelConfig(**{**TINY, "variant": "hgmts9"})

    @pytest.mark.parametrize("bad, match", [({"kernel": -1}, "kernel"), ({"kernel": 0}, "kernel"),
                                            ({"padding": "mirror"}, "mirror")])
    def test_bad_decomposition_settings_rejected_at_construction(self, bad, match):
        with pytest.raises(ContractError, match=match):
            ModelConfig(**{**TINY, **bad})

    @pytest.mark.parametrize("field, value", [
        ("n_nodes", 0), ("input_len", 0), ("horizon", 0), ("embed_dim", 0), ("hidden_dim", 0),
        ("rounds", -1), ("gamma", -1.0), ("gamma", 0.0), ("gamma", 3.0), ("gamma", float("nan")),
        ("sampling_c", -2.0), ("sampling_c", 0.0), ("sampling_c", float("nan")),
        ("sampling_c", float("inf")), ("seed", -1),
    ])
    def test_bad_model_values_rejected_at_construction(self, field, value):
        # hgmts4 builds no graph, so rounds and the selection size are never read there
        with pytest.raises(ContractError, match=field):
            ModelConfig(**{**TINY, "variant": "hgmts4", "gamma": None, field: value})

    def test_graphless_variant_gives_identical_forecasts_for_identical_windows(self):
        model = tiny_model("hgmts4", n_nodes=2)
        row = np.random.default_rng(15).uniform(-1, 1, 8)
        out = model.forward(np.stack([row, row])).values
        np.testing.assert_array_equal(out[0], out[1])

    def test_single_gru_variant_matches_full_model_with_copied_grus(self):
        full = tiny_model("hgmts1", seed=21)
        single = tiny_model("hgmts6", seed=21)
        # align the shared parameters, then make the full model's GRUs identical
        values = full.registry.named_values()
        for name in list(values):
            if ".gru1." in name:
                values[name.replace(".gru1.", ".gru2.")] = values[name].copy()
        full.registry.load_values(values)
        single_values = {name: values[name] for name in single.registry.params}
        single.registry.load_values(single_values)
        x = rand_window(full.cfg, seed=22)
        np.testing.assert_allclose(full.forward(x).values, single.forward(x).values,
                                   atol=1e-12)

    def test_perturbation_probe_graph_vs_graphless(self):
        """Moving node j's window moves node i's forecast only through the graph."""
        x = rand_window(ModelConfig(**{**TINY, "variant": "hgmts1"}), seed=23)
        bumped = x.copy()
        bumped[2] += np.random.default_rng(26).uniform(0.5, 1.5, x.shape[1])

        graphy = tiny_model("hgmts1", seed=24)
        jitter_params(graphy.registry, seed=25)  # keep ReLU message paths alive
        base = graphy.forward(x).values
        moved = graphy.forward(bumped).values
        assert np.abs(moved[0] - base[0]).max() > 1e-9
        assert np.abs(moved[1] - base[1]).max() > 1e-9

        graphless = tiny_model("hgmts4", seed=24)
        jitter_params(graphless.registry, seed=25)
        base4 = graphless.forward(x).values
        moved4 = graphless.forward(bumped).values
        np.testing.assert_array_equal(moved4[0], base4[0])
        np.testing.assert_array_equal(moved4[1], base4[1])
        assert (moved4[2] != base4[2]).any()

    def test_parameter_count_audit(self):
        counts = {v: sum(p.values.size for p in tiny_model(v, stacks=3).parameters().values())
                  for v in ("hgmts1", "hgmts6")}
        assert counts["hgmts6"] < counts["hgmts1"]

    def test_graph_build_audit(self):
        builds = {}
        for variant in ("hgmts1", "hgmts2", "hgmts3", "hgmts4", "hgmts5", "hgmts6"):
            model = tiny_model(variant, stacks=3)
            _, _, ctx = model.forward_batch(rand_window(model.cfg))
            builds[variant] = len(ctx.graphs)
            assert len(ctx.graphs) == model.graph_builds_per_window()
        assert builds["hgmts2"] < builds["hgmts1"]
        assert builds["hgmts3"] < builds["hgmts1"]
        assert builds["hgmts4"] == 0
        assert builds["hgmts6"] == builds["hgmts1"]

    def test_shared_graph_variants_reuse_edges(self):
        for variant, expected_graphs in (("hgmts2", 3), ("hgmts3", 2)):
            model = tiny_model(variant, stacks=3)
            _, _, ctx = model.forward_batch(rand_window(model.cfg), collect=True)
            assert len(ctx.graph_records) == expected_graphs

    @pytest.mark.parametrize("variant", sorted(SHARING))
    def test_graph_key_sharing_with_two_blocks_per_stack(self, variant):
        count, digest, owners = SHARING[variant]
        model = tiny_model(variant, stacks=2, blocks_per_stack=2)
        names = sorted(model.registry.params)
        assert len(names) == count
        assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == digest
        assert [n[: -len(".wq")] for n in names if n.endswith(".wq")] == \
            [f"stack{s}.block{b}.{p}" for s, b, p in owners]
        x = np.random.default_rng(0).uniform(-1, 1, (3, 3, 8))
        _, _, ctx = model.forward_batch(x, collect=True)
        assert [rec[:3] for rec in ctx.graph_records] == [t for t in owners for _ in range(3)]
        assert len(ctx.graph_records) == 3 * model.graph_builds_per_window()


class TestPersistence:
    def test_checkpoint_roundtrip_preserves_outputs(self, tmp_path):
        model = tiny_model(seed=31, stacks=2)
        x = rand_window(model.cfg, seed=32)
        expected = model.forward(x).values
        path = tmp_path / "model.ckpt"
        model.save(path, run_info={"dataset": "unit-test"})
        loaded, run_info = load_model(path)
        assert run_info["dataset"] == "unit-test"
        assert loaded.cfg == model.cfg
        np.testing.assert_array_equal(loaded.forward(x).values, expected)

    @pytest.mark.parametrize("knob", [None, False, True])
    def test_checkpoint_with_removed_recompute_knob(self, tmp_path, knob):
        """Older checkpoints store recompute_graph_each_round in their model
        config; true named a different model and must not load as this one."""
        model = tiny_model(seed=33)
        stored = {"n_nodes": 3, "input_len": 8, "horizon": 4, "embed_dim": 4, "hidden_dim": None,
                  "kernel": 3, "padding": "edge", "gamma": 1.0, "sampling_c": None, "rounds": 3,
                  "stacks": 1, "blocks_per_stack": 1, "variant": "hgmts1", "seed": 33}
        if knob is not None:
            stored["recompute_graph_each_round"] = knob
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, model.registry.named_values(), {"model": stored, "run": {}})
        if knob:
            with pytest.raises(ContractError, match="recompute_graph_each_round"):
                load_model(path)
            return
        loaded, _ = load_model(path)
        assert loaded.cfg == model.cfg
        x = rand_window(model.cfg, seed=34)
        np.testing.assert_array_equal(loaded.forward(x).values, model.forward(x).values)

    def test_checkpoint_without_model_section_rejected(self, tmp_path):
        model = tiny_model(seed=37)
        path = tmp_path / "nomodel.ckpt"
        save_checkpoint(path, model.registry.named_values(), {"run": {}})
        with pytest.raises(ContractError, match="'model'"):
            load_model(path)

    def test_checkpoint_with_unknown_model_key_rejected(self, tmp_path):
        """A misspelt field must not load as the default: blocks_per_stak=2
        would otherwise give a one-block-per-stack model."""
        model = tiny_model(seed=35)
        stored = model.cfg.to_dict()
        del stored["blocks_per_stack"]
        stored["blocks_per_stak"] = 2
        path = tmp_path / "typo.ckpt"
        save_checkpoint(path, model.registry.named_values(), {"model": stored, "run": {}})
        with pytest.raises(ContractError, match="blocks_per_stak"):
            load_model(path)

    def test_checkpoint_with_missing_model_keys_rejected_naming_them(self, tmp_path):
        model = tiny_model(seed=37)
        stored = model.cfg.to_dict()
        for key in ("n_nodes", "input_len", "horizon"):
            del stored[key]
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, model.registry.named_values(), {"model": stored, "run": {}})
        with pytest.raises(ContractError, match=r"lacks the required keys "
                                                r"\['n_nodes', 'input_len', 'horizon'\]"):
            load_model(path)

    def test_checkpoint_with_extra_parameters_rejected(self, tmp_path):
        """hgmts1's weights under an hgmts4 config must not load as hgmts4 with
        the graph and message weights silently dropped."""
        model = tiny_model("hgmts1", seed=36)
        stored = {**model.cfg.to_dict(), "variant": "hgmts4"}
        path = tmp_path / "mixed.ckpt"
        save_checkpoint(path, model.registry.named_values(), {"model": stored, "run": {}})
        with pytest.raises(ContractError, match=r"does not have: \['stack0\.block0\.seas\."):
            load_model(path)


# Stacks of two blocks, so the sharing variants reuse graphs across blocks and stacks;
# N=8 at gamma 0.4 samples 3 of the 8 keys, so a different sample shows.
PURE = dict(n_nodes=8, input_len=16, horizon=4, embed_dim=8, kernel=5, rounds=2,
            stacks=2, blocks_per_stack=2, gamma=0.4)


def pure_model(variant, **overrides):
    return build_variant(ModelConfig(**{**PURE, **overrides, "variant": variant, "seed": 3}))


def rand_windows(cfg, count, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, (count, cfg.n_nodes, cfg.input_len))


def forecast_of(model, xs):
    """Forecast rows of a batch, one (N, K) array per window."""
    forecast, _, _ = model.forward_batch(xs)
    return forecast.values.reshape(len(xs), model.cfg.n_nodes, model.cfg.horizon)


class TestStatelessForward:
    """At inference a window's forecast is a function of the parameters and that
    window alone: not of the call history, the batch or a reload."""

    def assert_batch_independent(self, model, xs, orders):
        singles = [model.forward(x).values for x in xs]
        for order in orders:
            rows = forecast_of(model, xs[order])
            for row, i in zip(rows, order):
                np.testing.assert_array_equal(row, singles[i])

    @pytest.mark.parametrize("variant", sorted(SHARING))
    def test_any_subset_or_permutation_matches_single_windows(self, variant):
        model = pure_model(variant)
        jitter_params(model.registry, seed=1)
        xs = rand_windows(model.cfg, 6)
        # the whole batch twice: two calls on the same windows agree
        orders = [np.arange(6), np.arange(6), np.arange(6)[::-1],
                  np.random.default_rng(2).permutation(6), np.array([4, 1, 3]), np.array([5])]
        self.assert_batch_independent(model, xs, orders)

    def test_batch_independent_at_wide_graph(self):
        """N=321 at c=2 (n=11 keys of 321) and batch 8, the train-wide shape."""
        model = build_variant(ModelConfig(n_nodes=321, input_len=48, horizon=24, embed_dim=32,
                                          kernel=25, stacks=3, rounds=3, sampling_c=2.0, seed=1))
        xs = rand_windows(model.cfg, 8, seed=4)
        self.assert_batch_independent(model, xs, [np.arange(8), np.array([6, 0, 3])])

    def test_forward_leaves_model_attributes_unchanged(self):
        model = pure_model("hgmts1")
        before = dict(vars(model))
        values = model.registry.named_values()
        model.forward_batch(rand_windows(model.cfg, 3), collect=True)
        model.forward(rand_windows(model.cfg, 1)[0])
        assert vars(model) == before
        for name, p in model.registry.params.items():
            assert p.values.tobytes() == values[name].tobytes()

    def test_evaluate_after_reload_matches_in_memory(self, tmp_path):
        model = pure_model("hgmts1")
        jitter_params(model.registry, seed=5)
        pairs = [(x, np.zeros((8, 4))) for x in rand_windows(model.cfg, 40, seed=6)]
        for x, _ in pairs[:7]:  # history the reloaded model does not have
            model.forward(x)
        model.forward_batch(rand_windows(model.cfg, 5, seed=7))
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = load_model(path)
        assert evaluate(loaded, pairs) == evaluate(model, pairs)
        assert evaluate(loaded, pairs, batch_size=7) == evaluate(model, pairs)

    def test_two_threads_get_the_serial_results(self):
        model = pure_model("hgmts1")
        jitter_params(model.registry, seed=8)
        batches = [rand_windows(model.cfg, 5, seed=9), rand_windows(model.cfg, 3, seed=10)]
        serial = [forecast_of(model, xs) for xs in batches]
        start = threading.Barrier(2)
        results: dict = {}

        def work(i):
            start.wait()
            results[i] = [forecast_of(model, batches[i]) for _ in range(5)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for i, expected in enumerate(serial):
            for got in results[i]:
                np.testing.assert_array_equal(got, expected)

    def test_recording_switch_is_per_thread(self):
        """Another thread's inference leaves this thread's training pass recorded."""
        model = pure_model("hgmts1")
        jitter_params(model.registry, seed=8)
        entered, release = threading.Event(), threading.Event()

        def idle_without_tape():
            with ad.recording(False):
                entered.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=idle_without_tape)
        thread.start()
        try:
            assert entered.wait(timeout=60)
            forecast = model.forward_batch(rand_windows(model.cfg, 2), step=0)[0]
            ad.backward(ad.mean(ad.mul(forecast, forecast)))
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        heads = [p.grad for name, p in model.registry.params.items() if ".forecast." in name]
        assert heads and all(g is not None and g.any() for g in heads)

    def test_training_step_changes_the_key_sample(self):
        """Training passes its step count, so its key samples still vary per step."""
        model = pure_model("hgmts1", n_nodes=40, gamma=None, sampling_c=1.0)
        xs = rand_windows(model.cfg, 2)
        selected = {model.forward_batch(xs, collect=True, step=step)[2].graph_records[0][-1]
                    .selected_queries.tobytes() for step in (None, 0, 1, 2, 3)}
        assert len(selected) > 1
        again = model.forward_batch(xs, step=2)[0].values
        np.testing.assert_array_equal(again, model.forward_batch(xs, step=2)[0].values)
