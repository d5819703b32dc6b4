"""Adam updates, parameter initialization, and the checkpoint format."""

import json
import re

import numpy as np
import pytest

from helpers import reference_adam_step
from hgmts import training
from hgmts.autodiff import ContractError
from hgmts.checkpoint import config_hash, load_checkpoint, save_checkpoint
from hgmts.data import SplitSpec
from hgmts.experiments import prepare_windows
from hgmts.model import ModelConfig, build_variant
from hgmts.nn import ParamRegistry
from hgmts.optim import AdamState, adam_step
from hgmts.synthetic import generate_coupled


def make_param(value):
    reg = ParamRegistry(seed=0)
    p = reg.bias("theta", np.size(value))
    p.values = np.asarray(value, dtype=np.float64)
    return p


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = make_param([1.0, -2.0])
        state = AdamState({"theta": p})
        p.grad = np.zeros(2)
        adam_step(state)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_single_scalar_first_step_matches_hand_calc(self):
        # m_hat = g, v_hat = g^2 at step 1, so the step is lr * g/(|g| + eps)
        p = make_param([1.0])
        state = AdamState({"theta": p}, lr=1e-4)
        p.grad = np.ones(1)
        adam_step(state)
        expected = 1.0 - 1e-4 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(p.values, [expected], rtol=1e-15)

    def test_two_steps_match_hand_recursion(self):
        p = make_param([0.5])
        state = AdamState({"theta": p}, lr=1e-3)
        theta, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            g = 2.0 * theta  # gradient of theta^2
            p.grad = np.array([g])
            adam_step(state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 1e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(p.values, [theta], rtol=1e-12)

    def test_step_counter_increments(self):
        p = make_param([0.0])
        state = AdamState({"theta": p})
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            adam_step(state)
            assert state.step == expected

    def test_missing_gradient_rejected(self):
        p = make_param([0.0])
        state = AdamState({"theta": p})
        with pytest.raises(ContractError, match="theta"):
            adam_step(state)

    def test_gradients_zeroed_after_step(self):
        p = make_param([0.0])
        state = AdamState({"theta": p})
        p.grad = np.ones(1)
        adam_step(state)
        assert p.grad is None


def small_model(variant, seed=0):
    cfg = ModelConfig(n_nodes=8, input_len=12, horizon=4, embed_dim=4, kernel=5, stacks=1,
                      rounds=1, gamma=0.7, seed=seed, variant=variant)
    return build_variant(cfg)


class TestFlatBuffer:
    """Parameters are views of one buffer that Adam updates in whole-buffer passes,
    bitwise equal to the per-parameter update of ``helpers.reference_adam_step``."""

    def test_parameters_view_the_buffer_in_registry_order(self):
        model = small_model("hgmts1")
        before = model.registry.named_values()
        state = AdamState(model.parameters())
        assert state.values.size == sum(v.size for v in before.values())
        assert all(p.values.base is state.values for p in state.params.values())
        np.testing.assert_array_equal(
            state.values, np.concatenate([v.ravel() for v in before.values()]))
        for name, values in model.registry.named_values().items():
            np.testing.assert_array_equal(values, before[name])

    def test_detached_parameter_rejected(self):
        model = small_model("hgmts1")
        params = model.parameters()
        state = AdamState(params)
        for p in params.values():
            p.grad = np.ones_like(p.values)
        adam_step(state)
        name = list(params)[3]
        params[name].values = params[name].values.copy()
        for p in params.values():
            p.grad = np.ones_like(p.values)
        with pytest.raises(ContractError, match=name):
            adam_step(state)

    def test_steps_match_the_per_parameter_oracle_bitwise(self):
        flat, ref = small_model("hgmts1"), small_model("hgmts1")
        flat_state = AdamState(flat.parameters(), lr=1e-2)
        ref_state = AdamState(ref.parameters(), lr=1e-2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            for p, q in zip(flat.parameters().values(), ref.parameters().values()):
                p.grad = rng.normal(size=p.values.shape)
                q.grad = p.grad.copy()
            adam_step(flat_state)
            reference_adam_step(ref_state)
        for (name, p), q in zip(flat.parameters().items(), ref.parameters().values()):
            assert p.values.tobytes() == q.values.tobytes(), name
        assert flat_state.m.tobytes() == ref_state.m.tobytes()
        assert flat_state.v.tobytes() == ref_state.v.tobytes()

    @pytest.mark.parametrize("variant", ["hgmts4", "hgmts1"])
    def test_train_matches_the_per_parameter_oracle_bitwise(self, variant, monkeypatch):
        ds, _ = generate_coupled(n_series=8, length=300, seed=3)
        prepared = prepare_windows(ds, SplitSpec(0.7, 0.1, 0.2), 12, 4)
        cfg = training.TrainConfig(lr0=1e-2, max_epochs=2, batch_size=16, seed=0)
        runs = []
        for step in (training.adam_step, reference_adam_step):
            monkeypatch.setattr(training, "adam_step", step)
            model = small_model(variant)
            result = training.train(model, prepared.train, prepared.val, cfg)
            assert all(p.values.base is None for p in model.parameters().values())
            runs.append((result.history_csv(),
                         {k: v.tobytes() for k, v in model.registry.named_values().items()}))
        assert runs[0] == runs[1]


class TestInitialization:
    def test_same_seed_bitwise_identical(self):
        a = ParamRegistry(seed=42)
        b = ParamRegistry(seed=42)
        wa = a.weight("w", 16, 8)
        wb = b.weight("w", 16, 8)
        np.testing.assert_array_equal(wa.values, wb.values)

    def test_different_seed_differs(self):
        a = ParamRegistry(seed=1).weight("w", 16, 8)
        b = ParamRegistry(seed=2).weight("w", 16, 8)
        assert (a.values != b.values).any()

    def test_fan_in_bound(self):
        w = ParamRegistry(seed=0).weight("w", 64, 32)
        assert np.abs(w.values).max() <= 1.0 / np.sqrt(64)

    def test_a_parameter_is_the_registry_leaf(self):
        reg = ParamRegistry(seed=0)
        assert reg.weight("w", 4, 3) is reg.params["w"]
        assert reg.bias("b", 3) is reg.params["b"]
        assert reg.params["w"]._parents == () and reg.params["w"]._grad_fn is None

    def test_duplicate_name_rejected(self):
        reg = ParamRegistry(seed=0)
        reg.weight("w", 4, 4)
        with pytest.raises(ContractError):
            reg.weight("w", 4, 4)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        values = {
            "enc.w": rng.uniform(-1, 1, (8, 4)),
            "enc.b": rng.uniform(-1, 1, 4),
            "head.w": rng.uniform(-1, 1, (4, 3)),
        }
        config = {"model": {"embed_dim": 4, "variant": "hgmts1"}}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, values, config)
        loaded, cfg, digest = load_checkpoint(path)
        assert cfg == config
        assert digest == config_hash(config)
        assert list(loaded) == list(values)
        for name in values:
            np.testing.assert_array_equal(loaded[name], values[name])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4))}, {"a": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ContractError, match="truncated"):
            load_checkpoint(path)

    def test_tampered_config_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, {"a": 1})
        header, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(header.replace(b'"a": 1', b'"a": 2') + b"\n" + payload)
        with pytest.raises(ContractError, match="hash"):
            load_checkpoint(path)

    def test_non_object_manifest_rejected(self, tmp_path):
        path = tmp_path / "list"
        path.write_bytes(b'["hgmts-checkpoint"]\n')
        with pytest.raises(ContractError, match="not a hgmts-checkpoint file"):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"date,a,b\n2020-01-01,1.0,2.0\n",
                                         b"\x89PNG\r\n\x1a\n" + bytes(16)],
                             ids=["csv", "binary"])
    def test_file_without_a_json_manifest_rejected_naming_it(self, tmp_path, content):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        with pytest.raises(ContractError, match=re.escape(f"not a hgmts-checkpoint file: {path}")):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ContractError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m.pop("config_hash"), "config_hash"),
        (lambda m: m.pop("config"), "config"),
        (lambda m: m.pop("params"), "params"),
        (lambda m: m.update(version=99), "version"),
        (lambda m: m.update(dtype=">f4"), "dtype"),
        pytest.param(lambda m: m.update(params=[["w", "ab"]]), "params", id="params-shape-not-ints"),
        pytest.param(lambda m: m.update(params=[["w"]]), "params", id="params-entry-without-shape"),
    ])
    def test_bad_manifest_field_rejected_naming_it(self, tmp_path, edit, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, {"a": 1})
        header, _, payload = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(ContractError, match=field):
            load_checkpoint(path)
