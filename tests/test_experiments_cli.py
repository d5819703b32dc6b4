"""Sweeps, ablations, report files, and the command-line surface."""

import argparse
import dataclasses
import inspect
import itertools
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hgmts.cli
import hgmts.experiments
from hgmts.cli import _SettingFlag, build_parser, main
from hgmts.config import _KEYS, RunSpec, load_run_spec
from hgmts.data import SplitSpec, load_csv
from hgmts.experiments import REPORT_HEADER, grid_run, prepare_windows
from hgmts.latent_graph import dump_edges, gamma_count
from hgmts.model import Model, ModelConfig, load_model
from hgmts.synthetic import generate_coupled, write_csv
from hgmts.training import TrainConfig, evaluate

FAST_TRAIN = TrainConfig(max_epochs=1, seed=0)


def fast_model_cfg(n_nodes, horizon=4):
    return ModelConfig(n_nodes=n_nodes, input_len=8, horizon=horizon, embed_dim=4,
                       kernel=3, stacks=1, rounds=1, gamma=0.5, seed=0)


@pytest.fixture(scope="module")
def small_ds():
    ds, _ = generate_coupled(n_series=4, length=240, seed=5)
    return ds


class TestSweep:
    def test_row_count_and_mapping(self, small_ds):
        gammas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        report = grid_run(small_ds, SplitSpec(0.7, 0.1, 0.2), "gamma", gammas, [4, 6],
                          fast_model_cfg(4), FAST_TRAIN)
        assert len(report.rows) == len(gammas) * 2
        counts = [gamma_count(g, 4) for g in gammas]
        assert counts == sorted(counts)
        assert counts[0] >= 1 and counts[-1] <= 4

    def test_csv_format(self, small_ds, tmp_path):
        report = grid_run(small_ds, SplitSpec(0.7, 0.1, 0.2), "gamma", [0.5], [4],
                          fast_model_cfg(4), FAST_TRAIN)
        path = tmp_path / "r.csv"
        report.write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[1] == "hgmts1"
        assert float(fields[5]) >= 0


class TestAblation:
    def test_single_variant_one_row_per_horizon(self, small_ds):
        report = grid_run(small_ds, SplitSpec(0.7, 0.1, 0.2), "variant", ["hgmts4"], [4, 6],
                          fast_model_cfg(4), FAST_TRAIN)
        assert len(report.rows) == 2
        assert {r["variant"] for r in report.rows} == {"hgmts4"}

    def test_unknown_variant_rejected(self, small_ds):
        with pytest.raises(ValueError, match="hgmtsX"):
            grid_run(small_ds, SplitSpec(0.7, 0.1, 0.2), "variant", ["hgmtsX"], [4],
                     fast_model_cfg(4), FAST_TRAIN)

    def test_seed_averaging_matches_by_hand(self, small_ds):
        report = grid_run(small_ds, SplitSpec(0.7, 0.1, 0.2), "variant", ["hgmts4"], [4],
                          fast_model_cfg(4), FAST_TRAIN, seeds=[0, 1, 2])
        assert len(report.rows) == 3
        avg = report.averaged()
        assert len(avg.rows) == 1
        np.testing.assert_allclose(avg.rows[0]["mse"],
                                   np.mean([r["mse"] for r in report.rows]))


def spy_forward_batch(monkeypatch):
    """The windows of every forward pass from here on, one array per call."""
    forward_batch = Model.forward_batch
    passes = []

    def spy(self, windows, *args, **kwargs):
        passes.append(np.asarray(windows))
        return forward_batch(self, windows, *args, **kwargs)

    monkeypatch.setattr(Model, "forward_batch", spy)
    return passes


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HGMTS_OUT_DIR", raising=False)
    ds, _ = generate_coupled(n_series=4, length=240, seed=5)
    write_csv(ds, tmp_path / "series.csv")
    (tmp_path / "run.cfg").write_text(
        "dataset = series.csv\n"
        "name = tiny\n"
        "split = 0.7,0.1,0.2\n"
        "L = 8\nK = 4\nD = 4\nkernel = 3\n"
        "gamma = 0.5\nrounds = 1\nstacks = 1\nblocks = 1\n"
        "variant = hgmts1\nseed = 0\nmax_epochs = 1\nbatch = 32\n"
    )
    return tmp_path


def checkpoint_test_split(workdir):
    """The trained checkpoint and the test windows the CLI commands read."""
    model, _ = load_model(workdir / "out" / "model.ckpt")
    prepared = prepare_windows(load_csv(workdir / "series.csv"), SplitSpec(0.7, 0.1, 0.2),
                               model.cfg.input_len, model.cfg.horizon)
    return model, prepared.test


class TestCli:
    def test_train_writes_checkpoint_history_and_report(self, workdir, capsys):
        code = main(["train", "--config", "run.cfg", "--out", "out"])
        assert code == 0
        assert (workdir / "out" / "model.ckpt").exists()
        assert (workdir / "out" / "history.csv").exists()
        assert (workdir / "out" / "report.csv").exists()
        assert (workdir / "out" / "manifest.txt").exists()
        captured = capsys.readouterr().out
        assert "checkpoint:" in captured
        history = (workdir / "out" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,val_mse"
        assert len(history) == 2

    def test_eval_prints_report_row(self, workdir, capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", "out/model.ckpt", "--data", "series.csv",
                     "--split", "test", "--out", "out"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == REPORT_HEADER
        assert (workdir / "out" / "eval_test.csv").exists()

    @pytest.mark.parametrize("content", [None, b"\x89PNG\r\n\x1a\n" + bytes(16)],
                             ids=["csv", "binary"])
    def test_eval_refuses_a_file_that_is_not_a_checkpoint(self, workdir, capsys, content):
        path = "series.csv" if content is None else "model.bin"
        if content is not None:
            (workdir / path).write_bytes(content)
        assert main(["eval", "--checkpoint", path, "--out", "out"]) == 1
        assert f"not a hgmts-checkpoint file: {path}" in capsys.readouterr().err

    def test_eval_dump_predictions(self, workdir, capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        code = main(["eval", "--checkpoint", "out/model.ckpt", "--data", "series.csv",
                     "--out", "out", "--dump-predictions", "preds.csv"])
        assert code == 0
        lines = (workdir / "out" / "preds.csv").read_text().splitlines()
        assert lines[0] == "window,node,step,y_true,y_pred"
        assert len(lines) > 1

    def test_eval_without_data_scores_the_file_train_read(self, workdir):
        # the config names series.csv, but train read other.csv through --data
        other, _ = generate_coupled(n_series=4, length=240, seed=9)
        write_csv(other, workdir / "other.csv")
        assert main(["train", "--config", "run.cfg", "--data", "other.csv", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        trained = (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")
        scored = (workdir / "out" / "eval_test.csv").read_text().splitlines()[1].split(",")
        assert scored[5:7] == trained[5:7]  # mse, mae

    @pytest.mark.parametrize("synth", ["synth_seed = 3", "synth_n = 5", "raw_space = true"])
    def test_eval_without_data_regenerates_the_synthetic_series_train_read(self, workdir, synth):
        (workdir / "synth.cfg").write_text(
            "dataset = synthetic\nsynth_length = 240\n" + synth + "\n"
            "split = 0.7,0.1,0.2\nL = 8\nK = 4\nD = 4\nkernel = 3\nrounds = 1\n"
            "stacks = 1\nseed = 0\nmax_epochs = 1\n")
        assert main(["train", "--config", "synth.cfg", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        trained = (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")
        scored = (workdir / "out" / "eval_test.csv").read_text().splitlines()[1].split(",")
        assert scored[5:7] == trained[5:7]  # mse, mae

    def test_eval_without_config_restores_forward_fill_and_name(self, workdir):
        # train reads s.csv, whose empty cell only forward_fill = true accepts
        lines = (workdir / "series.csv").read_text().splitlines()
        cells = lines[50].split(",")
        lines[50] = ",".join([cells[0], "", *cells[2:]])
        (workdir / "s.csv").write_text("\n".join(lines) + "\n")
        (workdir / "ff.cfg").write_text(
            (workdir / "run.cfg").read_text().replace("dataset = series.csv", "dataset = s.csv")
            .replace("name = tiny", "name = mine") + "forward_fill = true\n")
        assert main(["train", "--config", "ff.cfg", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        trained = (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")
        scored = (workdir / "out" / "eval_test.csv").read_text().splitlines()[1].split(",")
        assert scored[0] == trained[0] == "mine"
        assert scored[5:7] == trained[5:7]  # mse, mae
        assert main(["inspect-graph", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0

    @pytest.mark.parametrize("flags, sizes", [
        ([], [8, 8, 8, 8, 5]),
        (["--set", "batch=5"], [5, 5, 5, 5, 5, 5, 5, 2]),
        (["--config", "run.cfg"], [32, 5]),
    ])
    def test_eval_dump_predictions_forecasts_each_batch_once(
            self, workdir, monkeypatch, flags, sizes):
        # train records batch 8, so eval forecasts the 37 test windows in 5 passes,
        # unless a config's or --set's batch says otherwise
        assert main(["train", "--config", "run.cfg", "--out", "out", "--set", "batch=8"]) == 0
        passes = spy_forward_batch(monkeypatch)
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out",
                     "--dump-predictions", "preds.csv", *flags]) == 0
        assert [len(p) for p in passes] == sizes

    def test_eval_holds_one_batch_of_forecasts_at_a_time(self, workdir, monkeypatch):
        # at each pass's entry at most the previous batch's forecasts are alive,
        # so eval's memory does not grow with the split, dump or no dump
        assert main(["train", "--config", "run.cfg", "--out", "out", "--set", "batch=8"]) == 0
        forward_batch = Model.forward_batch
        earlier, alive_at_entry = [], []

        def spy(self, *args, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in earlier))
            out = forward_batch(self, *args, **kwargs)
            earlier.append(weakref.ref(out[0].values))
            return out

        monkeypatch.setattr(Model, "forward_batch", spy)
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out",
                     "--dump-predictions", "preds.csv"]) == 0
        assert len(alive_at_entry) == 5
        assert max(alive_at_entry) <= 1

    def test_eval_set_scores_a_raw_space_run_normalized(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out",
                     "--set", "raw_space=true"]) == 0
        rows = []
        for flags in (["--set", "raw_space=false"], ["--config", "run.cfg"], []):
            assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out", *flags]) == 0
            rows.append((workdir / "out" / "eval_test.csv").read_text().splitlines()[1])
        raw = (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")
        assert rows[0] == rows[1]  # normalized, as a config without raw_space scores
        assert rows[2].split(",")[5:7] == raw[5:7] != rows[0].split(",")[5:7]

    def test_train_raw_space_scores_the_test_split_once(self, workdir, monkeypatch):
        run_one, rows = hgmts.cli.run_one, []

        def recording_run_one(*args, **kwargs):
            rows.append(run_one(*args, **kwargs))
            return rows[-1]

        monkeypatch.setattr(hgmts.cli, "run_one", recording_run_one)
        passes = spy_forward_batch(monkeypatch)
        assert main(["train", "--config", "run.cfg", "--out", "out",
                     "--set", "raw_space=true"]) == 0
        model, _ = load_model(workdir / "out" / "model.ckpt")
        prepared = prepare_windows(load_csv(workdir / "series.csv"), SplitSpec(0.7, 0.1, 0.2),
                                   model.cfg.input_len, model.cfg.horizon)
        assert sum(np.array_equal(p[0], prepared.test[0][0]) for p in passes) == 1
        row = rows[0][0]
        assert (row["mse"], row["mae"]) == evaluate(model, prepared.test, prepared.stats)

    @pytest.mark.parametrize("command", ["train", "sweep-gamma", "ablate"])
    def test_a_test_split_without_windows_is_refused_before_training(self, workdir, capsys,
                                                                    monkeypatch, command):
        trainings = []
        monkeypatch.setattr(hgmts.experiments, "train", lambda *args: trainings.append(args))
        assert main([command, "--config", "run.cfg", "--out", "out",
                     "--set", "split=0.9,0.08,0.02"]) == 1
        assert ("split 'test' has no windows at this (L, K): it needs at least L + K = 12 rows"
                in capsys.readouterr().err)
        assert trainings == []

    def test_eval_of_a_split_without_windows_is_refused_naming_it(self, workdir, capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--split", "val",
                     "--set", "split=0.9,0.04,0.06"]) == 1
        assert ("split 'val' has no windows at this (L, K): it needs at least L + K = 12 rows"
                in capsys.readouterr().err)

    def test_sweep_gamma_emits_six_rows_per_horizon(self, workdir):
        code = main(["sweep-gamma", "--config", "run.cfg", "--out", "out",
                     "--gammas", "0.2,0.3,0.4,0.5,0.6,0.7", "--horizons", "4"])
        assert code == 0
        lines = (workdir / "out" / "sweep_gamma.csv").read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_ablate_runs_variant_list(self, workdir):
        code = main(["ablate", "--config", "run.cfg", "--out", "out",
                     "--variants", "hgmts4,hgmts5", "--horizons", "4"])
        assert code == 0
        lines = (workdir / "out" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 1 + 2

    @pytest.mark.parametrize("command, flags, line, stem", [
        ("ablate", ["--variants", "hgmts4, hgmts5"], "variants = hgmts4, hgmts5", "ablation"),
        ("sweep-gamma", ["--gammas", "0.5,"], "gammas = 0.5,", "sweep_gamma"),
    ])
    def test_grid_list_flags_read_as_their_config_lines(self, workdir, command, flags, line,
                                                        stem):
        def rows():
            return [r.rsplit(",", 1)[0]  # all but wall_s
                    for r in (workdir / "out" / f"{stem}.csv").read_text().splitlines()]

        assert main([command, "--config", "run.cfg", "--out", "out", *flags]) == 0
        by_flag = rows()
        (workdir / "list.cfg").write_text((workdir / "run.cfg").read_text() + line + "\n")
        assert main([command, "--config", "list.cfg", "--out", "out"]) == 0
        assert rows() == by_flag
        assert len(by_flag) == 1 + (2 if command == "ablate" else 1)

    def test_ablate_scores_a_raw_space_config_as_train_does(self, workdir):
        (workdir / "raw.cfg").write_text((workdir / "run.cfg").read_text() + "raw_space = true\n")
        assert main(["train", "--config", "raw.cfg", "--out", "out"]) == 0
        assert main(["ablate", "--config", "raw.cfg", "--out", "out", "--variants", "hgmts1"]) == 0
        trained = (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")
        ablated = (workdir / "out" / "ablation.csv").read_text().splitlines()[1].split(",")
        assert ablated[5:7] == trained[5:7]  # mse, mae

    @pytest.mark.parametrize("flags, horizon", [
        (["--set", "K=2", "--horizon", "4"], "4"),
        (["--horizon", "4", "--set", "K=2"], "2"),
    ])
    def test_last_setting_wins(self, workdir, flags, horizon):
        assert main(["train", "--config", "run.cfg", "--out", "out", *flags]) == 0
        assert (workdir / "out" / "report.csv").read_text().splitlines()[1].split(",")[3] == horizon

    def test_synth_gen_reads_set_without_config(self, workdir):
        assert main(["synth-gen", "--out", "out", "--set", "synth_n=3",
                     "--set", "synth_length=60"]) == 0
        assert np.loadtxt(workdir / "out" / "synthetic_coupling.csv", delimiter=",").shape == (3, 3)

    def test_synth_gen_zero_series_fails(self, workdir, capsys):
        assert main(["synth-gen", "--out", "out", "--n", "0"]) == 1
        assert "n_series" in capsys.readouterr().err
        assert not (workdir / "out" / "synthetic.csv").exists()

    @pytest.mark.parametrize("line, key", [("seeds = a", "seeds"),
                                           ("split = 0.7,x,0.2", "split")])
    def test_bad_list_value_names_its_key(self, workdir, capsys, line, key):
        (workdir / "bad.cfg").write_text((workdir / "run.cfg").read_text() + line + "\n")
        assert main(["ablate", "--config", "bad.cfg", "--out", "out"]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_set_typo_names_set(self, workdir, capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        assert main(["train", "--config", "run.cfg", "--out", "out", "--set", "bogus=1"]) == 1
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--set", "bogus=1"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["error: unknown config key 'bogus' in --set"] * 2

    @pytest.mark.parametrize("flags, error", [
        (["--set", "K4"], "error: --set: expected 'key = value', got 'K4'"),
        (["--config", "bad.cfg"], "error: bad.cfg:2: expected 'key = value', got 'K4'"),
    ])
    def test_malformed_pair_names_its_source(self, workdir, capsys, flags, error):
        (workdir / "bad.cfg").write_text("dataset = series.csv\nK4  # no '='\n")
        assert main(["train", "--config", "run.cfg", "--out", "out", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [error]

    def test_module_runs_as_a_script(self, workdir):
        src = Path(hgmts.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "hgmts.cli", "synth-gen", "--out", "out",
                               "--n", "3", "--length", "40"], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        lines = (workdir / "out" / "synthetic.csv").read_text().splitlines()
        ds, _ = generate_coupled(n_series=3, length=40, noise_std=0.3)
        assert len(lines) == 1 + 40
        assert lines[-1].split(",")[1:] == [repr(float(v)) for v in ds.values[-1]]

    def test_synth_gen_writes_csv_and_coupling(self, workdir):
        code = main(["synth-gen", "--out", "out", "--n", "5", "--length", "60",
                     "--seed", "3", "--file", "gen.csv"])
        assert code == 0
        assert (workdir / "out" / "gen.csv").exists()
        assert (workdir / "out" / "gen_coupling.csv").exists()
        coupling = np.loadtxt(workdir / "out" / "gen_coupling.csv", delimiter=",")
        assert coupling.shape == (5, 5)

    def test_synth_gen_flags_win_over_config_keys(self, workdir):
        (workdir / "synth.cfg").write_text("synth_n = 6\nsynth_length = 80\nsynth_seed = 4\n")
        assert main(["synth-gen", "--config", "synth.cfg", "--out", "out", "--length", "60"]) == 0
        assert np.loadtxt(workdir / "out" / "synthetic_coupling.csv", delimiter=",").shape == (6, 6)
        lines = (workdir / "out" / "synthetic.csv").read_text().splitlines()
        assert len(lines) == 1 + 60
        ds, _ = generate_coupled(n_series=6, length=60, seed=4, noise_std=0.3)  # CLI default noise
        assert lines[-1].split(",")[1:] == [repr(float(v)) for v in ds.values[-1]]

    def test_inspect_graph_dumps_triples(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        code = main(["inspect-graph", "--checkpoint", "out/model.ckpt",
                     "--data", "series.csv", "--out", "out", "--window", "0"])
        assert code == 0
        lines = (workdir / "out" / "graph.csv").read_text().splitlines()
        assert lines[0] == "stack,block,pathway,i,j,weight"
        assert len(lines) > 1
        stack, block, pathway, i, j, w = lines[1].split(",")
        assert pathway in ("seas", "trend", "main")
        assert 0.0 < float(w) <= 1.0

    def test_inspect_graph_matches_the_window_inside_its_split_batch(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        model, test = checkpoint_test_split(workdir)
        _, _, ctx = model.forward_batch(np.stack([x for x, _ in test]), collect=True)
        for w in range(0, len(test), 3):
            assert main(["inspect-graph", "--checkpoint", "out/model.ckpt", "--data",
                         "series.csv", "--out", "out", "--window", str(w)]) == 0
            expected = [f"{s},{b},{p},{i},{j},{weight!r}"
                        for s, b, p, window, adj in ctx.graph_records
                        if window == w for i, j, weight in dump_edges(adj)]
            assert (workdir / "out" / "graph.csv").read_text().splitlines()[1:] == expected

    def test_inspect_graph_set_picks_the_split(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        assert main(["inspect-graph", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        recorded = (workdir / "out" / "graph.csv").read_text()
        assert main(["inspect-graph", "--checkpoint", "out/model.ckpt", "--out", "out",
                     "--set", "split=0.5,0.2,0.3"]) == 0
        model, _ = load_model(workdir / "out" / "model.ckpt")
        test = prepare_windows(load_csv(workdir / "series.csv"), SplitSpec(0.5, 0.2, 0.3),
                               model.cfg.input_len, model.cfg.horizon).test
        _, _, ctx = model.forward_batch(np.stack([x for x, _ in test]), collect=True)
        expected = [f"{s},{b},{p},{i},{j},{weight!r}" for s, b, p, window, adj in ctx.graph_records
                    if window == 0 for i, j, weight in dump_edges(adj)]
        dumped = (workdir / "out" / "graph.csv").read_text()
        assert dumped.splitlines()[1:] == expected
        assert dumped != recorded

    def test_dump_predictions_match_the_batched_forecasts(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--data", "series.csv",
                     "--out", "out", "--dump-predictions", "preds.csv"]) == 0
        model, test = checkpoint_test_split(workdir)
        forecast, _, _ = model.forward_batch(np.stack([x for x, _ in test]))
        preds = forecast.values.reshape(len(test), model.cfg.n_nodes, model.cfg.horizon)
        rows = (workdir / "out" / "preds.csv").read_text().splitlines()[1:]
        assert len(rows) == preds.size
        for row in rows:
            window, node, step, y_true, y_pred = row.split(",")
            at = int(window), int(node), int(step)
            assert float(y_true) == test[at[0]][1][at[1:]]
            assert float(y_pred) == preds[at]

    def test_env_var_output_dir(self, workdir, monkeypatch):
        monkeypatch.setenv("HGMTS_OUT_DIR", str(workdir / "envout"))
        assert main(["train", "--config", "run.cfg"]) == 0
        assert (workdir / "envout" / "model.ckpt").exists()

    def test_set_override(self, workdir):
        assert main(["train", "--config", "run.cfg", "--out", "out",
                     "--set", "variant=hgmts4"]) == 0
        from hgmts.model import load_model

        model, _ = load_model(workdir / "out" / "model.ckpt")
        assert model.cfg.variant == "hgmts4"

    def test_unknown_flag_fails_nonzero(self, workdir):
        assert main(["train", "--config", "run.cfg", "--frobnicate"]) != 0

    def test_missing_config_file_fails_nonzero(self, workdir, capsys):
        code = main(["train", "--config", "nope.cfg"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_key_fails_nonzero(self, workdir, capsys):
        (workdir / "bad.cfg").write_text("dataset = series.csv\nbogus_key = 1\n")
        code = main(["train", "--config", "bad.cfg"])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_removed_recompute_key_rejected(self, workdir, capsys):
        (workdir / "old.cfg").write_text("dataset = series.csv\nrecompute_graph_per_round = true\n")
        code = main(["train", "--config", "old.cfg"])
        assert code == 1
        assert "unknown config key 'recompute_graph_per_round'" in capsys.readouterr().err

    def test_missing_dataset_fails_nonzero(self, workdir):
        (workdir / "missing.cfg").write_text("dataset = gone.csv\nK = 4\nL = 8\n")
        assert main(["train", "--config", "missing.cfg"]) == 1

    def test_directory_as_dataset_fails_without_a_traceback(self, workdir, capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out", "--data", "."]) == 1
        assert "dataset file not found" in capsys.readouterr().err

    def test_no_subcommand_fails(self, workdir):
        assert main([]) != 0


def report_row_fields(path):
    return path.read_text().splitlines()[1].split(",")


class TestRunRecord:
    """train records the pairs its RunSpec was parsed from; eval and
    inspect-graph replay them under their own pairs unless given a config."""

    def test_recorded_settings_replay_to_the_train_spec(self, workdir, monkeypatch):
        load_run_spec, specs = hgmts.cli.load_run_spec, []

        def recording_load_run_spec(*args, **kwargs):
            specs.append(load_run_spec(*args, **kwargs))
            return specs[-1]

        monkeypatch.setattr(hgmts.cli, "load_run_spec", recording_load_run_spec)
        assert main(["train", "--config", "run.cfg", "--out", "out", "--set", "batch=8",
                     "--horizon", "2", "--set", "raw_space=true", "--max-epochs", "2"]) == 0
        _, run_info = load_model(workdir / "out" / "model.ckpt")
        assert list(run_info) == ["settings"]
        settings = run_info["settings"]
        assert settings["K"] == "2" and settings["batch"] == "8" and settings["name"] == "tiny"
        assert settings["max_epochs"] == "2" and settings["raw_space"] == "true"
        assert load_run_spec(None, settings) == specs[0]

    def test_eval_config_borrows_no_recorded_dataset_or_batch(self, workdir, monkeypatch,
                                                              capsys):
        assert main(["train", "--config", "run.cfg", "--out", "out", "--set", "batch=8"]) == 0
        lines = (workdir / "run.cfg").read_text().splitlines()
        (workdir / "bare.cfg").write_text(
            "\n".join(line for line in lines if not line.startswith(("dataset", "batch"))) + "\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--config", "bare.cfg"]) == 1
        assert "no dataset configured" in capsys.readouterr().err
        passes = spy_forward_batch(monkeypatch)
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--config", "bare.cfg",
                     "--data", "series.csv", "--out", "out"]) == 0
        assert [len(p) for p in passes] == [32, 5]  # the default batch, not the recorded 8

    def test_checkpoint_commands_write_to_the_recorded_out_dir(self, workdir):
        assert main(["train", "--config", "run.cfg", "--set", "out_dir=runs"]) == 0
        assert main(["eval", "--checkpoint", "runs/model.ckpt"]) == 0
        assert main(["inspect-graph", "--checkpoint", "runs/model.ckpt"]) == 0
        assert (workdir / "runs" / "eval_test.csv").exists()
        assert (workdir / "runs" / "graph.csv").exists()
        assert not (workdir / "eval_test.csv").exists()

    def test_data_drops_the_recorded_name(self, workdir):
        other, _ = generate_coupled(n_series=4, length=240, seed=9)
        write_csv(other, workdir / "other.csv")
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        assert report_row_fields(workdir / "out" / "eval_test.csv")[0] == "tiny"
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out",
                     "--data", "other.csv"]) == 0
        assert report_row_fields(workdir / "out" / "eval_test.csv")[0] == "other"

    @pytest.mark.parametrize("line, name", [("", "synthetic-coupled"), ("name = mine", "mine")])
    def test_name_labels_a_synthetic_run(self, workdir, line, name):
        (workdir / "synth.cfg").write_text(
            "dataset = synthetic\nsynth_length = 240\nsynth_n = 4\n" + line + "\n"
            "split = 0.7,0.1,0.2\nL = 8\nK = 4\nD = 4\nkernel = 3\nrounds = 1\n"
            "stacks = 1\nseed = 0\nmax_epochs = 1\n")
        assert main(["train", "--config", "synth.cfg", "--out", "out"]) == 0
        assert main(["eval", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        assert report_row_fields(workdir / "out" / "report.csv")[0] == name
        assert report_row_fields(workdir / "out" / "eval_test.csv")[0] == name

    def test_old_run_record_needs_a_config(self, workdir, capsys):
        model = Model(fast_model_cfg(4))
        model.save(workdir / "old.ckpt", run_info={"dataset": "series.csv", "name": "tiny",
                                                   "split": [0.7, 0.1, 0.2]})
        capsys.readouterr()
        assert main(["eval", "--checkpoint", "old.ckpt", "--out", "out"]) == 1
        assert main(["inspect-graph", "--checkpoint", "old.ckpt", "--out", "out"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all("pass --config" in e for e in errors)
        assert main(["eval", "--checkpoint", "old.ckpt", "--config", "run.cfg",
                     "--out", "out"]) == 0

    def test_inspect_graph_reads_an_old_record_with_a_config(self, workdir):
        Model(fast_model_cfg(4)).save(workdir / "old.ckpt", run_info={
            "dataset": "series.csv", "name": "tiny", "split": [0.7, 0.1, 0.2]})
        assert main(["inspect-graph", "--checkpoint", "old.ckpt", "--config", "run.cfg",
                     "--out", "out"]) == 0
        assert (workdir / "out" / "graph.csv").read_text().startswith("stack,block,")

    def test_a_recorded_dataset_path_reads_from_another_directory(self, workdir, monkeypatch):
        assert main(["train", "--config", "run.cfg", "--out", "out"]) == 0
        assert main(["inspect-graph", "--checkpoint", "out/model.ckpt", "--out", "out"]) == 0
        _, run_info = load_model(workdir / "out" / "model.ckpt")
        assert os.path.samefile(run_info["settings"]["dataset"], workdir / "series.csv")
        elsewhere = workdir / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["eval", "--checkpoint", "../out/model.ckpt", "--out", "."]) == 0
        assert main(["inspect-graph", "--checkpoint", "../out/model.ckpt", "--out", "."]) == 0
        trained = report_row_fields(workdir / "out" / "report.csv")
        assert report_row_fields(elsewhere / "eval_test.csv")[:7] == trained[:7]  # name .. mae
        assert (elsewhere / "graph.csv").read_text() == (workdir / "out" / "graph.csv").read_text()

    def test_empty_run_record_replays_nothing(self, workdir, capsys):
        Model(fast_model_cfg(4)).save(workdir / "bare.ckpt")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", "bare.ckpt", "--out", "out"]) == 1
        assert "no dataset configured" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", "bare.ckpt", "--data", "series.csv",
                     "--out", "out"]) == 0
        assert report_row_fields(workdir / "out" / "eval_test.csv")[0] == "series"

    def test_missing_config_hash_fails_without_a_traceback(self, workdir, capsys):
        Model(fast_model_cfg(4)).save(workdir / "m.ckpt")
        header, _, payload = (workdir / "m.ckpt").read_bytes().partition(b"\n")
        manifest = json.loads(header)
        del manifest["config_hash"]
        (workdir / "m.ckpt").write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        assert main(["eval", "--checkpoint", "m.ckpt", "--data", "series.csv"]) == 1
        assert "'config_hash'" in capsys.readouterr().err


def readme_flag_rows():
    """(flag, key, command) triples of README's setting-flag table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| flag | key | commands |") + 2
    rows = set()
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        flag, key, commands = [cell.strip() for cell in line.strip("|").split("|")]
        rows |= {(flag.strip("`"), key.strip("`"), command.strip().strip("`"))
                 for command in commands.split(",")}
    return rows


def test_readme_flag_table_matches_the_parser():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {(flag, a.key if a.const is None else f"{a.key}={a.const}", command)
              for command, sub in subcommands.choices.items()
              for a in sub._actions if isinstance(a, _SettingFlag)
              for flag in a.option_strings}
    assert readme_flag_rows() == parsed


# every settings key -> (sample text, the value it parses to)
KEY_SAMPLES = {
    "L": ("12", 12), "K": ("5", 5), "D": ("6", 6), "hidden": ("7", 7), "kernel": ("5", 5),
    "padding": ("zero", "zero"), "gamma": ("0.25", 0.25), "c": ("2.5", 2.5),
    "rounds": ("2", 2), "stacks": ("2", 2), "blocks": ("3", 3), "variant": ("hgmts4", "hgmts4"),
    "seed": ("7", 7), "lr0": ("0.002", 0.002), "halve_every": ("3", 3), "patience": ("4", 4),
    "batch": ("9", 9), "max_epochs": ("6", 6), "backcast_loss_weight": ("0.5", 0.5),
    "synth_n": ("3", 3), "synth_length": ("50", 50), "synth_seed": ("2", 2),
    "synth_lag": ("4", 4), "synth_noise": ("0.2", 0.2),
    "dataset": ("synthetic", "synthetic"), "name": ("mine", "mine"),
    "frequency": ("daily", "daily"), "split": ("0.5,0.2,0.3", SplitSpec(0.5, 0.2, 0.3)),
    "out_dir": ("runs", "runs"), "raw_space": ("true", True), "forward_fill": ("yes", True),
    "seeds": ("1, 2", [1, 2]), "gammas": ("0.2,0.4", [0.2, 0.4]), "horizons": ("4,8", [4, 8]),
    "variants": ("hgmts1,hgmts4", ["hgmts1", "hgmts4"]),
}


def test_every_settings_row_names_an_existing_target():
    targets = {"model_fields": {f.name for f in dataclasses.fields(ModelConfig)},
               "train_fields": {f.name for f in dataclasses.fields(TrainConfig)},
               "synth": set(inspect.signature(generate_coupled).parameters),
               None: {f.name for f in dataclasses.fields(RunSpec)}}
    assert [key for key, (section, name, _) in _KEYS.items()
            if name not in targets[section]] == []
    assert set(KEY_SAMPLES) == set(_KEYS)


@pytest.mark.parametrize("key", list(KEY_SAMPLES))
def test_a_setting_lands_on_its_target(key):
    text, expected = KEY_SAMPLES[key]
    section, name, _ = _KEYS[key]
    spec = load_run_spec(None, {key: text})
    landed = {"model_fields": lambda: getattr(spec.model_config(4), name),
              "train_fields": lambda: getattr(spec.train_config(), name),
              "synth": lambda: spec.synth[name],
              None: lambda: getattr(spec, name)}[section]()
    assert landed == expected
    assert spec.pairs == {key: text}
