"""Command-line surface: train, eval, sweep-gamma, ablate, synth-gen, inspect-graph."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import ContractError
from .config import RunSpec, load_run_spec, set_pairs
from .data import load_csv, manifest
from .experiments import EvalReport, grid_run, prepare_windows, report_row, run_one, split_windows
from .latent_graph import dump_edges, gamma_count
from .model import VARIANT_IDS, load_model
from .synthetic import generate_coupled, write_csv
from .training import TrainingDiverged, forecasts, scores

OUT_DIR_ENV = "HGMTS_OUT_DIR"

# subcommand -> (ModelConfig field, list flag and config key, default list, report stem)
GRIDS = {
    "sweep-gamma": ("gamma", "gammas", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7], "sweep_gamma"),
    "ablate": ("variant", "variants", list(VARIANT_IDS), "ablation"),
}


class _SettingFlag(argparse.Action):
    """A setting flag is its config key's --set pair: ``--horizon 24`` appends
    ``K=24`` to the --set list, so flags and pairs apply in command-line order
    and the last one wins."""

    def __init__(self, option_strings, dest, key, const=None, **kwargs):
        super().__init__(option_strings, "set", nargs=None if const is None else 0,
                         const=const, **kwargs)
        self.key = key

    def __call__(self, parser, namespace, values, option_string=None):
        value = values if self.const is None else self.const
        namespace.set = [*(namespace.set or []), f"{self.key}={value}"]


def _out_dir(args, spec: RunSpec) -> Path:
    p = Path(args.out or os.environ.get(OUT_DIR_ENV) or spec.out_dir or ".")
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load_dataset(spec: RunSpec):
    source = spec.dataset
    if source is None:
        raise ContractError("no dataset configured; set 'dataset' in the config or pass --data")
    if source == "synthetic":
        named = {"name": spec.name} if spec.name else {}
        return generate_coupled(**spec.synth, **named)[0]
    if not Path(source).is_file():
        raise FileNotFoundError(f"dataset file not found: {source}")
    return load_csv(source, name=spec.name or Path(source).stem, frequency=spec.frequency,
                    forward_fill=spec.forward_fill)


def cmd_train(args) -> int:
    spec = load_run_spec(args.config, set_pairs(args.set))
    ds = _load_dataset(spec)
    out = _out_dir(args, spec)
    model_cfg = spec.model_config(ds.n_series)
    train_cfg = spec.train_config()
    print(manifest(ds, spec.split))
    (out / "manifest.txt").write_text(manifest(ds, spec.split) + "\n")
    prepared = prepare_windows(ds, spec.split, model_cfg.input_len, model_cfg.horizon)
    row, model, result = run_one(prepared, model_cfg, train_cfg,
                                 prepared.stats if spec.raw_space else None)
    ckpt = out / "model.ckpt"
    model.save(ckpt, run_info={"settings": spec.pairs})
    (out / "history.csv").write_text(result.history_csv())
    report = EvalReport([row])
    report.write(out / "report.csv")
    print(report.table())
    print(f"checkpoint: {ckpt}")
    print(f"history: {out / 'history.csv'}")
    return 0


def _checkpoint_windows(args):
    """The checkpoint's model, the run spec and the prepared windows.  With a
    config, that file and the command's pairs are the whole run.  Without one,
    the settings train recorded are replayed under the command's pairs: a pair
    wins for its key, and a dataset pair (--data) also drops the recorded name,
    so another file is never reported under the run's name."""
    model, run_info = load_model(args.checkpoint)
    pairs = set_pairs(args.set)
    if args.config is None:
        if run_info and "settings" not in run_info:
            raise ContractError(f"{args.checkpoint} records its run without settings (an older "
                                "checkpoint); pass --config with the run's config")
        recorded = {key: value for key, value in run_info.get("settings", {}).items()
                    if not (key == "name" and "dataset" in pairs)}
        pairs = {**recorded, **pairs}
    spec = load_run_spec(args.config, pairs)
    ds = _load_dataset(spec)
    if ds.n_series != model.cfg.n_nodes:
        raise ContractError(
            f"dataset has {ds.n_series} series but checkpoint expects {model.cfg.n_nodes}"
        )
    prepared = prepare_windows(ds, spec.split, model.cfg.input_len, model.cfg.horizon)
    return model, spec, prepared


def cmd_eval(args) -> int:
    model, spec, prepared = _checkpoint_windows(args)
    windows = split_windows(prepared, args.split, model.cfg.input_len, model.cfg.horizon)
    out = _out_dir(args, spec)
    preds = forecasts(model, windows, spec.train_config().batch_size)
    if args.dump_predictions:
        preds = _dump_predictions(windows, preds, out / args.dump_predictions)
    m, a = scores(windows, preds, prepared.stats if spec.raw_space else None)
    report = EvalReport([report_row(model.cfg, prepared.name, m, a)])
    print(report.to_csv(), end="")
    report.write(out / f"eval_{args.split}.csv")
    if args.dump_predictions:
        print(f"predictions: {out / args.dump_predictions}")
    return 0


def _dump_predictions(windows, preds, path):
    """Pass each forecast through after writing its window's rows to ``path``,
    so scoring and dumping share one pass and hold one batch at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window,node,step,y_true,y_pred\n")
        for wi, ((_, y), pred) in enumerate(zip(windows, preds)):
            for node in range(y.shape[0]):
                for step in range(y.shape[1]):
                    fh.write(f"{wi},{node},{step},{float(y[node, step])!r},"
                             f"{float(pred[node, step])!r}\n")
            yield pred


def cmd_grid(args) -> int:
    """sweep-gamma and ablate: one training per (horizon, grid value, seed)."""
    field, key, default, stem = GRIDS[args.command]
    spec = load_run_spec(args.config, set_pairs(args.set))
    ds = _load_dataset(spec)
    values = getattr(spec, key) or default
    horizons = spec.horizons or [spec.model_fields["horizon"]]
    report = grid_run(ds, spec.split, field, values, horizons, spec.model_config(ds.n_series),
                      spec.train_config(), spec.seeds, spec.raw_space)
    out = _out_dir(args, spec)
    report.write(out / f"{stem}.csv")
    report.averaged().write(out / f"{stem}_avg.csv")
    if field == "gamma":
        print(report.table())
        for gamma in values:
            print(f"gamma={gamma}: n={gamma_count(gamma, ds.n_series)}")
    else:
        print(report.averaged().table())
    print(f"report: {out / f'{stem}.csv'}")
    return 0


def cmd_synth_gen(args) -> int:
    spec = load_run_spec(args.config, set_pairs(args.set))
    ds, coupling = generate_coupled(**spec.synth)
    out = _out_dir(args, spec)
    path = out / (args.file or "synthetic.csv")
    write_csv(ds, path)
    np.savetxt(out / (Path(args.file or "synthetic.csv").stem + "_coupling.csv"),
               coupling, delimiter=",")
    print(f"wrote {ds.length} x {ds.n_series} series to {path}")
    return 0


def cmd_inspect_graph(args) -> int:
    model, spec, prepared = _checkpoint_windows(args)
    pairs = split_windows(prepared, args.split, model.cfg.input_len, model.cfg.horizon)
    if not 0 <= args.window < len(pairs):
        raise ContractError(f"window index {args.window} out of range [0, {len(pairs)})")
    x, _ = pairs[args.window]
    _, _, ctx = model.forward_batch(x, collect=True)
    out = _out_dir(args, spec)
    path = out / (args.file or "graph.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("stack,block,pathway,i,j,weight\n")
        for stack, block, pathway, _, adj in ctx.graph_records:
            for i, j, w in dump_edges(adj):
                fh.write(f"{stack},{block},{pathway},{i},{j},{w!r}\n")
    print(f"adjacency dump: {path} ({len(ctx.graph_records)} graphs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgmts",
        description="Train and study the hierarchical graph-learning forecaster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, flag, key, about="", const=None, **kwargs):
        metavar = flag.lstrip("-").upper().replace("-", "_")
        p.add_argument(flag, action=_SettingFlag, key=key, const=const, metavar=metavar,
                       help=f"{about} (--set {key}={const or metavar})".lstrip(), **kwargs)

    def common(p, config_required=True, reads_data=True):
        p.add_argument("--config", required=config_required, help="key=value config file")
        if reads_data:
            setting(p, "--data", "dataset", "dataset CSV path")
        p.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="set a config key; pairs and setting flags apply in order")

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    common(p)
    setting(p, "--horizon", "K")
    setting(p, "--variant", "variant", "hgmts1..hgmts6", choices=list(VARIANT_IDS))
    setting(p, "--gamma", "gamma")
    setting(p, "--seed", "seed")
    setting(p, "--max-epochs", "max_epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    setting(p, "--raw-space", "raw_space", "score in raw units", const="true")
    p.add_argument("--dump-predictions", metavar="FILE",
                   help="write per-window predicted-vs-true CSV")
    common(p, config_required=False)
    p.set_defaults(func=cmd_eval)

    for name, help_text, example in (
            ("sweep-gamma", "train/evaluate across graph sparsity levels", "0.2,0.3,0.4,0.5,0.6,0.7"),
            ("ablate", "train/evaluate wiring variants", "hgmts1,hgmts4")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        setting(p, f"--{GRIDS[name][1]}", GRIDS[name][1], f"comma list, e.g. {example}")
        setting(p, "--horizons", "horizons", "comma list of horizons")
        setting(p, "--seeds", "seeds", "comma list of seeds")
        setting(p, "--max-epochs", "max_epochs")
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("synth-gen", help="generate the coupled synthetic dataset")
    common(p, config_required=False, reads_data=False)
    p.add_argument("--file", help="output CSV name (default synthetic.csv)")
    for flag in ("n", "length", "seed", "lag", "noise"):
        setting(p, f"--{flag}", f"synth_{flag}")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("inspect-graph", help="dump inferred adjacencies for one window")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--file", help="output CSV name (default graph.csv)")
    common(p, config_required=False)
    p.set_defaults(func=cmd_inspect_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, TrainingDiverged, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
