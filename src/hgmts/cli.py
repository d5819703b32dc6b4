"""Command-line surface: train, eval, sweep-gamma, ablate, synth-gen, inspect-graph."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import ContractError, NumericError, ShapeMismatch
from .config import RunSpec, load_run_spec
from .data import SplitSpec, load_csv, manifest
from .experiments import EvalReport, grid_run, prepare_windows, run_one
from .latent_graph import dump_edges, gamma_count
from .model import VARIANT_IDS, load_model
from .synthetic import generate_coupled, write_csv
from .training import TrainingDiverged, evaluate, forecasts

OUT_DIR_ENV = "HGMTS_OUT_DIR"

# subcommand -> (ModelConfig field, list flag and config key, parser, default list, report stem)
GRIDS = {
    "sweep-gamma": ("gamma", "gammas", float, [0.2, 0.3, 0.4, 0.5, 0.6, 0.7], "sweep_gamma"),
    "ablate": ("variant", "variants", str, list(VARIANT_IDS), "ablation"),
}


def _out_dir(args, spec: RunSpec | None = None) -> Path:
    path = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) \
        or (spec.out_dir if spec else None) or "."
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _synth_kwargs(spec: RunSpec, **flags) -> dict:
    """``generate_coupled`` arguments from the config's synth_* keys; a flag that is
    not None wins over its key."""
    given = {"n": 8, "length": 2000, "seed": 0, "lag": 30, "noise": 0.3, **spec.synth,
             **{k: v for k, v in flags.items() if v is not None}}
    return dict(n_series=given["n"], length=given["length"], seed=given["seed"],
                coupling_lag=given["lag"], noise_std=given["noise"])


def _load_dataset(spec: RunSpec, path_override: str | None = None):
    source = path_override or spec.dataset
    if source is None:
        raise ContractError("no dataset configured; set 'dataset' in the config or pass --data")
    if source == "synthetic":
        return generate_coupled(**_synth_kwargs(spec))[0]
    if not Path(source).exists():
        raise FileNotFoundError(f"dataset file not found: {source}")
    return load_csv(source, name=spec.name or Path(source).stem, frequency=spec.frequency,
                    forward_fill=spec.forward_fill)


def _overrides(args) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ContractError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def cmd_train(args) -> int:
    spec = load_run_spec(args.config, _overrides(args))
    ds = _load_dataset(spec, args.data)
    out = _out_dir(args, spec)
    model_cfg = spec.model_config(
        ds.n_series,
        horizon=args.horizon,
        variant=args.variant,
        gamma=args.gamma,
        seed=args.seed,
    )
    train_cfg = spec.train_config(max_epochs=args.max_epochs, seed=args.seed)
    print(manifest(ds, spec.split))
    (out / "manifest.txt").write_text(manifest(ds, spec.split) + "\n")
    row, model, result, prepared = run_one(ds, spec.split, model_cfg, train_cfg)
    if spec.raw_space:
        row["mse"], row["mae"] = evaluate(model, prepared.test, prepared.stats, raw_space=True)
    ckpt = out / "model.ckpt"
    model.save(ckpt, run_info={"dataset": args.data or spec.dataset,
                               "synth": dict(spec.synth),
                               "name": ds.name,
                               "split": [spec.split.train, spec.split.val, spec.split.test],
                               "train": vars(train_cfg).copy()})
    (out / "history.csv").write_text(result.history_csv())
    report = EvalReport([row])
    report.write(out / "report.csv")
    print(report.table())
    print(f"checkpoint: {ckpt}")
    print(f"history: {out / 'history.csv'}")
    return 0


def _checkpoint_windows(args):
    """The checkpoint's model, the run spec and the prepared windows, from the
    data (file, or synthetic settings) and split that train read, unless a
    config or --data overrides them."""
    model, run_info = load_model(args.checkpoint)
    config = getattr(args, "config", None)
    spec = load_run_spec(config, _overrides(args)) if config else RunSpec()
    if not spec.dataset and run_info.get("dataset"):
        spec.dataset = run_info["dataset"]
    if config is None:
        spec.synth = run_info.get("synth", {})
        if run_info.get("split"):
            spec.split = SplitSpec(*run_info["split"])
    ds = _load_dataset(spec, args.data)
    if ds.n_series != model.cfg.n_nodes:
        raise ContractError(
            f"dataset has {ds.n_series} series but checkpoint expects {model.cfg.n_nodes}"
        )
    prepared = prepare_windows(ds, spec.split, model.cfg.input_len, model.cfg.horizon)
    return model, spec, prepared


def cmd_eval(args) -> int:
    model, spec, prepared = _checkpoint_windows(args)
    windows = getattr(prepared, args.split)
    m, a = evaluate(model, windows, prepared.stats, raw_space=args.raw_space)
    row = {
        "dataset": prepared.name,
        "variant": model.cfg.variant,
        "gamma": model.cfg.gamma,
        "horizon": model.cfg.horizon,
        "seed": model.cfg.seed,
        "mse": m,
        "mae": a,
        "epochs": 0,
        "wall_s": 0.0,
    }
    report = EvalReport([row])
    print(report.to_csv(), end="")
    out = _out_dir(args, spec)
    report.write(out / f"eval_{args.split}.csv")
    if args.dump_predictions:
        _dump_predictions(model, windows, out / args.dump_predictions)
        print(f"predictions: {out / args.dump_predictions}")
    return 0


def _dump_predictions(model, windows, path) -> None:
    n = model.cfg.n_nodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("window,node,step,y_true,y_pred\n")
        for wi, ((_, y), pred) in enumerate(zip(windows, forecasts(model, windows))):
            for node in range(n):
                for step in range(y.shape[1]):
                    fh.write(f"{wi},{node},{step},{float(y[node, step])!r},"
                             f"{float(pred[node, step])!r}\n")


def cmd_grid(args) -> int:
    """sweep-gamma and ablate: one training per (horizon, grid value, seed)."""
    field, key, kind, default, stem = GRIDS[args.command]
    spec = load_run_spec(args.config, _overrides(args))
    ds = _load_dataset(spec, args.data)
    listed = getattr(args, key)
    values = [kind(v) for v in listed.split(",")] if listed else (getattr(spec, key) or default)
    horizons = [int(h) for h in args.horizons.split(",")] if args.horizons else \
        (spec.horizons or [spec.model_fields["horizon"]])
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else (spec.seeds or None)
    model_cfg = spec.model_config(ds.n_series)
    train_cfg = spec.train_config(max_epochs=args.max_epochs)
    report = grid_run(ds, spec.split, field, values, horizons, model_cfg, train_cfg, seeds)
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
    spec = load_run_spec(args.config, _overrides(args)) if args.config else RunSpec()
    # a zero --n, --length or --lag falls back to the config, as an unset flag does
    ds, coupling = generate_coupled(**_synth_kwargs(
        spec, n=args.n or None, length=args.length or None, seed=args.seed,
        lag=args.lag or None, noise=args.noise))
    out = _out_dir(args, spec)
    path = out / (args.file or "synthetic.csv")
    write_csv(ds, path)
    np.savetxt(out / (Path(args.file or "synthetic.csv").stem + "_coupling.csv"),
               coupling, delimiter=",")
    print(f"wrote {ds.length} x {ds.n_series} series to {path}")
    return 0


def cmd_inspect_graph(args) -> int:
    model, spec, prepared = _checkpoint_windows(args)
    pairs = getattr(prepared, args.split)
    if not pairs:
        raise ContractError(f"split {args.split!r} has no windows at this (L, K)")
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="key=value config file")
        p.add_argument("--data", help="dataset CSV path (overrides config)")
        p.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--variant", choices=list(VARIANT_IDS))
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--raw-space", action="store_true")
    p.add_argument("--dump-predictions", metavar="FILE",
                   help="write per-window predicted-vs-true CSV")
    common(p, config_required=False)
    p.set_defaults(func=cmd_eval)

    for name, help_text, example in (
            ("sweep-gamma", "train/evaluate across graph sparsity levels", "0.2,0.3,0.4,0.5,0.6,0.7"),
            ("ablate", "train/evaluate wiring variants", "hgmts1,hgmts4")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument(f"--{GRIDS[name][1]}", help=f"comma list, e.g. {example}")
        p.add_argument("--horizons", help="comma list of horizons")
        p.add_argument("--seeds", help="comma list of seeds")
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("synth-gen", help="generate the coupled synthetic dataset")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--file", help="output CSV name (default synthetic.csv)")
    p.add_argument("--n", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--noise", type=float)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("inspect-graph", help="dump inferred adjacencies for one window")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--file", help="output CSV name (default graph.csv)")
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
    except (ContractError, ShapeMismatch, NumericError, TrainingDiverged,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
