"""Write one workload's inputs from a seed: the CSV, plus a checkpoint for forecast-c7.

Runs as its own process so that its memory and time stay out of the measured
run, which then sees only these files:

    python3 perfbench/inputs.py --workload forecast-c7 --seed 1 --out perfbench/work/in
"""

from __future__ import annotations

import argparse
from pathlib import Path

import env
from workloads import CHECKPOINT_LR, CHECKPOINT_VAL_WINDOWS, SPLIT, WORKLOADS, Workload

CSV_NAME = "data.csv"
CHECKPOINT_NAME = "model.ckpt"


def write_inputs(w: Workload, seed: int, out: Path) -> None:
    from hgmts.data import SplitSpec, load_csv
    from hgmts.experiments import prepare_windows
    from hgmts.model import ModelConfig, build_variant
    from hgmts.synthetic import generate_coupled, write_csv
    from hgmts.training import TrainConfig, train

    out.mkdir(parents=True, exist_ok=True)
    ds, _ = generate_coupled(**w.synth_kw(seed))
    write_csv(ds, out / CSV_NAME)
    if w.kind != "forecast":
        return
    # trained from the CSV as written, as `hgmts train` would see it
    cfg = ModelConfig(**w.model_kw(seed))
    prepared = prepare_windows(load_csv(out / CSV_NAME), SplitSpec(*SPLIT), cfg.input_len,
                               cfg.horizon)
    model = build_variant(cfg)
    train(model, prepared.train, prepared.val[:CHECKPOINT_VAL_WINDOWS],
          TrainConfig(lr0=CHECKPOINT_LR, max_epochs=1, batch_size=w.batch, seed=seed))
    model.save(out / CHECKPOINT_NAME, {"split": list(SPLIT)})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    env.pin_blas()
    env.use_source_tree()
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
