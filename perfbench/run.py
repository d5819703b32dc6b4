"""hgmts benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-c7 --seed 1 --seconds 28 --trace 0

Writes the workload's inputs from the seed in a child process, then sets up,
warms up and measures in this process: one caller in a closed loop, BLAS
pinned to one thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every other timed unit with spans around the program's public calls and
prints the per-layer metrics. The last line of standard output is one JSON
object; the full result (and the spans, when traced) goes to perfbench/work/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import env
from workloads import EVAL_WINDOWS, WORKLOADS

HERE = Path(__file__).resolve().parent
INPUTS_TIMEOUT_S = 120


def write_inputs(workload: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(out)],
        check=True, timeout=INPUTS_TIMEOUT_S,
    )


def print_report(run, trace: bool, metrics: dict) -> None:
    r, w = run.report, run.w
    if w.kind == "train":
        rate = "train_wps"
        units = f"training.train calls of {w.train_windows} windows (validation included)"
        quality = f"val_mse          {r['val_mse']!r}  last epoch, bitwise equal in every call"
    else:
        rate = "eval_wps "
        units = f"evaluate calls of {EVAL_WINDOWS} windows at batch {w.batch}"
        quality = (f"test_mse         {r['test_mse']!r}  first pass after load "
                   f"(persistence {r['persistence_mse']:.6g})")
    lines = [
        f"workload {w.name}  seed {run.seed}  trace {int(trace)}  closed loop, 1 caller",
        f"  setup_s          {r['setup_s']:.6g} s  median of {r['setup_reps']} set-ups",
        f"  {rate}        {r['throughput_wps']:.6g} windows/s  over {r['units']} {units} "
        f"(per-unit median {r['wps_median']:.6g})",
        f"  {quality}",
    ]
    if not trace:
        lines += [
            f"  forecast_ms_mean {r['forecast_ms_mean']:.6g} ms  of {r['forecast_samples']} "
            "batch-1 forecasts",
            f"  forecast_ms_p10  {r['forecast_ms_p10']:.6g} ms",
            f"  forecast_ms_p50  {r['forecast_ms_p50']:.6g} ms",
            f"  forecast_ms_p95  {r['forecast_ms_p95']:.6g} ms",
        ]
    lines += [
        f"  peak_rss_mb      {r['peak_rss_mb']:.6g} MB",
        f"  fail_ratio       {run.failed}/{run.attempted}",
    ]
    lines += [f"  check {name}: {'ok' if ok else 'FAILED ' + detail}"
              for name, (ok, detail) in run.checks.items()]
    if trace:
        lines += [f"  {name:32s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    env.pin_blas()
    env.use_source_tree()
    import measure  # numpy and hgmts load only after the two lines above

    trace = bool(args.trace)
    env.WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=env.WORK))
    try:
        write_inputs(args.workload, args.seed, tmp)
        ckpt = tmp / "model.ckpt"
        run = measure.Run(WORKLOADS[args.workload], args.seed, args.seconds,
                          str(tmp / "data.csv"), str(ckpt) if ckpt.exists() else None, str(tmp))
        run.run(trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = run.failed == 0 and all(ok for ok, _ in run.checks.values())
    # BENCHMARK.json names the metrics each mode prints, and their units
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = run.per_layer if trace else run.report
    if trace:
        run.tracers["steps"].write(env.WORK / f"{tag}.spans.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    environment = env.record()
    with open(env.WORK / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": run.report, "checks": run.checks,
                   "per_layer": run.per_layer, "env": environment}, fh, indent=1)
    print_report(run, trace, metrics)
    print("env " + json.dumps(environment))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
