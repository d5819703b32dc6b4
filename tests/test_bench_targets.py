"""Every function the benchmark's tracer wraps exists under the name it looks up.

``perfbench/run.py --trace 1`` replaces ``vars(owner)[attr]`` for each target
of ``measure.step_targets`` and ``measure.SETUP_TARGETS``; a renamed or moved
function would make a traced run fail.  This test only reads perfbench/.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("kind", ["train", "forecast"])
def test_trace_targets_resolve(kind, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure

    stub = SimpleNamespace(on_step=None, on_tape=None, on_forward=None, on_graphs=None)
    targets = measure.step_targets(stub, kind) + measure.SETUP_TARGETS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, missing
