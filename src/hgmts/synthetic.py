"""Coupled synthetic multivariate series with a known sparse influence graph.

Each node is the sum of a shared low-frequency trend, its own seasonality, a
slow random walk, a lagged weighted sum of its parent nodes, and noise:

    v[i, t] = trend(t) + season_i(t) + walk_i(t)
              + sum_j A[i, j] * v[j, t - lag] + eps

The coupling matrix A is sparse with row sums below one, so the recursion is
stable.  The walk matters: a parent's recent innovations reach a child only
through the lagged coupling, so with lag >= horizon a forecaster that can see
the parent windows holds information a per-node forecaster provably lacks,
while the seasonal parts keep the series far more predictable than the
persistence baseline.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError
from .data import Dataset


def generate_coupled(
    n_series: int = 8,
    length: int = 2000,
    seed: int = 0,
    coupling_lag: int = 30,
    parents_per_node: int = 2,
    coupling_scale: float = 0.8,
    noise_std: float = 0.1,
    walk_std: float = 0.12,
    walk_rho: float = 0.95,
    season_amp: float = 1.0,
    walk_sources: int | None = None,
    name: str = "synthetic-coupled",
) -> tuple[Dataset, np.ndarray]:
    """Returns (dataset, coupling matrix A). A[i, j] weights parent j of node i.

    With ``walk_sources`` set, only the first that many nodes carry a walk and
    act as parents; the rest couple to them, so their stochastic component is
    visible only through the graph.
    """
    for arg, value, least in (("n_series", n_series, 1), ("length", length, 1),
                              ("coupling_lag", coupling_lag, 1), ("noise_std", noise_std, 0),
                              ("seed", seed, 0)):
        if value < least:
            raise ContractError(f"generate_coupled: {arg} must be >= {least}, got {value}")
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n_series, n_series))
    for i in range(n_series):
        if walk_sources is None:
            candidates = [j for j in range(n_series) if j != i]
        elif i < walk_sources:
            candidates = []
        else:
            candidates = [j for j in range(walk_sources) if j != i]
        if not candidates:
            continue
        parents = rng.choice(candidates, size=min(parents_per_node, len(candidates)), replace=False)
        raw = rng.uniform(0.5, 1.0, size=parents.size)
        coupling[i, parents] = coupling_scale * raw / raw.sum()

    t = np.arange(length)
    trend = 0.6 * np.sin(2 * np.pi * t / (length / 3)) + 0.3 * (t / length)
    periods = rng.choice([12, 16, 24, 32], size=n_series)
    phases = rng.uniform(0, 2 * np.pi, size=n_series)
    amps = season_amp * rng.uniform(0.8, 1.4, size=n_series)
    season = amps[:, None] * np.sin(2 * np.pi * t[None, :] / periods[:, None] + phases[:, None])

    # mean-reverting walk: wanders on the lag timescale without drifting away
    innovations = rng.normal(0.0, walk_std, size=(n_series, length))
    if walk_sources is not None:
        innovations[walk_sources:] = 0.0
    walk = np.zeros((n_series, length))
    for step in range(1, length):
        walk[:, step] = walk_rho * walk[:, step - 1] + innovations[:, step]

    noise = rng.normal(0.0, noise_std, size=(n_series, length))
    values = np.zeros((n_series, length))
    for step in range(length):
        values[:, step] = trend[step] + season[:, step] + walk[:, step] + noise[:, step]
        if step >= coupling_lag:
            values[:, step] += coupling @ values[:, step - coupling_lag]

    ds = Dataset(
        name=name,
        values=values.T.copy(),
        channels=[f"s{i}" for i in range(n_series)],
        timestamps=[str(i) for i in range(length)],
        frequency="synthetic",
    )
    return ds, coupling


def write_csv(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(ds.channels) + "\n")
        stamps = ds.timestamps or [str(i) for i in range(ds.length)]
        for i in range(ds.length):
            row = ",".join(repr(float(v)) for v in ds.values[i])
            fh.write(f"{stamps[i]},{row}\n")
