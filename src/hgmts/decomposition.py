"""Trend/seasonal split of a window via moving average.

The trend is a length-preserving moving average of each row (one GEMM, see
``autodiff.avgpool1d``); the seasonal part is the residual x - trend.  Adding
the two back rounds twice, so it reconstructs the input to within
2**-53 * (|x| + |x - trend|) per element, not exactly: 8.9e-16 at worst on a
(64, 48) block of uniform(-5, 5) values.  Edge padding (replicating end
values) is the default; strict zero padding is kept as an alternative because
it drags the boundary trend toward zero, which some pipelines want to probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class DecomposedSeries:
    trend: Tensor
    seasonal: Tensor


def decompose(x: Tensor, kernel: int, padding: str = "edge") -> DecomposedSeries:
    """Split rows of x (nodes x length) into moving-average trend and residual."""
    trend = ad.avgpool1d(x, kernel, padding)
    seasonal = ad.sub(x, trend)
    return DecomposedSeries(trend=trend, seasonal=seasonal)
