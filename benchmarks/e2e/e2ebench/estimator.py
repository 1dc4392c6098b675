"""The interference-robust timing estimator.

A run makes several identical passes over the same input; each pass is
cut into slices of equal work at fixed positions, and next to every
slice the pass times the benchmark's fixed calibration loop
(:mod:`e2ebench.calibration`).  A slice's time divided by the host's
slowdown around it is what the slice would cost on the nominal host;
the **median over passes** of that quotient at one position rejects the
passes in which something hit the slice but not the calibration (a
stolen time slice, a page fault), and the composite pass time is the
sum of those per-position medians.

:func:`floor` is the estimator the benchmark started with — the
per-position minimum of the raw times.  It is kept for the span table
of the traced run, which breaks one pass down in raw seconds; as an
end-to-end estimator it did not repeat on this host (README.md).
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = ["composite", "floor", "iqr_share"]


def _matrix(passes: Sequence[Sequence[float]], what: str) -> np.ndarray:
    """A ``passes x positions`` matrix.  Every pass must have the same
    number of slices: positions are constants of the benchmark, so a
    ragged matrix means a pass did different work and must not be mixed
    in."""
    if len(passes) == 0:
        raise ValueError(f"no passes to combine ({what})")
    widths = {len(p) for p in passes}
    if len(widths) != 1 or 0 in widths:
        raise ValueError(
            f"passes disagree on the number of slices ({what}): "
            f"{sorted(widths)}")
    matrix = np.asarray(passes, dtype=np.float64)
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0):
        raise ValueError(f"{what} must be finite and non-negative")
    return matrix


def composite(slices: Sequence[Sequence[float]],
              slowdown: Sequence[Sequence[float]]
              ) -> tuple[np.ndarray, float]:
    """Per-position medians of ``slices / slowdown`` and their sum.

    ``slowdown[p][i]`` is how much slower than nominal the host ran the
    calibration loop around slice ``i`` of pass ``p``.
    """
    times = _matrix(slices, "slice times")
    factors = _matrix(slowdown, "slowdowns")
    if times.shape != factors.shape:
        raise ValueError(f"{times.shape} slice times but {factors.shape} "
                         "slowdowns")
    if np.any(factors <= 0.0):
        raise ValueError("slowdowns must be positive")
    position = np.median(times / factors, axis=0)
    return position, float(position.sum())


def floor(slices: Sequence[Sequence[float]]) -> tuple[np.ndarray, float]:
    """Per-position minima of the raw slice times and their sum."""
    slice_min = _matrix(slices, "slice times").min(axis=0)
    return slice_min, float(slice_min.sum())


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The spread the benchmark's acceptance rule uses: quartiles as
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
