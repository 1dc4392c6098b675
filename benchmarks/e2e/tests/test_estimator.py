"""The composite estimator on synthetic slice matrices."""

import statistics

import numpy as np
import pytest

from e2ebench.calibration import NOMINAL_S, calibrate, slowdowns
from e2ebench.estimator import composite, floor, iqr_share


def test_composite_is_sum_of_per_position_medians_of_the_quotients():
    position, total = composite([[3.0, 1.0, 6.0],
                                 [2.0, 4.0, 6.0],
                                 [9.0, 2.0, 4.0]],
                                [[1.0, 1.0, 2.0],
                                 [1.0, 2.0, 1.0],
                                 [3.0, 1.0, 1.0]])
    assert position.tolist() == [3.0, 2.0, 4.0]
    assert total == 9.0


def test_a_host_that_slows_work_and_calibration_alike_changes_nothing():
    rng = np.random.default_rng(1)
    clean = rng.uniform(0.01, 0.02, size=40)
    # Every pass sees another host: phases between 1x and 2.1x that
    # last a few slices, never the undisturbed state at every position.
    factors = np.repeat(rng.uniform(1.0, 2.1, size=(12, 8)), 5, axis=1)
    passes = clean * factors
    # ...and in a minority of passes something hits a slice alone.
    for p in range(4):
        passes[p, rng.integers(0, 40, size=3)] += 0.5
    _, total = composite(passes, factors)
    assert total == pytest.approx(clean.sum())
    # The raw estimators are far off: the median tracks the neighbours,
    # and the minimum does not find the undisturbed state everywhere.
    assert np.median(passes.sum(axis=1)) > 1.3 * clean.sum()
    assert floor(passes)[1] > 1.05 * clean.sum()


def test_floor_is_sum_of_per_position_minima():
    slice_min, total = floor([[3.0, 1.0, 5.0],
                              [2.0, 4.0, 6.0],
                              [9.0, 2.0, 4.0]])
    assert slice_min.tolist() == [2.0, 1.0, 4.0]
    assert total == 7.0


def test_single_pass_is_its_own_composite():
    position, total = composite([[0.5, 0.25]], [[2.0, 1.0]])
    assert position.tolist() == [0.25, 0.25] and total == 0.5


@pytest.mark.parametrize("slices, slowdown", [
    ([], []),                                  # no passes
    ([[1.0, 2.0], [1.0]], [[1.0, 1.0], [1.0]]),  # ragged: other work
    ([[]], [[]]),                              # no slices
    ([[1.0, float("nan")]], [[1.0, 1.0]]),
    ([[1.0, -0.1]], [[1.0, 1.0]]),
    ([[1.0, 2.0]], [[1.0]]),                   # a slice without a reading
    ([[1.0, 2.0]], [[1.0, 0.0]]),
])
def test_composite_rejects_matrices_it_cannot_combine(slices, slowdown):
    with pytest.raises(ValueError):
        composite(slices, slowdown)


def test_slowdowns_give_each_slice_the_mean_of_its_two_readings():
    readings = [1.0 * NOMINAL_S, 3.0 * NOMINAL_S, 2.0 * NOMINAL_S]
    assert slowdowns(readings, [2, 1]) == pytest.approx([2.0, 2.0, 2.5])
    with pytest.raises(ValueError):
        slowdowns(readings, [1])


def test_calibration_loop_takes_about_its_nominal_time():
    reading = min(calibrate(4) for _ in range(20))
    # Wide on purpose: hosts differ; the loop must only stay a loop of
    # about a millisecond that is cheap next to a slice.
    assert NOMINAL_S / 5 < reading < NOMINAL_S * 20


def test_iqr_share_matches_the_acceptance_rule():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.1, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == (q3 - q1) / statistics.median(values)
