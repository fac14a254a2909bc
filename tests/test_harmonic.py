import numpy as np
import pytest

from hbspace.harmonic import DiskFunction, grid_points, log_diagnostic

N = 512


def test_grid_size_must_be_power_of_two():
    for n in (12, 4):
        with pytest.raises(ValueError):
            grid_points(n)
        with pytest.raises(ValueError):
            DiskFunction([0.0, 1.0], n_boundary=n)
    assert np.allclose(grid_points(N) ** N, 1.0)


def test_log_diagnostic_constant():
    verdict = log_diagnostic(np.full(N, 0.5), base_n=N)
    assert verdict.finite
    assert abs(verdict.estimate - np.log(0.5)) < 1e-8


def test_log_diagnostic_integrable_singularity():
    # classical value: the mean of log sin^2(theta/2) is -2 log 2
    verdict = log_diagnostic(lambda t: np.sin(t / 2.0) ** 2, base_n=4096)
    assert verdict.finite
    assert abs(verdict.estimate + 2.0 * np.log(2.0)) < 1e-2


def test_log_diagnostic_divergent_on_arc():
    verdict = log_diagnostic(lambda t: np.where(t < np.pi / 2, 0.0, 1.0), base_n=N)
    assert not verdict.finite
