import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace.harmonic import (
    BoundaryGrid,
    DiskFunction,
    boundary_from_taylor,
    grid_points,
    log_diagnostic,
    taylor_from_boundary,
)

N = 512

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        BoundaryGrid(np.ones(12))
    with pytest.raises(ValueError):
        BoundaryGrid(np.ones(4))


def _analytic_part(samples) -> np.ndarray:
    return taylor_from_boundary(BoundaryGrid(samples), N // 2 - 1)


def test_constant_has_single_mode():
    c = _analytic_part(np.ones(N))
    assert abs(c[0] - 1.0) < 1e-14
    assert np.max(np.abs(c[1:])) < 1e-14


def test_single_mode():
    c = _analytic_part(grid_points(N))
    assert abs(c[1] - 1.0) < 1e-13
    assert np.max(np.abs(np.delete(c, 1))) < 1e-13


def test_geometric_series_coefficients():
    c = _analytic_part(1.0 / (1.0 - 0.5 * grid_points(N)))
    assert np.max(np.abs(c - 0.5 ** np.arange(N // 2))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(complexes, min_size=8, max_size=8))
def test_fft_roundtrip(coeffs):
    arr = np.array(coeffs, dtype=complex)
    back = taylor_from_boundary(boundary_from_taylor(arr, N), arr.size - 1)
    scale = max(np.max(np.abs(arr)), 1.0)
    assert np.max(np.abs(back - arr)) <= 1e-12 * scale


# the analytic part (orders >= 0) of boundary data is its Riesz projection


def test_riesz_three_mode_example():
    # coefficients of conj(zeta) + 1 + zeta
    zeta = grid_points(N)
    c = _analytic_part(np.conj(zeta) + 1.0 + zeta)
    assert np.max(np.abs(c[:2] - 1.0)) < 1e-13
    assert np.max(np.abs(c[2:])) < 1e-13


def test_riesz_cosine_splits_symmetrically():
    # 2 cos(theta) splits into the mode zeta plus the mode conj(zeta)
    c = _analytic_part(2.0 * grid_points(N).real)
    assert abs(c[1] - 1.0) < 1e-13
    assert abs(c[0]) < 1e-13


def test_riesz_quotient_mode_example():
    # analytic part of conj(zeta) * zeta / sqrt(2) is the constant 1/sqrt(2)
    zeta = grid_points(N)
    c = _analytic_part(np.conj(zeta) * zeta / np.sqrt(2))
    assert abs(c[0] - 1 / np.sqrt(2)) < 1e-13


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


def test_disk_function_roundtrip():
    coeffs = np.array([1.0, 0.5j, -0.25, 0.125])
    f = DiskFunction(coeffs, n_boundary=N)
    assert f.at_zero() == coeffs[0]
    back = taylor_from_boundary(f.boundary, degree=3)
    assert np.max(np.abs(back - coeffs)) < 1e-10 * np.max(np.abs(coeffs))
