import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace.errors import DegenerateModulusError
from hbspace.harmonic import (
    BoundaryGrid,
    DiskFunction,
    boundary_from_taylor,
    grid_points,
    herglotz,
    log_diagnostic,
    outer_from_modulus,
    poisson_extend,
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


def test_poisson_constant():
    assert abs(poisson_extend(3.0 * np.ones(N), 0.3 + 0.2j) - 3.0) < 1e-12


def test_poisson_cosine_mode():
    zeta = grid_points(N)
    s = zeta.real
    assert abs(poisson_extend(s, 0.0)) < 1e-13
    assert abs(poisson_extend(s, 0.5) - 0.5) < 1e-10


def test_poisson_rejects_exterior_and_unresolved():
    with pytest.raises(ValueError):
        poisson_extend(np.ones(N), 1.0)
    with pytest.raises(ValueError):
        poisson_extend(np.ones(N), 1.0 - 1e-6)  # N (1 - r) < 16


def test_herglotz_constant():
    h = herglotz(np.ones(N))
    assert abs(h(0.4 + 0.1j) - 1.0) < 1e-12


def test_herglotz_cosine():
    zeta = grid_points(N)
    h = herglotz(1.0 + zeta.real)
    z = 0.3 - 0.25j
    assert abs(h(z) - (1.0 + z)) < 1e-12


def test_herglotz_real_part_matches_poisson(rng):
    zeta = grid_points(N)
    s = np.exp(np.cos(np.angle(zeta))) + 0.5 * zeta.real ** 2
    h = herglotz(s)
    assert abs(h.at_zero().imag) < 1e-14
    for _ in range(20):
        z = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
        assert abs(h(z).real - poisson_extend(s, z)) < 1e-10


def test_herglotz_lower_bound():
    # boundary data >= 1 everywhere forces |H| >= 1 in the disk
    zeta = grid_points(N)
    s = 1.0 + 0.5 * (1.0 + zeta.real)
    h = herglotz(s)
    pts = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)
    assert np.min(np.abs(h(pts))) >= 1.0 - 1e-10


def test_outer_constant_moduli():
    w = outer_from_modulus(2.0 * np.ones(N))
    assert abs(w(0.2 + 0.3j) - 2.0) < 1e-10
    w2 = outer_from_modulus(np.ones(N) / np.sqrt(2))
    assert abs(w2(0.0) - 1 / np.sqrt(2)) < 1e-12


def test_outer_recovers_polynomial_factor():
    zeta = grid_points(N)
    w = outer_from_modulus(np.abs(1.0 - zeta / 2.0))
    assert abs(w(0.0) - 1.0) < 1e-10
    target = np.zeros_like(w.taylor)
    target[:2] = [1.0, -0.5]
    assert np.max(np.abs(w.taylor - target)) < 1e-10


def test_outer_modulus_match_and_zero_free():
    zeta = grid_points(N)
    m = np.exp(0.3 * np.cos(np.angle(zeta))) * (1.2 + 0.3 * np.sin(np.angle(zeta)))
    w = outer_from_modulus(m)
    mod = np.abs(boundary_from_taylor(w.taylor, N).samples)
    mask = m >= 1e-3
    assert np.max(np.abs(mod[mask] - m[mask]) / m[mask]) < 1e-8
    circle = 0.95 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.min(np.abs(w(circle))) > 1e-6
    assert w(0.0).real > 0


def test_outer_rejects_degenerate_modulus():
    zeta = grid_points(N)
    m = np.where(np.abs(np.angle(zeta)) < np.pi / 4, 0.0, 1.0)
    with pytest.raises(DegenerateModulusError):
        outer_from_modulus(m)


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


def _poisson_of_modulus_squared(coeffs, z):
    # coefficient-convolution oracle: P[|f|^2](z) = sum_m c_m with
    # c_m = sum_k f_{k+m} conj(f_k) z^m for m >= 0 and the mirror for m < 0
    c = np.asarray(coeffs, dtype=complex)
    total = 0.0 + 0.0j
    d = c.size
    for m in range(-d + 1, d):
        corr = sum(c[k + m] * np.conj(c[k]) for k in range(d) if 0 <= k + m < d)
        total += corr * (z ** m if m >= 0 else np.conj(z) ** (-m))
    return total.real


@pytest.mark.parametrize("coeffs", [[1.0, 1.0], [0.0, 1.0], [1.0, 1.0, 1.0]])
def test_poisson_of_modulus_squared_matches_convolutions(coeffs):
    zeta = grid_points(N)
    f_boundary = np.polyval(np.asarray(coeffs)[::-1], zeta)
    z = 0.4 - 0.3j
    direct = poisson_extend(np.abs(f_boundary) ** 2, z)
    oracle = _poisson_of_modulus_squared(coeffs, z)
    assert abs(direct - oracle) < 1e-12


def test_disk_function_roundtrip():
    coeffs = np.array([1.0, 0.5j, -0.25, 0.125])
    f = DiskFunction(coeffs, n_boundary=N)
    assert f.at_zero() == coeffs[0]
    back = taylor_from_boundary(f.boundary, degree=3)
    assert np.max(np.abs(back - coeffs)) < 1e-10 * np.max(np.abs(coeffs))
