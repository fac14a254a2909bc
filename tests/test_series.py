import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace import subspaces
from hbspace.series import (
    convolve,
    divided_difference,
    geometric_divide,
    horner,
    series_divide,
    shift_down,
    shift_up,
    szego_taylor,
)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
polys = st.lists(complexes, min_size=1, max_size=10)
interior = st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                     st.floats(0.0, 0.9), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(polys, interior)
def test_divided_difference_reconstructs(coeffs, lam):
    f = np.array(coeffs)
    q = divided_difference(f, lam)
    rebuilt = convolve(q, np.array([-lam, 1.0]))  # (z - lam) q
    rebuilt = rebuilt[: f.size] if rebuilt.size >= f.size else np.pad(
        rebuilt, (0, f.size - rebuilt.size))
    rebuilt[0] += horner(f, lam)
    assert np.max(np.abs(rebuilt - f)) < 1e-10 * (1 + np.max(np.abs(f)))


@settings(max_examples=60, deadline=None)
@given(polys, interior)
def test_geometric_divide_inverts(coeffs, lam):
    f = np.array(coeffs)
    q = geometric_divide(f, np.conj(lam), f.size + 40)
    rebuilt = convolve(q, np.array([1.0, -np.conj(lam)]))[: f.size]
    assert np.max(np.abs(rebuilt - f)) < 1e-9 * (1 + np.max(np.abs(f)))


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_series_divide_inverts(num, den):
    a = np.array(num)
    b = np.array(den)
    if abs(b[0]) < 0.1:
        b[0] = 1.0
    q = series_divide(a, b, 24)
    rebuilt = convolve(q, b)[:25]
    target = np.zeros(25, dtype=complex)
    target[: min(a.size, 25)] = a[:25]
    scale = 1 + np.max(np.abs(q)) * np.max(np.abs(b))
    assert np.max(np.abs(rebuilt - target)) < 1e-9 * scale


def _series_divide_loop(num, den, degree):
    """Reference: the coefficient recurrence
    den[0] q[k] = num[k] - sum_{m >= 1} den[m] q[k - m], one term at a time."""
    a = np.asarray(num, dtype=complex)
    b = np.asarray(den, dtype=complex)
    q = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        acc = a[k] if k < a.size else 0.0
        for m in range(1, min(k, b.size - 1) + 1):
            acc -= b[m] * q[k - m]
        q[k] = acc / b[0]
    return q


def test_series_divide_matches_recurrence_near_the_circle():
    rng = np.random.default_rng(11)
    for _ in range(4):
        poles = rng.uniform(0.88, 0.95, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        den = np.array([2.0 - 1.0j])
        for b in poles:
            den = convolve(den, np.array([1.0, -b]))  # zeros at 1 / b, outside the disk
        num = rng.normal(size=6) + 1j * rng.normal(size=6)
        q = series_divide(num, den, 2048)
        ref = _series_divide_loop(num, den, 2048)
        assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(series_divide([1.0, 2.0], [4.0], 3), [0.25, 0.5, 0.0, 0.0])


def test_overflowing_quotient_is_not_a_member(rank1_half):
    phi = np.array([-0.3, 1.0])  # f / phi has a pole at 0.3
    f = np.array([1.0, 0.5, 0.25])
    with np.errstate(all="ignore"):
        q = series_divide(f, phi, 2048)
    report = subspaces.shift_subspace_membership(rank1_half, phi, f)
    assert not np.all(np.isfinite(q))
    assert not report.member


@settings(max_examples=40, deadline=None)
@given(polys)
def test_shift_updown_identity(coeffs):
    f = np.array(coeffs)
    assert np.array_equal(shift_down(shift_up(f)), f)


def test_szego_taylor_is_geometric():
    lam = 0.4 + 0.3j
    t = szego_taylor(lam, 6)
    assert np.allclose(t, np.conj(lam) ** np.arange(7))
