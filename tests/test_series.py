import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import ztbtrs

from conftest import N_GRID, RANK2_EXAMPLE
from hbspace import series, subspaces
from hbspace.errors import NumericalError
from hbspace.harmonic import DiskFunction
from hbspace.model import SpaceHandle
from hbspace.symbols import RowSymbol
from hbspace.series import (
    SzegoSum,
    banded_recurrence,
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
    # the quotient grows like 0.3**-k, past the double range from k = 588:
    # it runs to inf/nan without raising and is exact up to there
    assert not np.all(np.isfinite(q))
    ref = _series_divide_loop(f, phi, 500)
    assert np.max(np.abs(q[:501] - ref) / np.abs(ref)) <= 1e-12
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


def _tbtrs_recurrence(steps, rhs, size):
    """Reference: the recurrence as one banded unit lower-triangular LAPACK
    solve (ztbtrs) of bandwidth p, one column per right-hand side."""
    steps = np.asarray(steps, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    band = np.zeros((steps.size + 1, size), dtype=complex, order="F")
    band[1:] = steps[:, None]  # band[k, j] is entry (j + k, j); the unit diagonal is implied
    padded = np.zeros((size, rhs.shape[1]), dtype=complex)
    width = min(size, rhs.shape[0])
    padded[:width] = rhs[:width]
    g, _ = ztbtrs(band, padded, uplo="L", diag="U")
    return g


def _recurrence_data(space):
    """s_k = conj(a_k) / conj(a_0) and r_m = -C_rev[m] / conj(a_0) of a handle's
    correlation: a the outer factor of the defect, C_rev the completion's last
    column reversed."""
    den = np.conj(space.symbol.defect.outer)
    return den[1:] / den[0], -space.factorization.column[::-1] / den[0]


def _seeded_row(rng, rank, sup):
    """Rank components of degree rank..6 whose sup of sum |b_i|^2 is exactly
    ``sup``: nonnegative coefficients peak at z = 1, and a rotation of z and a
    phase per component keep the moduli."""
    degree = int(rng.integers(rank, 7))
    coeffs = np.zeros((rank, degree + 1), dtype=complex)
    coeffs[:, 1:] = rng.uniform(0.1, 1.0, size=(rank, degree))
    coeffs *= np.exp(1j * rng.uniform(0, 2 * np.pi)) ** np.arange(degree + 1)
    coeffs *= np.exp(2j * np.pi * rng.uniform(size=(rank, 1)))
    return coeffs * np.sqrt(sup / np.sum(np.sum(np.abs(coeffs), axis=1) ** 2))


def _seeded_rows():
    rng = np.random.default_rng(5)
    return [pytest.param(_seeded_row(rng, rank, sup), id=f"rank{rank}-sup{sup}")
            for rank in (1, 2, 3) for sup in (0.5, 0.9, 1.0)]


@pytest.mark.parametrize("rows",
                         [pytest.param(RANK2_EXAMPLE, id="rank2-example")] + _seeded_rows())
def test_banded_recurrence_matches_tbtrs_on_seeded_rows(rows):
    space = SpaceHandle(RowSymbol([DiskFunction(r, n_boundary=N_GRID) for r in rows]),
                        n_grid=N_GRID)
    _check_against_tbtrs(*_recurrence_data(space))


@pytest.mark.parametrize("name", ["rank1_half", "cusp", "ddelta", "two_term", "weighted"])
def test_banded_recurrence_matches_tbtrs_on_named_handles(name, request):
    _check_against_tbtrs(*_recurrence_data(request.getfixturevalue(name)))


def test_banded_recurrence_without_steps_is_the_right_hand_side():
    rhs = np.arange(6.0).reshape(3, 2) + 1j
    _check_against_tbtrs(np.zeros(0), rhs)
    g = banded_recurrence(np.zeros(0), rhs, 40)
    assert np.array_equal(g[:3], rhs) and not np.any(g[3:])


def _check_against_tbtrs(steps, rhs):
    columns, p = rhs.shape[1], steps.size
    chunk = max(series._CHUNK, p, rhs.shape[0])  # the first chunk's length
    for size in (1, chunk - 1, chunk, chunk + 1, 257, 1025, 2048):
        got = banded_recurrence(steps, rhs, size)
        ref = _tbtrs_recurrence(steps[: size - 1], rhs, size)
        assert got.shape == (size, columns)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("lam_bar, width", [(0.0, 6), (0.95 * np.exp(-0.7j), 1),
                                            (0.95 * np.exp(-0.7j), 40), (-0.5, 40)],
                         ids=["origin", "width1", "width40", "real-width40"])
def test_geometric_divide_equals_the_recurrence(lam_bar, width):
    rng = np.random.default_rng(width)
    f = rng.normal(size=width) + 1j * rng.normal(size=width)
    for degree in (0, width - 1, width, 1024):
        got = geometric_divide(f, lam_bar, degree)
        ref = banded_recurrence([-lam_bar], f[:, None], degree + 1)[:, 0]
        assert got.shape == (degree + 1,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- exact Szego sums -------------------------------------------------------

def _random_sum(rng, shape, terms, width, radius):
    coeffs = rng.normal(size=shape + (terms, width)) + 1j * rng.normal(size=shape + (terms, width))
    points = radius * np.exp(2j * np.pi * rng.uniform(size=terms))
    return SzegoSum(coeffs, points)


def test_szego_sum_coefficients_are_the_geometric_division():
    rng = np.random.default_rng(3)
    f = _random_sum(rng, (), 3, 5, 0.95)
    ref = sum(geometric_divide(p, np.conj(mu), 300) for p, mu in zip(f.coeffs, f.points))
    assert np.max(np.abs(f.coefficients(301) - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(f.coefficients(3), f.coefficients(301)[:3])


@pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "vector"])
def test_szego_sum_inner_product_is_the_long_sum(shape):
    # the closed-form tail against 4000 explicit Taylor coefficients, |mu| <= 0.9
    rng = np.random.default_rng(4)
    f = _random_sum(rng, shape, 3, 4, 0.9)
    g = _random_sum(rng, shape, 2, 7, 0.8)
    a, b = f.coefficients(4000), g.coefficients(4000)
    ref = complex(np.vdot(b, a))
    assert abs(f.inner(g) - ref) <= 1e-13 * abs(ref)
    assert abs(f.norm_sq - np.vdot(a, a).real) <= 1e-13 * f.norm_sq
    assert f.norms_sq().shape == shape


@pytest.mark.parametrize("width", [1, 5])
def test_szego_sum_backward_is_the_shift_of_its_coefficients(width):
    rng = np.random.default_rng(width)
    f = _random_sum(rng, (2,), 3, width, 0.9)
    got = f.backward().coefficients(64)
    ref = np.array([shift_down(row) for row in f.coefficients(65)])
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "vector"])
def test_szego_sum_term_gram_is_the_pairwise_inner_product(shape):
    rng = np.random.default_rng(8)
    f = _random_sum(rng, shape, 3, 4, 0.95)
    g = _random_sum(rng, shape, 2, 2, 0.99)

    def term(s, j):
        return SzegoSum(s.coeffs[..., j: j + 1, :], s.points[j: j + 1])

    for a, b in ((f, g), (f, f)):
        got = a.term_gram(b)
        ref = np.array([[term(a, j).inner(term(b, k)) for k in range(b.points.size)]
                        for j in range(a.points.size)])
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert abs(f.term_gram(f).sum() - f.norm_sq) <= 1e-13 * f.norm_sq


def test_szego_sum_arithmetic():
    rng = np.random.default_rng(6)
    f = _random_sum(rng, (), 2, 3, 0.5)
    g = _random_sum(rng, (), 1, 6, 0.7)
    c = np.complex128(0.3 - 2j)
    total = sum([c * f, g * 2.0])  # starts from 0; numpy scalars defer to __rmul__
    assert isinstance(total, SzegoSum) and total.points.size == 3
    ref = c * f.coefficients(50) + 2.0 * g.coefficients(50)
    assert np.max(np.abs(total.coefficients(50) - ref)) <= 1e-14
    with pytest.raises(TypeError):
        f + np.ones(3)
    with pytest.raises(TypeError):
        np.ones(3) * f
    # a vector-valued sum is indexed along its leading axis; a scalar sum has none
    v = _random_sum(rng, (3,), 2, 4, 0.5)
    assert len(v) == 3 and np.array_equal(v[0].coeffs, v.coeffs[0])
    assert np.array_equal(v[1:].coeffs, v.coeffs[1:]) and v[1:].points is v.points
    for index in (len, lambda x: x[0]):
        with pytest.raises(TypeError):
            index(f)


def test_szego_sum_refuses_bad_input():
    with pytest.raises(ValueError):
        SzegoSum([[1.0]], [1.0])
    with pytest.raises(ValueError):
        SzegoSum([[np.nan]], [0.5])
    with pytest.raises(ValueError):
        SzegoSum([1.0, 2.0], [0.5])


def test_szego_taylor_cut_bounds_its_tail():
    # the dropped l1 tail of s_mu cut at d is |mu|^(d+1) / (1 - |mu|)
    s = SzegoSum([[1.0]], [0.9])
    assert np.allclose(s.taylor(300), szego_taylor(0.9, 300), rtol=1e-13, atol=0.0)
    with pytest.raises(NumericalError, match="Taylor cut"):
        s.taylor(100)  # 0.9^101 / 0.1 = 2.4e-4
    # the model-space basis is exact; only its cut refuses
    exact = subspaces.model_space_basis(subspaces.BlaschkeProduct([0.99]))[0]
    with pytest.raises(NumericalError):
        exact.taylor(256)
    assert len(subspaces.model_space_basis(subspaces.BlaschkeProduct([0.6, 0.0]))) == 2


def test_attached_rows_follow_multiples_and_sums_with_equal_keys():
    key = np.arange(3.0)
    a = SzegoSum([[1.0, 2.0]], [0.5])
    a.attached = (key, np.array([[[1.0]], [[2.0j]]]))
    b = SzegoSum([[3.0]], [-0.2j])
    b.attached = (key.copy(), np.array([[[4.0, 5.0]], [[6.0, 7.0]]]))
    c = 2.0 * a + b
    np.testing.assert_array_equal(c.attached[1], [[[2.0, 0.0], [4.0, 5.0]],
                                                  [[4.0j, 0.0], [6.0, 7.0]]])
    assert c.attached[0] is key
    other = SzegoSum([[1.0]], [0.1])
    other.attached = (key + 1.0, np.ones((2, 1, 1)))
    assert (a + other).attached is None
    assert (a + SzegoSum([[1.0]], [0.1])).attached is None
    assert a.backward().attached is None and SzegoSum.of([1.0]).attached is None
