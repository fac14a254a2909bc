import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import linear_sum_assignment

from hbspace import spectral
from hbspace.errors import ConvergenceError, ExtremeTypeError, InvariantViolation
from hbspace.harmonic import grid_points
from hbspace.model import SpaceHandle
from hbspace.series import trim
from hbspace.spectral import (
    MatrixSymbol,
    defect_identity_bound,
    defect_split,
    factor_residual,
    matrix_outer_factor,
    row_defect_factor,
)
from hbspace.symbols import RowSymbol, weighted_space_symbol
from conftest import (
    RANK2_EXAMPLE,
    ddelta_taylor,
    gauge_fix,
    lossless_row,
    noncontractive_row,
    peel_completion,
    scaled_row,
    seeded_rows,
)

N = 1024


def test_constant_scalar_factor():
    rep = matrix_outer_factor(np.full(N, 0.5, dtype=complex))
    assert abs(rep.symbol.at_zero()[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert rep.residual < 1e-14


def test_polynomial_scalar_reconstruction():
    zeta = grid_points(N)
    rep = matrix_outer_factor(np.abs(1.0 - zeta / 2.0) ** 2)
    coeffs = rep.symbol.coeffs[:, 0, 0]
    assert rep.method == "roots"
    assert abs(coeffs[0] - 1.0) < 1e-10
    assert abs(coeffs[1] + 0.5) < 1e-10
    assert coeffs[2:].size == 0 or np.max(np.abs(coeffs[2:])) < 1e-10


def test_factor_residual_trivial_cases():
    eye = np.tile(np.eye(2, dtype=complex), (N, 1, 1))
    assert factor_residual(MatrixSymbol(np.eye(2, dtype=complex)[None]), eye) == 0.0
    const = MatrixSymbol(np.full((1, 1, 1), 1.0 / np.sqrt(2.0), dtype=complex))
    assert factor_residual(const, np.full(N, 0.5, dtype=complex)) < 1e-15


def test_factor_residual_first_order_growth():
    zeta = grid_points(N)
    phi = np.abs(1.0 - zeta / 2.0) ** 2
    a = matrix_outer_factor(phi).symbol
    norm_a = float(np.max(np.abs(a.samples(N))))
    eps = 1e-6
    bumped = MatrixSymbol(a.coeffs + eps * np.eye(1)[None])
    slope = factor_residual(bumped, phi) / eps
    assert 0.5 * norm_a < slope < 4.0 * norm_a


def test_factorization_is_deterministic():
    zeta = grid_points(N)
    phi = np.abs(1.0 - 0.3 * zeta - 0.2 * zeta ** 2) ** 2
    a1 = matrix_outer_factor(phi).symbol.coeffs
    a2 = matrix_outer_factor(phi).symbol.coeffs
    assert np.array_equal(a1, a2)


def test_boundary_zero_field_is_regularized():
    zeta = grid_points(N)
    phi = (np.abs(1.0 - zeta) ** 2 / 4.0).astype(complex)  # sin^2(theta/2)
    rep = matrix_outer_factor(phi)
    assert rep.residual < 1e-8
    # the root split factors the unregularized samples and returns the exact
    # factor (1 - z) / 2, so the report carries no regularization
    assert rep.method == "roots"
    assert rep.regularization == 0
    assert np.max(np.abs(rep.symbol.coeffs[:, 0, 0] - [0.5, -0.5])) < 1e-14


def test_extreme_type_field_rejected():
    phi = np.zeros(N, dtype=complex)  # defect of an inner symbol
    with pytest.raises(ExtremeTypeError):
        matrix_outer_factor(phi)


def test_arc_degenerate_field_rejected():
    zeta = grid_points(N)
    phi = np.where(np.abs(np.angle(zeta)) < np.pi / 3, 0.0, 1.0).astype(complex)
    with pytest.raises(ExtremeTypeError):
        matrix_outer_factor(phi)


def test_dimension_cap():
    phi = np.tile(np.eye(9, dtype=complex), (64, 1, 1))
    with pytest.raises(ValueError):
        matrix_outer_factor(phi)


def test_indefinite_field_rejected():
    phi = np.full(N, -1.0, dtype=complex)
    with pytest.raises(ValueError):
        matrix_outer_factor(phi)


def test_matrix_field_is_refused():
    phi = np.tile(np.eye(2, dtype=complex), (N, 1, 1))
    with pytest.raises(ValueError, match="row_defect_factor"):
        matrix_outer_factor(phi)


def test_non_polynomial_field_is_refused():
    # 1 / |1 - 0.9 z|^2 has the outer factor 1 / (1 - 0.9 z), but its Laurent
    # coefficients 0.9^|m| / 0.19 stay above the trim for |m| up to 262
    phi = 1.0 / np.abs(1.0 - 0.9 * grid_points(N)) ** 2
    with pytest.raises(ValueError, match="not a trigonometric polynomial"):
        matrix_outer_factor(phi)


# -- the exact route for polynomial rows ----------------------------------------


def _row_samples(rows, n_grid):
    b = np.atleast_2d(np.asarray(rows, dtype=complex))
    padded = np.zeros((n_grid, b.shape[0]), dtype=complex)
    padded[: b.shape[1]] = b.T
    return np.fft.ifft(padded, axis=0) * n_grid


def _row_field(rows, n_grid):
    """Samples of I - B*B for the coefficient rows of B."""
    samples = _row_samples(rows, n_grid)
    return np.eye(samples.shape[1])[None] - samples.conj()[:, :, None] * samples[:, None, :]


def _random_row(rng, rank, sup):
    """Random row with B(0) = 0, scaled so that max |B|^2 on a fine grid is sup."""
    degree = int(rng.integers(rank, 7))
    rows = np.zeros((rank, degree + 1), dtype=complex)
    rows[:, 1:] = rng.normal(size=(rank, degree)) + 1j * rng.normal(size=(rank, degree))
    energy = np.sum(np.abs(_row_samples(rows, 1 << 12)) ** 2, axis=1)
    return rows * np.sqrt(sup / np.max(energy))


def _wilson_reference(phi, max_iter=200, tol=1e-12):
    """Outer factor of a sampled Hermitian PSD field by Wilson's Newton-type
    iteration (Wilson, SIAM J. Appl. Math. 23, 1972), an independent reference
    for the root split: psi with psi psi* = Phi^T is iterated on the grid,
    and A is the analytic part of psi^T, tail-trimmed at 1e-13 and gauged."""
    phi = 0.5 * (phi + np.conj(np.transpose(phi, (0, 2, 1))))
    n_grid, n, _ = phi.shape
    phi_t = np.transpose(phi, (0, 2, 1))
    mean0 = phi_t.mean(axis=0)
    vals, vecs = eigh(0.5 * (mean0 + mean0.conj().T))
    psi = np.tile((vecs * np.sqrt(np.clip(vals, 1e-300, None))) @ vecs.conj().T,
                  (n_grid, 1, 1))
    eye = np.eye(n)
    for _ in range(max_iter):
        psi_inv = np.linalg.inv(psi)
        g = psi_inv @ phi_t @ np.conj(np.transpose(psi_inv, (0, 2, 1))) + eye
        # analytic projection of g with halved zero mode
        g_hat = np.fft.fft(g, axis=0) / n_grid
        g_hat[0] *= 0.5
        s = np.triu(g_hat[0], 1)
        g_hat[n_grid // 2:] = 0.0
        psi_next = psi @ (np.fft.ifft(g_hat, axis=0) * n_grid + s - s.conj().T)
        delta = float(np.max(np.abs(psi_next - psi)))
        psi = psi_next
        if delta < tol * max(1.0, float(np.max(np.abs(psi)))):
            break
    coeffs = (np.fft.fft(np.transpose(psi, (0, 2, 1)), axis=0) / n_grid)[: n_grid // 2]
    mags = np.max(np.abs(coeffs), axis=(1, 2))
    coeffs = coeffs[: int(np.nonzero(mags > 1e-13 * mags.max())[0][-1]) + 1]
    return spectral.trim_blocks(gauge_fix(coeffs))


def _min_det_inside(symbol, radius=0.99, count=256):
    circle = radius * np.exp(2j * np.pi * np.arange(count) / count)
    return min(abs(np.linalg.det(symbol.at(z))) for z in circle)


@pytest.mark.parametrize("n_grid", [1024, 4096])
def test_rank_two_example_factors_exactly(n_grid):
    # det(I - B*B) = sin^2(theta / 2) touches zero at z = 1
    rep = row_defect_factor(RANK2_EXAMPLE, defect_split(RANK2_EXAMPLE))
    assert (rep.method, rep.iterations, rep.regularization) == ("exact", 0, 0.0)
    assert rep.residual <= 1e-12
    assert factor_residual(rep.symbol, _row_field(RANK2_EXAMPLE, n_grid)) <= 1e-12
    assert _min_det_inside(rep.symbol) > 1e-3  # outer: no zero inside the disk


@pytest.mark.parametrize("sup", [0.5, 0.9])
def test_exact_factor_matches_wilson_on_interior_rows(sup):
    rng = np.random.default_rng(20)
    for rank in (1, 2, 3):
        for _ in range(4):
            rows = _random_row(rng, rank, sup)
            exact = row_defect_factor(rows, defect_split(rows))
            a, w = exact.symbol.coeffs, _wilson_reference(_row_field(rows, N))
            width = max(a.shape[0], w.shape[0])
            a = np.concatenate([a, np.zeros((width - a.shape[0],) + a.shape[1:])])
            w = np.concatenate([w, np.zeros((width - w.shape[0],) + w.shape[1:])])
            assert np.max(np.abs(a - w)) <= 1e-12
            assert exact.residual <= 1e-13
            assert _min_det_inside(exact.symbol) > 0.0


# -- the coefficient certificate --------------------------------------------------


@pytest.mark.parametrize("n_grid", [1024, 4096])
@pytest.mark.parametrize("sup", [0.5, 0.9, 1.0])
def test_coefficient_bound_covers_the_grid_residual(n_grid, sup):
    rng = np.random.default_rng(21)
    for rank in (1, 2, 3):
        for _ in range(3):
            rows = scaled_row(rng, rank, sup)
            rep = row_defect_factor(rows, defect_split(rows))
            assert rep.residual == defect_identity_bound(rep.symbol.coeffs, rows)
            grid = factor_residual(rep.symbol, _row_field(rows, n_grid))
            assert grid - 1e-14 <= rep.residual <= 1e-12


@pytest.mark.parametrize("sup", [0.5, 1.0])
def test_coefficient_bound_first_order_growth(sup):
    # an error of size eps in any one coefficient block shows in the bound,
    # which stays above the sampled residual of the perturbed factor
    rng = np.random.default_rng(22)
    eps = 1e-6
    for rank in (1, 2, 3):
        rows = scaled_row(rng, rank, sup)
        a = row_defect_factor(rows, defect_split(rows)).symbol.coeffs
        field = _row_field(rows, N)
        for k in range(a.shape[0] + 1):
            bumped = np.concatenate([a, np.zeros((1, rank, rank))])
            bumped[k] += eps * np.eye(rank)
            bound = defect_identity_bound(bumped, rows)
            assert bound >= eps / 2
            assert bound >= factor_residual(MatrixSymbol(bumped), field) - 1e-14


def test_noncontractive_row_refused_as_invariant_violation():
    # the defect is nonnegative on every grid point but dips to -1.77e-8 in
    # between; the midpoint of its two circle roots exposes it
    with pytest.raises(InvariantViolation, match="negative on the circle: -1.7"):
        defect_split(noncontractive_row())


def test_row_defect_factor_refuses_a_split_of_another_row():
    with pytest.raises(ValueError, match="not the split of this row"):
        row_defect_factor(RANK2_EXAMPLE, defect_split([[0.0, 0.5]]))


def test_odd_circle_root_count_is_a_convergence_error(monkeypatch):
    # b = c z (1 + z) / 2 with d = 1 - c^2 cos^2(theta / 2) > 0: its root pair
    # exp(+-L), L = 0.9e-5, lies inside the circle tolerance 1e-5 and pairs up,
    # but d = L^2 / 4 = 2e-11 at its centre is no zero
    big_l = 0.9e-5
    c = np.sqrt(4.0 / (2.0 + 2.0 * np.cosh(big_l)))
    row = [[0.0, c / 2, c / 2]]
    assert RowSymbol(row).defect.circle_roots.size == 0
    # rounding that moves the pair across the tolerance (log-moduli 1.1e-5
    # and -0.7e-5) leaves an odd circle count: a failed split, not a verdict
    roots = spectral._laurent_roots
    monkeypatch.setattr(spectral, "_laurent_roots", lambda d: roots(d) * np.exp(0.2e-5))
    with pytest.raises(ConvergenceError, match="1 on the circle"):
        RowSymbol(row)


# -- the root split of real and complex defects ----------------------------------


def _degree_row(rng, rank, degree, sup, real):
    """Random row of the given degree with B(0) = 0, real or complex
    coefficients, scaled so that max sum |b_i|^2 on 2^14 points is sup."""
    rows = np.zeros((rank, degree + 1), dtype=complex)
    rows[:, 1:] = rng.normal(size=(rank, degree))
    if not real:
        rows[:, 1:] += 1j * rng.normal(size=(rank, degree))
    energy = np.sum(np.abs(_row_samples(rows, 1 << 14)) ** 2, axis=1)
    return rows * np.sqrt(sup / np.max(energy))


def _real_rows():
    rows = [[ddelta_taylor()], [[0.0, 0.5, 0.5]], RANK2_EXAMPLE]
    rng = np.random.default_rng(30)
    for degree in (6, 12, 20, 30, 40):
        for rank in (1, 2, 3):
            rows.append(_degree_row(rng, rank, degree, 0.9, real=True))
    return rows


@pytest.mark.parametrize("rows", _real_rows())
def test_chebyshev_roots_match_companion_roots(rows):
    # a real defect splits by the Chebyshev colleague matrix of size q; the
    # roots of z^q d from the companion matrix of size 2q are the same multiset
    d = trim(spectral._defect_laurent(np.atleast_2d(np.asarray(rows, dtype=complex))))
    assert not np.any(d.imag)
    got = spectral._laurent_roots(d)
    ref = np.roots(np.concatenate([d[::-1], np.conj(d[1:])]))
    assert got.size == ref.size == 2 * (d.size - 1)
    cost = np.abs(got[:, None] - ref[None, :])
    i, j = linear_sum_assignment(cost)
    err = cost[i, j] / np.maximum(1.0, np.abs(ref[j]))
    # a double circle zero splits by sqrt(eps) in the companion matrix (D(delta_1),
    # cusp and the rank-2 example touch at z = 1); every other root matches to 1e-10
    near = np.abs(np.log(np.abs(ref[j]))) <= spectral._CIRCLE_TOL
    assert np.all(err[~near] <= 1e-10)
    assert np.all(err[near] <= 1e-7)
    assert np.sum(near) == 2 * defect_split(rows).circle_roots.size


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("degree", [40, 60, 80])
def test_high_degree_rows_certify(degree, real):
    # the outer factor is rebuilt from its roots by one exact-size FFT, so
    # defects of degree 60 and 80 certify (expanding the roots by repeated
    # convolution left them above the target)
    rng = np.random.default_rng([degree, real])
    for rank in (1, 2, 3):
        for sup in (0.5, 0.9, 0.99):
            rows = _degree_row(rng, rank, degree, sup, real)
            rep = row_defect_factor(rows, defect_split(rows))
            assert rep.residual <= 1e-11


def test_real_rows_split_without_the_companion_matrix(monkeypatch):
    def refuse(p):
        raise AssertionError("np.roots called for a real defect")
    monkeypatch.setattr(np, "roots", refuse)
    for rows in ([ddelta_taylor()], [[0.0, 0.5, 0.5]], RANK2_EXAMPLE):
        space = SpaceHandle(RowSymbol(rows))
        np.testing.assert_allclose(space.symbol.defect.circle_roots, [1.0], atol=1e-12)
        assert space.mode == "analytic"
        assert space.defect_identity_residual() <= 1e-12


# -- the balanced realization against the peel lattice ---------------------------


def _reference_rows():
    """72 seeded rows (``seeded_rows``), then the cusp, D(delta_1), the
    rank-2 example and the weighted symbol."""
    return seeded_rows(40) + [[[0.0, 0.5, 0.5]], [ddelta_taylor()], RANK2_EXAMPLE,
                              weighted_space_symbol([1.0, 2.0, 2.5, 3.0]).rows]


def _padded(coeffs, width):
    return np.concatenate([coeffs, np.zeros((width - coeffs.shape[0],) + coeffs.shape[1:])])


@pytest.mark.parametrize("rows", _reference_rows())
def test_realization_matches_the_peel_lattice(rows):
    split = defect_split(rows)
    h = lossless_row(rows, split)
    n = h.shape[1] - 1
    # [h; completion] is paraunitary: the Laurent coefficients of U U* are delta_m0 I
    u = np.concatenate([h[:, None, :], spectral._lossless_completion(h)], axis=1)
    for lag in range(u.shape[0]):
        e = np.einsum("kij,klj->il", u[: u.shape[0] - lag], u[lag:].conj())
        assert np.max(np.abs(e - (lag == 0) * np.eye(n + 1))) <= 1e-13
    ref = spectral.trim_blocks(gauge_fix(peel_completion(h)[:, :, :n]))
    got = row_defect_factor(rows, split).symbol.coeffs
    width = max(ref.shape[0], got.shape[0])
    assert np.max(np.abs(_padded(got, width) - _padded(ref, width))) <= 1e-13


def _column_rows():
    """72 seeded rows, then the cusp, D(delta_1), the two-term symbol, the
    weighted symbol and the rank-2 example."""
    return seeded_rows(7) + [[[0.0, 0.5, 0.5]], [ddelta_taylor()],
                             [[0.0, 2 ** -0.5, 0.0], [0.0, 0.0, 0.5]],
                             weighted_space_symbol([1.0, 2.0, 2.5, 3.0]).rows, RANK2_EXAMPLE]


@pytest.mark.parametrize("rows", _column_rows())
def test_completion_column_is_orthogonal_to_the_factor_columns(rows):
    # U = [[B, a_rev], [A, C]] is paraunitary, so B* a_rev + A* C = 0 on the
    # circle: with M_k = [b_k; A_k] and N_k = [a_rev_k; C_k], every Laurent
    # coefficient sum_k M_k* N_{k+m} of the report's A and C vanishes
    split = defect_split(rows)
    rep = row_defect_factor(rows, split)
    h = lossless_row(rows, split)
    p, n = h.shape[0] - 1, h.shape[1] - 1
    m_blocks = np.zeros((p + 1, n + 1, n), dtype=complex)
    m_blocks[:, 0] = h[:, :n]
    m_blocks[: rep.symbol.coeffs.shape[0], 1:] = rep.symbol.coeffs
    n_rows = np.concatenate([h[:, n:], rep.column], axis=1)
    for lag in range(-p, p + 1):
        lo, hi = max(0, -lag), min(p + 1, p + 1 - lag)
        e = np.einsum("kji,kj->i", m_blocks[lo:hi].conj(), n_rows[lo + lag: hi + lag])
        assert np.max(np.abs(e)) <= 1e-13


def test_factor_linalg_calls_do_not_grow_with_the_degree(monkeypatch):
    # the completion and its certificate take a fixed number of np.linalg
    # calls: nothing loops over the degree
    rng = np.random.default_rng(41)
    rows = [_degree_row(rng, rank, degree, 0.9, real=False)
            for rank in (1, 3) for degree in (4, 40)]
    splits = [defect_split(r) for r in rows]
    calls = {}
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for r, split in zip(rows, splits):
        calls.clear()
        row_defect_factor(r, split)
        counts.append(dict(calls))
    assert counts[0] and counts[0] == counts[1]
    assert counts[2] == counts[3]
