import numpy as np
import pytest

from hbspace.catalog import cusp_symbol
from hbspace.errors import ExtremeTypeError, InvariantViolation, NumericalError
from hbspace.harmonic import DiskFunction
from hbspace.model import SpaceHandle
from hbspace.series import SzegoSum, geometric_divide, shift_down, szego_taylor
from hbspace import spectral
from hbspace.spectral import MatrixSymbol, factor_residual
from hbspace.subspaces import BlaschkeProduct, intersect_model_space
from hbspace.symbols import RowSymbol, weighted_space_symbol
from conftest import (
    N_GRID,
    RANK2_EXAMPLE,
    ddelta_taylor,
    noncontractive_row,
    random_interior,
    scaled_row,
)


def test_hardy_handle_is_degenerate(h2):
    assert h2.mode == "analytic"
    assert h2.n == 0
    pair = h2.embed(np.array([1.0, 2.0, 3.0]))
    assert pair.residual == 0.0
    assert pair.norm_sq == pytest.approx(14.0)
    # k = 0: no companion rows, given as None or empty; a given row is refused
    for none in (None, [], np.zeros((0, 3))):
        assert h2.pair_from_parts([1.0, 2.0, 3.0], none).norm_sq == pytest.approx(14.0)
    with pytest.raises(ValueError, match="1 companion rows given; the handle has k = 0"):
        h2.pair_from_parts([1.0, 2.0, 3.0], [[0.0, 1.0]])


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "d_origin", "d_pair"])
def test_every_producer_keeps_the_pair_contract(name, request, rng):
    # a pair is one row block [f; f_1] with its norm, whichever routine builds it
    space = request.getfixturevalue(name)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    pair = space.embed(c)
    pairs = [pair, space.embed(SzegoSum.of(c)),
             space.embed(SzegoSum(rng.normal(size=(2, 3)) + 0j, [0.5, -0.3j]))]
    if isinstance(space, SpaceHandle):
        pairs += [space.pair_from_parts(pair.f, pair.companions), space.forward(pair),
                  space.backward(pair), space.resolvent_divide(pair, 0.4 - 0.2j)]
    pairs += intersect_model_space(space, BlaschkeProduct([0.0, 0.5, -0.3j])).pairs
    assert len(pairs) >= 6
    parts = lambda x: (x.coeffs, x.points) if isinstance(x, SzegoSum) else (x,)
    for p in pairs:
        assert p.n == space.n
        for got, ref in ((p.f, p.rows[0]), (p.companions, p.rows[1:])):
            assert all(np.array_equal(a, b) for a, b in zip(parts(got), parts(ref)))
        h2_norm_sq = SzegoSum.of(p.rows).norm_sq  # an array block is one term at 0
        assert abs(p.norm_sq - h2_norm_sq) <= 1e-14 * h2_norm_sq
        assert abs(space.inner(p, p) - p.norm_sq) <= 1e-14 * p.norm_sq
    mixed = space.inner(space.embed(SzegoSum.of(c)), pair)
    assert abs(mixed - pair.norm_sq) <= 1e-14 * pair.norm_sq


def test_embed_constant_gives_zero_companion(h2, rank1_half, cusp):
    for space in (h2, rank1_half, cusp):
        pair = space.embed(np.array([1.0]))
        assert pair.residual < 1e-12
        if pair.companions.size:
            assert np.max(np.abs(pair.companions)) < 1e-12


def test_embed_z_in_rank_one_half(rank1_half):
    pair = rank1_half.embed(np.array([0.0, 1.0]))
    assert abs(pair.companions[0, 0] + 1.0) < 1e-10
    assert np.max(np.abs(pair.companions[0, 1:])) < 1e-10
    assert pair.norm_sq == pytest.approx(2.0, rel=1e-12)


def test_embed_kernel_closed_form(rank1_half, rng):
    # companion of the kernel at lam is -A conj(b(lam)) / (1 - conj(lam) z)
    for _ in range(5):
        lam = complex(random_interior(rng, 1)[0])
        pair = rank1_half.embed(rank1_half.kernel_taylor(lam))
        blam_conj = np.conj(lam / np.sqrt(2.0))
        expected = -(1.0 / np.sqrt(2.0)) * blam_conj * szego_taylor(lam, 63)
        assert pair.residual < 1e-12
        assert np.max(np.abs(pair.companions.coefficients(64)[0] - expected)) < 1e-12


def test_norm_of_kernel_matches_diagonal(rank1_half, rng):
    for _ in range(10):
        lam = complex(random_interior(rng, 1, radius=0.9)[0])
        target = (2.0 - abs(lam) ** 2) / (2.0 * (1.0 - abs(lam) ** 2))
        value = rank1_half.embed(rank1_half.kernel_taylor(lam)).norm_sq
        assert abs(value - target) / target < 1e-12


def test_norm_examples(rank1_half):
    assert rank1_half.norm(np.array([1.0])) == pytest.approx(1.0)
    assert rank1_half.norm(np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2.0))


def test_reproducing_property(rank1_half, cusp, rng):
    for space in (rank1_half, cusp):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        pair = space.embed(f)
        for _ in range(5):
            lam = complex(random_interior(rng, 1)[0])
            kp = space.embed(space.kernel_taylor(lam))
            value = space.inner(pair, kp)
            target = np.polyval(f[::-1], lam)
            assert abs(value - target) < 1e-12 * (1.0 + abs(target))


def test_membership_hardy_polynomials(h2, rng):
    f = rng.normal(size=9)
    report = h2.membership(f)
    assert report.member
    assert report.norm == pytest.approx(float(np.linalg.norm(f)))


def test_membership_rejects_z_in_constants_space(inner_space):
    report = inner_space.membership(np.array([0.0, 1.0]))
    assert not report.member
    assert report.residual == pytest.approx(1.0, abs=1e-12)
    ok = inner_space.membership(np.array([2.5]))
    assert ok.member and ok.norm == pytest.approx(2.5)


def test_membership_rejects_outside_two_dim_model_space():
    space = SpaceHandle(RowSymbol([DiskFunction([0.0, 0.0, 1.0], n_boundary=N_GRID)]),
                        n_grid=N_GRID)
    assert space.mode == "inner"
    assert space.membership(np.array([1.0, 2.0])).member
    report = space.membership(np.array([0.0, 0.0, 1.0]))
    assert not report.member
    assert report.residual == pytest.approx(1.0, abs=1e-12)


def test_membership_rational_norm(rank1_half):
    f = szego_taylor(0.9, rank1_half.degree)  # 1 / (1 - 0.9 z)
    report = rank1_half.membership(f)
    target_sq = 1.0 + 2.0 * 0.81 / (1.0 - 0.81)
    assert report.member
    assert report.norm ** 2 == pytest.approx(target_sq, rel=1e-8)


def test_backward_shift_bookkeeping(rank1_half):
    pair = rank1_half.embed(np.array([0.0, 1.0]))
    lpair = rank1_half.backward(pair)
    assert np.allclose(lpair.f[:1], [1.0])
    assert np.max(np.abs(lpair.companions)) < 1e-10
    zero = rank1_half.backward(rank1_half.embed(np.array([1.0])))
    assert zero.norm_sq < 1e-24


def test_backward_equals_embed_of_shift(rank1_half, cusp, rng):
    for space in (rank1_half, cusp):
        f = rng.normal(size=7) + 1j * rng.normal(size=7)
        via_pair = space.backward(space.embed(f))
        direct = space.embed(shift_down(f))
        assert np.max(np.abs(via_pair.f - direct.f[: via_pair.f.size])) < 1e-10
        w = min(via_pair.companions.shape[1], direct.companions.shape[1])
        assert np.max(np.abs(via_pair.companions[:, :w]
                             - direct.companions[:, :w])) < 1e-9


def test_backward_contracts_kernels(rank1_half, rng):
    for lam in random_interior(rng, 10, radius=0.9):
        k = rank1_half.kernel_taylor(complex(lam)).taylor(rank1_half.degree)
        pair = rank1_half.embed(k)
        assert rank1_half.backward(pair).norm <= pair.norm + 1e-10


def test_forward_shift_of_constant(rank1_half):
    pair = rank1_half.embed(np.array([1.0]))
    zpair = rank1_half.forward(pair)
    assert np.allclose(zpair.f[:2], [0.0, 1.0])
    assert abs(zpair.companions[0, 0] + 1.0) < 1e-10
    assert zpair.residual < 1e-10


def test_forward_is_isometric_on_hardy(h2, rng):
    f = rng.normal(size=6)
    pair = h2.embed(f)
    zpair = h2.forward(pair)
    assert zpair.norm == pytest.approx(pair.norm)
    assert zpair.companions.size == 0


def test_forward_backward_round_trip(rank1_half, cusp, rng):
    for space in (rank1_half, cusp):
        for _ in range(10):
            f = rng.normal(size=5) + 1j * rng.normal(size=5)
            pair = space.embed(f)
            back = space.backward(space.forward(pair))
            assert np.max(np.abs(back.f[:5] - f)) < 1e-10
            w = min(back.companions.shape[1], pair.companions.shape[1])
            assert np.max(np.abs(back.companions[:, :w]
                                 - pair.companions[:, :w])) < 1e-10


def test_forward_unsupported_for_inner(inner_space):
    pair = inner_space.embed(np.array([1.0]))
    with pytest.raises(ExtremeTypeError):
        inner_space.forward(pair)


def test_resolvent_correction_of_constant(rank1_half, rng):
    pair = rank1_half.embed(np.array([1.0]))
    for _ in range(5):
        lam = complex(random_interior(rng, 1)[0])
        c = rank1_half.resolvent_correction(pair, lam)
        assert abs(c[0] - np.conj(lam)) < 1e-10
    assert np.max(np.abs(rank1_half.resolvent_correction(pair, 0.0))) < 1e-12


def test_resolvent_correction_empty_for_hardy(h2):
    pair = h2.embed(np.array([1.0, 1.0]))
    assert h2.resolvent_correction(pair, 0.3).size == 0


def test_resolvent_correction_is_coanalytic(rank1_half, rng):
    # values along a circle fit a polynomial in conj(lam) to high accuracy
    pair = rank1_half.embed(np.array([1.0, 0.3, -0.2j]))
    lams = 0.6 * np.exp(2j * np.pi * np.arange(24) / 24)
    vals = np.array([rank1_half.resolvent_correction(pair, l)[0] for l in lams])
    fit = np.polynomial.polynomial.polyfit(np.conj(lams), vals, 8)
    recon = np.polynomial.polynomial.polyval(np.conj(lams), fit)
    assert np.max(np.abs(vals - recon)) < 1e-8


def test_resolvent_divide_constant_example(rank1_half):
    pair = rank1_half.embed(np.array([1.0]))
    out = rank1_half.resolvent_divide(pair, 0.5)
    deg = out.f.size - 1
    assert np.max(np.abs(out.f - szego_taylor(0.5, deg))) < 1e-12
    expected = -0.5 * szego_taylor(0.5, out.companions.shape[1] - 1)
    assert np.max(np.abs(out.companions[0] - expected)) < 1e-10
    assert out.residual < 1e-10


def test_resolvent_divide_identity_at_origin(rank1_half):
    pair = rank1_half.embed(np.array([0.5, 1.0, -0.25]))
    out = rank1_half.resolvent_divide(pair, 0.0)
    assert np.max(np.abs(out.f[:3] - pair.f)) < 1e-14
    assert np.max(np.abs(out.companions[:, :pair.companions.shape[1]]
                         - pair.companions)) < 1e-12


def test_resolvent_divide_hardy(h2):
    pair = h2.embed(np.array([1.0, 2.0]))
    out = h2.resolvent_divide(pair, 0.4)
    expected = geometric_divide(pair.f, 0.4, h2.degree)
    assert np.max(np.abs(out.f - expected)) < 1e-14
    # multiplying back recovers f
    recovered = np.convolve(out.f, np.array([1.0, -0.4]))[:2]
    assert np.max(np.abs(recovered - pair.f)) < 1e-12


def test_monomial_gram_reference(h2, rank1_half):
    assert np.allclose(h2.monomial_gram(6), np.eye(7), atol=1e-14)
    g = rank1_half.monomial_gram(6)
    assert np.allclose(g, np.diag([1.0] + [2.0] * 6), atol=1e-10)


def test_monomial_gram_matches_dirichlet_route(rank1_half, d_origin):
    # the origin point mass induces the same space as the z/sqrt(2) symbol
    g_model = rank1_half.monomial_gram(10)
    g_dirichlet = d_origin.monomial_gram(10)
    assert np.max(np.abs(g_model - g_dirichlet)) < 1e-10


def test_poly_norm_agrees_with_embed(rank1_half, cusp, rng):
    for space in (rank1_half, cusp):
        for _ in range(10):
            c = rng.normal(size=8) + 1j * rng.normal(size=8)
            fast = space.poly_norm_sq(c)
            direct = space.embed(c).norm_sq
            assert abs(fast - direct) / direct < 1e-8


def test_isometry_on_kernel_combinations(h2, rank1_half, cusp, rng):
    for space in (h2, rank1_half, cusp):
        pts = random_interior(rng, 6)
        coeff = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = space.gram(pts)
        target = float(np.real(np.vdot(coeff, g @ coeff)))
        combo = sum(c * space.kernel_taylor(complex(lam)) for c, lam in zip(coeff, pts))
        assert abs(space.embed(combo).norm_sq - target) / target < 1e-12


def test_companion_stability_under_degree_doubling(rank1_half):
    # the correlation g grown by doubling keeps its head, and the companions
    # it gives match those of a handle that solved for every coefficient at once
    f = szego_taylor(0.8, rank1_half.degree)
    grown = SpaceHandle(rank1_half.symbol, n_grid=rank1_half.n_grid)
    small = grown._correlation(rank1_half.degree // 2 + 1).copy()
    large = grown._correlation(rank1_half.degree + 1)
    w = small.shape[1]
    assert np.max(np.abs(small - large[:, :w])) < 1e-8
    direct = SpaceHandle(rank1_half.symbol, n_grid=rank1_half.n_grid).embed(f)
    assert np.max(np.abs(grown.embed(f).companions - direct.companions)) < 1e-8


def _boundary_rows(symbol, n_grid):
    """Samples of the row on the circle grid, shape (n_grid, n)."""
    return np.fft.ifft(symbol.rows, n=n_grid, axis=1).T * n_grid


def _grid_b_star_f(space, f):
    """Samples of B* f on the circle grid, shape (N, n)."""
    fsamp = np.fft.ifft(f, n=space.n_grid) * space.n_grid
    return _boundary_rows(space.symbol, space.n_grid).conj() * fsamp[:, None]


def _grid_u_plus(space, f):
    """Analytic-part coefficients of B* f from the circle grid, shape (N/2, n)."""
    u = _grid_b_star_f(space, f)
    return (np.fft.fft(u, axis=0) / space.n_grid)[: space.n_grid // 2]


def _grid_fft_companions(space, u_plus, degree):
    """Companions by pointwise multiplication with the A*^{-1} grid samples
    and analytic projection."""
    a_samples = space.factor.samples(space.n_grid)
    ah_inv = np.linalg.inv(np.conj(np.transpose(a_samples, (0, 2, 1))))
    u_samp = np.fft.ifft(u_plus, n=space.n_grid, axis=0)
    w = np.einsum("jik,jk->ji", ah_inv, u_samp)
    return -np.fft.fft(w, axis=0)[: degree + 1].T


def _padded(companions, degree):
    out = np.zeros((companions.shape[0], degree + 1), dtype=complex)
    out[:, : companions.shape[1]] = companions
    return out


def test_triangular_and_fft_paths_agree(rank1_half, two_term, weighted, rng):
    # the companions from the triangular solve for g against the grid FFT route
    for space in (rank1_half, two_term, weighted):  # n = 1, 2, 3
        f = rng.normal(size=10) + 1j * rng.normal(size=10)
        u_plus = _grid_u_plus(space, f)
        got = space.embed(f).companions
        doubled = min(2 * space.degree, space.n_grid // 2 - 1)
        for degree in (64, space.degree, doubled):
            a = _grid_fft_companions(space, u_plus, degree)
            b = _padded(got, degree)
            assert a.shape == b.shape == (space.n, degree + 1)
            assert np.max(np.abs(a - b)) < 1e-10


def _dense_block_toeplitz(blocks, degree):
    """The matrix with block (k, k + m) = A_m*, assembled entry by entry."""
    n = blocks.shape[1]
    mat = np.zeros(((degree + 1) * n, (degree + 1) * n), dtype=complex)
    for k in range(degree + 1):
        for m in range(min(blocks.shape[0], degree + 1 - k)):
            mat[k * n:(k + 1) * n, (k + m) * n:(k + m + 1) * n] = blocks[m].conj().T
    return mat


def _dense_lower_block_toeplitz(blocks, degree):
    """The matrix with block (m, m - k) = A_k*, assembled entry by entry."""
    n = blocks.shape[1]
    mat = np.zeros(((degree + 1) * n, (degree + 1) * n), dtype=complex)
    for m in range(degree + 1):
        for k in range(min(blocks.shape[0], m + 1)):
            mat[m * n:(m + 1) * n, (m - k) * n:(m - k + 1) * n] = blocks[k].conj().T
    return mat


def test_ddelta_gram_matches_local_dirichlet_closed_form(ddelta):
    # D(delta_1) has <z^k, z^j> = delta_jk + min(j, k); the factor is exact,
    # so only roundoff, relative to each entry, separates the two up to
    # degree 512 (an eps-floored factor was off by 4e-3)
    assert ddelta.factorization.method == "exact"
    k = np.arange(513)
    low = np.minimum(k[:, None], k[None, :])
    error = np.abs(ddelta.monomial_gram(512) - np.eye(513) - low)
    assert np.max(error / (1.0 + low)) <= 1e-13


def test_ddelta_monomial_norms_to_degree_2048(ddelta):
    # ||z^k||^2 = 1 + sum_{m <= k} |g_m|^2 is 1 + k on D(delta_1)
    g = ddelta._correlation(2049)[0]
    k = np.arange(2049)
    norms = 1.0 + np.cumsum(np.abs(g) ** 2)
    assert np.max(np.abs(norms - (1.0 + k)) / (1.0 + k)) <= 1e-12


@pytest.mark.parametrize("name", ["ddelta", "weighted", "two_term"])
def test_triangular_solve_matches_dense_block_toeplitz(name, request, rng):
    # the companions solve the upper-triangular block-Toeplitz system
    # sum_m A_m* x[k + m] = -u[k] exactly, so its truncation at any degree
    space = request.getfixturevalue(name)
    if name == "ddelta":
        assert space.factor.coeffs.shape[0] > 8  # a wide band
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    u_plus = _grid_u_plus(space, f)
    degree = 64
    got = _padded(space.embed(f).companions, degree)
    dense = _dense_block_toeplitz(space.factor.coeffs, degree)
    ref = np.linalg.solve(dense, -u_plus[: degree + 1].ravel()).reshape(degree + 1, -1).T
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["ddelta", "cusp", "weighted", "two_term"])
def test_correlation_matches_dense_lower_triangular_solve(name, request):
    # g_0, g_1, ... solve sum_k A_k* g_{m-k} = B_m*
    space = request.getfixturevalue(name)
    degree = 80
    rhs = np.zeros((degree + 1, space.n), dtype=complex)
    rows = space.symbol.rows
    rhs[: rows.shape[1]] = rows.T.conj()
    dense = _dense_lower_block_toeplitz(space.factor.coeffs, degree)
    ref = np.linalg.solve(dense, rhs.ravel()).reshape(degree + 1, -1).T
    got = space._correlation(degree + 1)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted",
                                  "ddelta", "d_pair"])
def test_szego_density_matches_embedded_szego_kernel(name, request, rng):
    # (1 - |w|^2) ||s_w||^2 from the closed form against the embedding
    space = request.getfixturevalue(name)
    pts = 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 6))
    closed = space.szego_density(pts)
    embedded = np.array([(1.0 - abs(w) ** 2) * space.norm(szego_taylor(w, space.degree)) ** 2
                         for w in pts])
    assert np.max(np.abs(closed - embedded) / embedded) <= 1e-12


def test_geometric_divide_matches_recurrence_and_multiplies_back():
    degree = 2047
    lam_bar = 0.95 * np.exp(-0.7j)
    f = np.array([1.0, -0.5 + 0.25j, 2.0j, 0.3])
    q = geometric_divide(f, lam_bar, degree)
    assert q.shape == (degree + 1,)
    ref = np.zeros(degree + 1, dtype=complex)
    acc = 0.0
    for k in range(degree + 1):
        acc = (f[k] if k < f.size else 0.0) + lam_bar * acc
        ref[k] = acc
    assert np.max(np.abs(q - ref)) <= 1e-13 * np.max(np.abs(ref))
    back = np.convolve(q, [1.0, -lam_bar])[: degree + 1]
    target = np.zeros(degree + 1, dtype=complex)
    target[: f.size] = f
    assert np.max(np.abs(back - target)) < 1e-13


def _grid_spectrum(space, pair):
    """Order spectrum of B* f + A* f_1 from the circle grid, in FFT layout."""
    n_grid = space.n_grid
    f1samp = np.fft.ifft(pair.companions.T, n=n_grid, axis=0) * n_grid
    a_h = np.conj(np.transpose(space.factor.samples(n_grid), (0, 2, 1)))
    r = _grid_b_star_f(space, pair.f) + np.einsum("jik,jk->ji", a_h, f1samp)
    return np.fft.fft(r, axis=0) / n_grid


def test_resolvent_correction_matches_horner(weighted, rng):
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    pair = weighted.embed(f)
    rhat = _grid_spectrum(weighted, pair)
    n_grid = weighted.n_grid
    for lam in 0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 3)):
        lam_bar = np.conj(lam)
        u = np.zeros(weighted.n, dtype=complex)
        for m in range(n_grid // 2, 0, -1):
            u = u * lam_bar + rhat[n_grid - m]
        ref = np.linalg.solve(weighted.factor.at(lam).conj().T, u * lam_bar)
        got = weighted.resolvent_correction(pair, lam)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_monomial_gram_matches_pairwise_inner(weighted, cusp):
    for space in (weighted, cusp):
        space.monomial_gram(7)  # so the degree-40 Gram grows a cached smaller one
        g = space.monomial_gram(40)
        pairs = [space.embed(np.eye(k + 1)[k]) for k in range(41)]
        ref = np.array([[space.inner(pk, pj) for pk in pairs] for pj in pairs])
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_monomial_gram_hermitian_at_full_degree():
    space = SpaceHandle(RowSymbol([DiskFunction([0.0, 0.5, 0.25], n_boundary=N_GRID)]),
                        n_grid=N_GRID)
    g = space.monomial_gram(255)
    assert g.shape == (256, 256)
    assert np.array_equal(g, g.conj().T)
    assert np.min(np.linalg.eigvalsh(g)) >= 1.0 - 1e-10  # G = I + C* C


def test_contractivity_over_random_members(rank1_half, rng):
    for _ in range(50):
        c = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert (rank1_half.poly_norm_sq(shift_down(c))
                <= rank1_half.poly_norm_sq(c) + 1e-10)


def test_degree_budget_enforced(rank1_half):
    with pytest.raises(ValueError):
        rank1_half.embed(np.ones(rank1_half.degree + 2))


def test_two_jump_weighted_space_gram_is_diagonal():
    from hbspace.symbols import estimate_rank, weighted_space_symbol

    sym = weighted_space_symbol([1.0, 2.0, 4.0, 4.0], n_boundary=N_GRID)
    space = SpaceHandle(sym, n_grid=N_GRID)
    g = space.monomial_gram(8)
    target = np.diag([1.0, 2.0] + [4.0] * 7)
    assert np.max(np.abs(g - target)) < 1e-10
    assert estimate_rank(space.monomial_gram(32)) == 2


def test_two_component_handle(two_term, rng):
    space = two_term
    assert space.mode == "analytic"
    assert space.defect_identity_residual() < 1e-10
    pair = space.embed(np.array([0.0, 1.0]))
    assert pair.residual < 1e-10
    # the parts give the pair back; a companion row count other than k = 2 is refused
    again = space.pair_from_parts(pair.f, pair.companions)
    assert np.array_equal(again.rows, pair.rows) and again.residual == pair.residual
    for count in (0, 1, 3):
        with pytest.raises(ValueError, match=f"{count} companion rows given; the handle has k = 2"):
            space.pair_from_parts(pair.f, np.zeros((count, 2)) if count else None)
    # norm matches the kernel diagonal through a combination check
    pts = random_interior(rng, 4)
    g = space.gram(pts)
    coeff = rng.normal(size=4)
    combo = sum(c * space.kernel_taylor(complex(lam)) for c, lam in zip(coeff, pts))
    target = float(np.real(np.vdot(coeff, g @ coeff)))
    assert abs(space.embed(combo).norm_sq - target) / target < 1e-12


@pytest.mark.parametrize("n_grid", [1024, 4096])
def test_cusp_monomial_norms_are_exact(n_grid):
    # the cusp's outer factor is (1 - z) / 2, which gives ||z^k||^2 = 4k - 2
    space = SpaceHandle(cusp_symbol(n_grid), n_grid=n_grid)
    report = space.factorization
    assert (report.method, report.iterations, report.regularization) == ("exact", 0, 0.0)
    k = np.arange(1, 21)
    norms = np.diagonal(space.monomial_gram(20)).real[1:]
    assert np.max(np.abs(norms - (4 * k - 2)) / (4 * k - 2)) <= 1e-10


def test_rank_two_extreme_symbol_rejected():
    # |z / sqrt(2)|^2 + |z^2 / sqrt(2)|^2 = 1 on the circle: no defect factor
    symbol = RowSymbol([DiskFunction([0.0, 2 ** -0.5], n_boundary=N_GRID),
                        DiskFunction([0.0, 0.0, 2 ** -0.5], n_boundary=N_GRID)])
    with pytest.raises(ExtremeTypeError):
        SpaceHandle(symbol, n_grid=N_GRID)


@pytest.mark.parametrize("lam", [1.5, 1.0, -1j, 0.6 + 0.8j, np.nan, complex(np.inf, 0.0)])
def test_kernel_taylor_rejects_points_off_the_disk(rank1_half, d_origin, lam):
    for space in (rank1_half, d_origin):
        with pytest.raises(ValueError):
            space.kernel_taylor(lam)
        with pytest.raises(ValueError):
            space.kernel(lam, 0.0)
        with pytest.raises(ValueError):
            space.gram([0.1, lam])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("space_name,method", [
    ("rank1_half", "embed"), ("rank1_half", "membership"),
    ("rank1_half", "poly_norm_sq"), ("cusp", "membership"),
    ("d_origin", "embed"), ("d_origin", "norm"), ("d_origin", "poly_norm_sq"),
])
def test_non_finite_coefficients_rejected(request, space_name, method, bad):
    space = request.getfixturevalue(space_name)
    with pytest.raises(ValueError, match="finite"):
        getattr(space, method)([bad, 1.0])
    if space_name == "rank1_half" and method == "embed":  # and assembled pairs, both parts
        for parts in (([bad, 1.0], [[0.0, 1.0]]), ([0.0, 1.0], [[bad, 1.0]])):
            with pytest.raises(ValueError, match="finite"):
                space.pair_from_parts(*parts)


def _row_symbol(rows, n_grid):
    return RowSymbol([DiskFunction(r, n_boundary=n_grid) for r in rows])


def _certified_symbols(n_grid):
    """Cusp, D(delta_1), the rank-2 example, weighted and seeded random rows
    of rank 1-3 at sup 0.5, 0.9 and touching 1."""
    symbols = [cusp_symbol(n_grid), _row_symbol([ddelta_taylor()], n_grid),
               _row_symbol(RANK2_EXAMPLE, n_grid),
               weighted_space_symbol([1.0, 2.0, 2.5, 3.0], n_boundary=n_grid)]
    rng = np.random.default_rng(23)
    for rank in (1, 2, 3):
        for sup in (0.5, 0.9, 1.0):
            symbols.append(_row_symbol(scaled_row(rng, rank, sup), n_grid))
    return symbols


@pytest.mark.parametrize("n_grid", [1024, 4096])
def test_handle_certificate_bounds_the_grid_and_keeps_the_route(n_grid):
    eps = 1e-6
    f = np.array([0.3, -0.2 + 0.5j, 0.7, 0.1j])
    routes = set()
    for symbol in _certified_symbols(n_grid):
        space = SpaceHandle(symbol, n_grid=n_grid)
        rows = _boundary_rows(symbol, n_grid)
        field = np.eye(space.n)[None] - rows.conj()[:, :, None] * rows[:, None, :]
        bound = space.defect_identity_residual()
        assert factor_residual(space.factor, field) - 1e-14 <= bound <= 1e-12
        # one route serves factors bounded away from zero and factors that
        # degenerate on the circle (smallest singular value of A at most 1e-2)
        pair = space.embed(f)
        assert pair.residual <= space.tol_solve * (1.0 + pair.norm)
        smin = np.min(np.linalg.svd(space.factor.samples(n_grid), compute_uv=False))
        routes.add(bool(smin > 1e-2))
        # the factor is read-only, so the certificate always describes the
        # factor that embed uses; a bumped factor shows in the bound
        bumped = space.factor.coeffs.copy()
        bumped[0] += eps * np.eye(space.n)
        with pytest.raises(AttributeError):
            space.factor = MatrixSymbol(bumped)
        with pytest.raises(AttributeError):
            space.factorization = None
        assert spectral.defect_identity_bound(
            bumped, symbol.rows) >= eps / 2
    assert routes == {True, False}


@pytest.mark.parametrize("rows", [[[0.0, 0.5, 0.5]], [ddelta_taylor()],
                                  [[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0, 0.5]], RANK2_EXAMPLE],
                         ids=["cusp", "ddelta", "two-term", "rank2-example"])
def test_defect_identity_residual_is_the_build_certificate(rows):
    # the handle reads back the bound row_defect_factor certified; it equals
    # a fresh bound of the same factor and row exactly
    space = SpaceHandle(_row_symbol(rows, N_GRID), n_grid=N_GRID)
    fresh = spectral.defect_identity_bound(space.factor.coeffs,
                                           space.symbol.rows)
    assert space.defect_identity_residual() == fresh


def test_noncontractive_row_handle_raises_invariant_violation():
    # every point of an 8192-point grid passes; the symbol's defect split refuses it
    with pytest.raises(InvariantViolation, match="not a contraction"):
        SpaceHandle(_row_symbol(noncontractive_row(), 4096), n_grid=4096)


def test_handle_build_splits_the_defect_once(monkeypatch):
    # the symbol's validation splits the roots of its defect; the handle
    # reads that split for its mode and its factor instead of splitting again
    calls = []
    splitter = spectral._outer_from_laurent

    def counting(d):
        calls.append(d.size)
        return splitter(d)
    monkeypatch.setattr(spectral, "_outer_from_laurent", counting)
    for rows in ([ddelta_taylor()], RANK2_EXAMPLE, [[0.0, 0.5, 0.5]]):
        calls.clear()
        space = SpaceHandle(_row_symbol(rows, N_GRID), n_grid=N_GRID)
        assert space.mode == "analytic"
        assert len(calls) == 1


# -- exact kernel functions ------------------------------------------------

RADII = (0.9, 0.99, 0.999, 0.9999)


def _exact_kernel_check(space, lam):
    """||k_lam||^2 against kernel(lam, lam), and the residual, of the exact pair."""
    pair = space.embed(space.kernel_taylor(lam))
    target = space.kernel(lam, lam).real
    assert abs(pair.norm_sq - target) <= 1e-12 * target
    assert pair.residual <= 1e-12 * (1.0 + pair.norm)
    return pair


NAMED_ROWS = {"h2": [], "rank1-half": [[0.0, 2 ** -0.5]], "cusp": [[0.0, 0.5, 0.5]],
              "rank2-example": RANK2_EXAMPLE, "ddelta": [ddelta_taylor()],
              "two-term": [[0.0, 2 ** -0.5], [0.0, 0.0, 0.5]], "inner-z2": [[0.0, 0.0, 1.0]]}


def _named_handle(name, n_grid=N_GRID):
    """A fresh handle for a ``NAMED_ROWS`` entry or the weighted symbol."""
    if name == "weighted":
        return SpaceHandle(weighted_space_symbol([1.0, 2.0, 2.5, 3.0], n_boundary=n_grid),
                           n_grid=n_grid)
    return SpaceHandle(_row_symbol(NAMED_ROWS[name], n_grid), n_grid=n_grid)


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("name", ["h2", "rank1-half", "cusp", "rank2-example", "ddelta",
                                  "two-term", "weighted", "inner-z2"])
def test_exact_kernel_norm_near_the_circle(name, radius):
    # every named handle, the rank-2 example, D(delta_1) and an inner-mode
    # handle; the Taylor cut of the handle degree lost 7% of ||k|| at 0.999
    space = _named_handle(name)
    assert space.mode == ("inner" if name == "inner-z2" else "analytic")
    for angle in (0.7, 2.9, -1.3):
        _exact_kernel_check(space, radius * np.exp(1j * angle))


def test_exact_kernel_rank1_half_closed_form():
    space = SpaceHandle(_row_symbol([[0.0, 2 ** -0.5]], N_GRID), n_grid=N_GRID)
    for radius in RADII:
        target = (2.0 - radius ** 2) / (2.0 * (1.0 - radius ** 2))
        pair = space.embed(space.kernel_taylor(radius))
        assert abs(pair.norm_sq - target) <= 1e-12 * target


def test_exact_kernel_near_the_origin_on_ddelta(ddelta):
    # N_lam has degree 40; no negative power of lam enters, so nothing cancels
    for lam in (0.05, 0.05j, -0.05 + 0.01j, 1e-3):
        _exact_kernel_check(ddelta, lam)


def test_exact_kernel_of_degenerate_handles(h2, inner_space):
    # h2 (n = 0): the pair is f itself; b = z: the space is the constants
    for lam in (0.3j, 0.999):
        pair = _exact_kernel_check(h2, lam)
        assert pair.n == 0 and pair.residual == 0.0
        pair = _exact_kernel_check(inner_space, lam)
        assert pair.n == 0
        assert abs(pair.norm_sq - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ["rank1_half", "cusp", "two_term", "weighted", "ddelta",
                                  "inner_space", "h2"])
def test_exact_kernel_reproduces_point_values(name, request, rng):
    space = request.getfixturevalue(name)
    f = np.array([0.5, 1.0 - 0.5j, 0.25, -0.75j]) if name != "inner_space" else np.array([1.5])
    pair = space.embed(f)
    for lam in list(random_interior(rng, 4, radius=0.95)) + [0.999 * np.exp(0.4j)]:
        value = space.inner(pair, space.embed(space.kernel_taylor(complex(lam))))
        target = np.polyval(f[::-1], lam)
        assert abs(value - target) <= 1e-12 * (1.0 + abs(target))


@pytest.mark.parametrize("name", ["rank1_half", "cusp", "two_term", "weighted", "ddelta"])
def test_exact_pair_agrees_with_the_polynomial_route(name, request, rng):
    # for |lam| <= 0.5 the cut at degree 256 drops below roundoff, so the
    # polynomial pair of the cut matches the exact pair coefficient by coefficient
    space = request.getfixturevalue(name)
    for lam in random_interior(rng, 3, radius=0.5):
        k = space.kernel_taylor(complex(lam))
        exact = space.embed(k)
        cut = space.embed(k.taylor(256))
        assert abs(exact.norm_sq - cut.norm_sq) <= 1e-12 * exact.norm_sq
        f, companions = exact.parts(257)
        assert np.max(np.abs(f - cut.f)) <= 1e-12
        assert np.max(np.abs(companions - cut.companions)) <= 1e-12


def test_kernel_combination_is_a_finite_szego_sum(two_term, rng):
    pts = random_interior(rng, 5, radius=0.999)
    coeff = rng.normal(size=5) + 1j * rng.normal(size=5)
    combo = sum(c * two_term.kernel_taylor(complex(lam)) for c, lam in zip(coeff, pts))
    assert combo.points.size == 5
    g = two_term.gram(pts)
    target = float(np.real(np.vdot(coeff, g @ coeff)))
    pair = two_term.embed(combo)
    assert abs(pair.norm_sq - target) <= 1e-12 * target
    assert pair.residual <= 1e-12 * (1.0 + pair.norm)
    assert two_term.membership(combo).member
    with pytest.raises(TypeError):
        buffer = np.zeros(two_term.degree + 1, dtype=complex)
        buffer += two_term.kernel_taylor(0.5)
    for shift in (two_term.backward, two_term.forward,
                  lambda q: two_term.resolvent_divide(q, 0.3)):
        with pytest.raises(ValueError, match="coefficient pairs"):
            shift(pair)


# -- closed-form kernel pairs -------------------------------------------------------


def _stripped(f):
    """The same Szego sum without its attached companion numerators."""
    return SzegoSum.trusted(f.coeffs, f.points)


@pytest.mark.parametrize("name", ["rank1-half", "cusp", "rank2-example", "ddelta",
                                  "two-term", "weighted", "inner-z2"])
def test_kernel_pair_matches_the_general_route(name, rng):
    # the attached numerators -A(z) B(lam)* give the pair the general route
    # (correlation, Laurent product and the solve by A(lam)*) takes for the
    # same sum without them, term by term
    space = _named_handle(name)
    pts = random_interior(rng, 5, radius=0.9)
    coeff = rng.normal(size=5) + 1j * rng.normal(size=5)
    combo = sum(c * space.kernel_taylor(complex(lam)) for c, lam in zip(coeff, pts))
    assert combo.attached[1].shape[:2] == (space.k, 5)
    closed, general = space.embed(combo), space.embed(_stripped(combo))
    assert abs(closed.norm_sq - general.norm_sq) <= 1e-13 * general.norm_sq
    assert closed.residual <= 1e-13 * (1.0 + closed.norm)
    rows, residual = space.embed_terms(combo)
    ref_rows, ref_residual = space.embed_terms(_stripped(combo))
    width = max(rows.width, ref_rows.width) + 8
    scale = np.sqrt(np.max(rows.term_gram(rows).real))
    assert np.max(np.abs(rows.heads(width) - ref_rows.heads(width))) <= 1e-13 * scale
    assert np.max(np.abs(residual.heads(width))) <= 1e-13 * scale


def test_kernel_of_another_symbol_takes_the_general_route(cusp, rank1_half, monkeypatch):
    # numerators keyed by another model are not the companions here; a handle
    # built again on the same symbol has equal [B*, A*] and keeps them
    calls = []
    companions = SpaceHandle._companions
    monkeypatch.setattr(SpaceHandle, "_companions",
                        lambda self, c: calls.append(c.shape) or companions(self, c))
    foreign = rank1_half.kernel_taylor(0.5)
    pair = cusp.embed(foreign)
    assert len(calls) == 1
    general = cusp.embed(_stripped(foreign))
    assert pair.norm_sq == general.norm_sq and pair.residual == general.residual
    assert (cusp.kernel_taylor(0.3) + foreign).attached is None
    SpaceHandle(cusp.symbol).embed(cusp.kernel_taylor(0.3) + 2.0 * cusp.kernel_taylor(-0.4j))
    assert len(calls) == 2


def test_cold_kernel_combination_embed_solves_nothing(monkeypatch, rng):
    space = _named_handle("ddelta")

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel combination needs no correlation and no solve")
    for name in ("_companions", "_correlation"):
        monkeypatch.setattr(SpaceHandle, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    pts = random_interior(rng, 3)
    combo = sum(c * space.kernel_taylor(complex(lam)) for c, lam in zip([1.0, -2.0j, 0.5], pts))
    target = float(np.real(np.vdot([1.0, -2.0j, 0.5], space.gram(pts) @ [1.0, -2.0j, 0.5])))
    pair = space.embed(combo)
    assert abs(pair.norm_sq - target) <= 1e-13 * target
    assert pair.residual <= 1e-13 * (1.0 + pair.norm)


@pytest.mark.parametrize("lam", [0.999, 0.9999])
def test_deep_kernel_norm_meets_forty_digits(cusp, lam):
    # ||k_lam||^2 = (1 - |b(lam)|^2) / (1 - |lam|^2) on the cusp, at 40 digits;
    # dividing the companion by A(lam)*, which nearly vanishes near z = 1, lost
    # 1e-13 at 0.999 and 1e-12 at 0.9999
    import mpmath

    got = cusp.embed(cusp.kernel_taylor(lam)).norm_sq
    with mpmath.workdps(40):
        w = mpmath.mpf(lam)
        exact = (1 - (w / 2 + w ** 2 / 2) ** 2) / (1 - w ** 2)
        assert abs(mpmath.mpf(got) - exact) / exact <= 1e-15


def test_deep_complex_kernel_is_no_worse_than_the_kernel(cusp):
    # off the real axis both values carry the rounding of lam itself
    import mpmath

    lam = 0.9999 * np.exp(0.7j)
    values = cusp.embed(cusp.kernel_taylor(lam)).norm_sq, cusp.kernel(lam, lam).real
    with mpmath.workdps(40):
        w = mpmath.mpc(lam.real, lam.imag)
        exact = (1 - abs(w / 2 + w ** 2 / 2) ** 2) / (1 - abs(w) ** 2)
        got, kernel = (float(abs(mpmath.mpf(v) - exact) / exact) for v in values)
    assert got <= kernel + 4 * np.finfo(float).eps


def test_resolvent_divide_refuses_a_cut_tail():
    space = SpaceHandle(_row_symbol([[0.0, 2 ** -0.5]], N_GRID), n_grid=N_GRID)
    assert space.degree == 256
    pair = space.embed(np.array([1.0, 0.5]))
    with pytest.raises(NumericalError, match="Taylor cut"):
        space.resolvent_divide(pair, 0.999)
    assert space.resolvent_divide(pair, 0.7).residual <= 1e-12


def test_taylor_cut_refuses_a_kernel_near_the_circle(rank1_half):
    k = rank1_half.kernel_taylor(0.999)
    with pytest.raises(NumericalError, match="Taylor cut"):
        k.taylor(rank1_half.degree)
    assert k.taylor(40000).size == 40001


@pytest.mark.parametrize("n_grid", [1024, 4096])
@pytest.mark.parametrize("name", ["h2", "rank1-half", "cusp", "two-term", "weighted",
                                  "ddelta", "rank2-example"])
def test_resolvent_cut_matches_the_budget_cut(name, n_grid):
    # the cut at the tail's roundoff length, zero-padded, against the cut at
    # the handle degree; at 0.9 on the smaller grid the degree is the cut
    space = _named_handle(name, n_grid)
    pair = space.embed(np.array([0.3, -0.2 + 0.5j, 0.7, 0.1j, -0.4]))
    for lam in (0.0, 0.05, 0.5, 0.9 * np.exp(0.7j)):
        out = space.resolvent_divide(pair, lam)
        rows = np.vstack([pair.f, pair.companions])
        if space.n:
            rows[1:, 0] -= space.resolvent_correction(pair, lam)
        budget = SzegoSum(rows[:, None], [lam]).taylor(space.degree)
        assert out.f.shape == (space.degree + 1,)
        assert out.companions.shape == (space.n, space.degree + 1)
        scale = np.max(np.abs(budget))
        assert np.max(np.abs(out.f - budget[0])) <= 1e-15 * scale
        assert np.max(np.abs(out.companions - budget[1:]), initial=0.0) <= 1e-15 * scale
        assert out.residual <= 1e-12 * (1.0 + out.norm)


def test_roundoff_degree_is_where_the_tail_drops_below_roundoff():
    eps = np.finfo(float).eps
    for lam, width in ((0.0, 4), (0.05, 1), (0.5, 6), (0.9j, 3), (0.999, 2)):
        s = SzegoSum(np.arange(1.0, width + 1.0)[None], [lam])
        d = s.roundoff_degree()
        heads = np.abs(s.heads(width))
        scale, last = np.max(heads), heads[0, -1]
        tail = lambda m: last * abs(lam) ** m / (1.0 - abs(lam))  # l1 from order W - 1 + m
        assert d >= width - 1
        assert tail(d - width + 2) <= eps * scale
        if d > width - 1:
            assert tail(d - width + 1) > eps * scale


@pytest.mark.parametrize("name", ["cusp", "two-term", "weighted"])
def test_spectra_cache_matches_a_fresh_handle(name, rng):
    warm = _named_handle(name)

    def check(f):
        a, b = warm.embed(f), _named_handle(name).embed(f)
        if a.exact:
            parts = [(a.f.coeffs, b.f.coeffs), (a.companions.coeffs, b.companions.coeffs)]
        else:
            parts = [(a.f, b.f), (a.companions, b.companions)]
        for x, y in parts:
            assert np.max(np.abs(x - y)) <= 1e-15 * np.max(np.abs(y))
        assert abs(a.residual - b.residual) <= 1e-15 * b.norm

    def sweep(lengths):
        for length in lengths:
            check(rng.normal(size=length) + 1j * rng.normal(size=length))
        pts = random_interior(rng, 3, radius=0.95)
        check(sum(c * warm.kernel_taylor(complex(lam))
                  for c, lam in zip(rng.normal(size=3), pts)))

    sweep(range(3, 21))
    assert warm._g.shape[1] < 61
    warm.monomial_gram(60)  # regrows g, which drops its spectra
    assert warm._g.shape[1] >= 61
    assert all(kind == "w" for kind, _ in warm._spectra)
    sweep(range(3, 71))
    sizes = [size for _, size in warm._spectra]
    assert max(sizes.count(size) for size in sizes) <= 2


def test_warm_embed_skips_the_constant_ffts(monkeypatch):
    # the spectra of [B*, A*] and of g are taken once per FFT size
    calls = []
    fft = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counting)
    for f in (np.array([0.3, -0.2 + 0.5j, 0.7, 0.1j]), SzegoSum([[1.0, -0.5j]], [0.4 - 0.3j])):
        space = _named_handle("two-term")
        counts = []
        for _ in range(2):
            calls.clear()
            space.embed(f)
            counts.append(len(calls))
        assert counts[0] - counts[1] == 2
