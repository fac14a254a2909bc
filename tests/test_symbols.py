import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace.analysis import reverse_carleson
from hbspace.catalog import named_space, space_from_json
from hbspace.errors import InvariantViolation, NumericalError
from hbspace.harmonic import DiskFunction
from hbspace.model import SpaceHandle
from hbspace.series import SzegoSum, horner
from hbspace.spectral import row_defect_factor
from hbspace.symbols import (
    DirichletSpace,
    MeasureSpec,
    ModelPair,
    RowSymbol,
    defect_form,
    dirichlet_norm,
    estimate_rank,
    gram_matrix,
    kernel_eval,
    row_values,
    weighted_space_symbol,
)
from hbspace.subspaces import poly_density_residual
from conftest import RANK2_EXAMPLE, random_interior, seeded_rows

N = 512


def d(coeffs):
    return DiskFunction(coeffs, n_boundary=N)


def test_component_must_vanish_at_origin():
    with pytest.raises(InvariantViolation):
        RowSymbol([d([0.5, 0.5])])


def test_contraction_bound_enforced():
    with pytest.raises(InvariantViolation):
        RowSymbol([d([0.0, 1.2])])


def test_dependent_rows_reduce_to_their_rank():
    # R of (z/2, z/2) has rank 1: the kernel is that of b = z / sqrt(2)
    sym = RowSymbol([d([0.0, 0.5]), d([0.0, 0.5])])
    assert sym.n == 1 and len(sym.components) == 2
    assert sym.dropped_mass <= np.finfo(float).eps
    assert np.max(np.abs(np.abs(sym.rows[0]) - [0.0, 1.0 / np.sqrt(2.0)])) < 1e-15


def test_dependent_row_matches_its_canonical_row(rng):
    row = np.array([0.0, 0.3, 0.1])
    dependent = SpaceHandle(RowSymbol([d(row), d(2.0 * row)]), n_grid=N)
    canonical = SpaceHandle(RowSymbol([d(np.sqrt(5.0) * row)]), n_grid=N)
    assert dependent.n == 1
    assert dependent.symbol.dropped_mass <= np.finfo(float).eps
    pts = random_interior(rng, 6)

    def gap(get):
        want = get(canonical)
        return np.max(np.abs(get(dependent) - want)) / np.max(np.abs(want))

    assert gap(lambda s: s.kernel(pts[:, None], pts[None, :])) <= 1e-14
    assert gap(lambda s: s.gram(pts)) <= 1e-14
    assert gap(lambda s: s.monomial_gram(48)) <= 1e-14
    assert gap(lambda s: reverse_carleson(s).constant) <= 1e-14
    # reduced over the orders >= 1, so B(0) = 0 and k(z, 0) = 1 hold exactly
    assert dependent.symbol.rows[0, 0] == 0.0
    assert np.all(dependent.kernel(pts, 0.0) == 1.0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
def test_near_dependent_rows_cut_at_sqrt_eps(eps, rng):
    r = np.array([[0.0, 0.5, 0.0], [0.0, 0.5, eps]], dtype=complex)
    sym = RowSymbol([d(row) for row in r])
    if eps >= 1e-6:  # sigma_min = eps / sqrt(2) is above sqrt(eps) sigma_max
        assert sym.n == 2 and sym.dropped_mass == 0.0
        assert np.array_equal(sym.rows, r)
        return
    assert sym.n == 1 and sym.dropped_mass <= eps ** 2 and sym.rows[0, 0] == 0.0
    pts = random_interior(rng, 8)
    b = row_values(r, pts)  # the kernel formula with the input R
    kernel = (1.0 - b @ b.conj().T) / (1.0 - pts[:, None] * np.conj(pts[None, :]))
    assert np.max(np.abs(SpaceHandle(sym, n_grid=N).gram(pts) - kernel)) <= 1e-15 + eps ** 2


def test_full_rank_rows_are_kept_as_given():
    for row in seeded_rows(7)[::3] + [np.array(RANK2_EXAMPLE, dtype=complex)]:
        sym = RowSymbol(list(row))
        assert np.array_equal(sym.rows, row)
        assert sym.n == row.shape[0] and sym.dropped_mass == 0.0


def test_zero_row_is_the_hardy_space():
    sym = RowSymbol([d([0.0, 0.0, 0.0])])
    assert sym.n == 0 and sym.dropped_mass == 0.0
    z, lam = 0.3 + 0.1j, -0.2 + 0.4j
    assert abs(kernel_eval(sym, z, lam) - 1.0 / (1.0 - np.conj(lam) * z)) < 1e-15
    assert SpaceHandle(sym, n_grid=N).poly_norm_sq([0.0, 1.0, 2.0]) == 5.0


def test_non_finite_inputs_are_refused():
    for build in (lambda: RowSymbol([d([0.0, np.nan])]),
                  lambda: weighted_space_symbol([1.0, np.nan, 3.0]),
                  lambda: MeasureSpec(atoms=[(0.5, np.nan)]),
                  lambda: MeasureSpec(atoms=[(0.5, np.inf)]),
                  lambda: MeasureSpec(atoms=[(complex(np.nan, 0.0), 1.0)])):
        with pytest.raises(ValueError, match="non-finite") as caught:
            build()
        assert type(caught.value) is ValueError


def test_kernel_szego_case():
    b0 = RowSymbol([])
    z, lam = 0.3 + 0.1j, -0.2 + 0.4j
    assert abs(kernel_eval(b0, z, lam) - 1.0 / (1.0 - np.conj(lam) * z)) < 1e-14


def test_kernel_normalization_at_origin():
    b = RowSymbol([d([0.0, 0.6, 0.2])])
    for z in (0.1, 0.5j, -0.7, 0.3 - 0.4j):
        assert abs(kernel_eval(b, z, 0.0) - 1.0) < 1e-14


def test_kernel_closed_form_value():
    b = RowSymbol([d([0.0, 1.0 / np.sqrt(2)])])
    assert abs(kernel_eval(b, 0.5, 0.5) - 7.0 / 6.0) < 1e-14


def test_kernel_rejects_boundary_arguments():
    b = RowSymbol([])
    with pytest.raises(ValueError):
        kernel_eval(b, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(b, 0.0, -1.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.85), st.floats(0.0, 1.0), st.floats(0.05, 0.85), st.floats(0.0, 1.0))
def test_kernel_hermitian_symmetry(r1, t1, r2, t2):
    b = RowSymbol([d([0.0, 0.5, 0.0, 0.25])])
    z = r1 * np.exp(2j * np.pi * t1)
    lam = r2 * np.exp(2j * np.pi * t2)
    assert abs(kernel_eval(b, z, lam) - np.conj(kernel_eval(b, lam, z))) < 1e-12


def test_gram_single_point():
    assert np.allclose(gram_matrix(RowSymbol([]), [0.0]), [[1.0]])


def test_gram_szego_pair():
    g = gram_matrix(RowSymbol([]), [0.0, 0.5])
    assert np.allclose(g, [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-14)


def test_gram_rank_one_pair():
    g = gram_matrix(RowSymbol([d([0.0, 1.0 / np.sqrt(2)])]), [0.0, 0.5])
    assert np.allclose(g, [[1.0, 1.0], [1.0, 7.0 / 6.0]], atol=1e-14)


def test_gram_rejects_duplicates():
    with pytest.raises(ValueError):
        gram_matrix(RowSymbol([]), [0.3, 0.3])


# a repeat that equals the first point to 14 digits only
@pytest.mark.parametrize("points", [[0.3, 0.3], [0.3, 0.3 + 4e-16],
                                    [0.1 + 0.2j, -0.4, 0.1 + (0.2 + 3e-16) * 1j]])
def test_points_equal_to_14_digits_are_repeats(points, d_pair):
    with pytest.raises(ValueError, match="Gram points must be distinct"):
        gram_matrix(RowSymbol([]), points)
    with pytest.raises(ValueError, match="Gram points must be distinct"):
        d_pair.gram(points)
    with pytest.raises(ValueError, match="atoms must be at distinct locations"):
        DirichletSpace(MeasureSpec(atoms=[(z, 1.0) for z in points]))


def test_points_apart_at_14_digits_are_distinct(d_pair):
    points = [0.3, 0.3 + 1e-13]
    assert gram_matrix(RowSymbol([]), points).shape == (2, 2)
    assert d_pair.gram(points).shape == (2, 2)
    assert DirichletSpace(MeasureSpec(atoms=[(z, 1.0) for z in points])).degree == 128


@pytest.mark.parametrize("points", [[np.nan, 0.3], [np.nan, np.nan], [complex(0.1, np.nan)]])
def test_gram_refuses_nan_points(points, d_pair):
    with pytest.raises(ValueError):
        gram_matrix(RowSymbol([]), points)
    with pytest.raises(ValueError):
        d_pair.gram(points)


def test_dirichlet_gram_rejects_duplicates(d_pair):
    # a repeated point made a singular Gram, eigenvalues (0, 2.007)
    with pytest.raises(ValueError, match="Gram points must be distinct"):
        d_pair.gram([0.1, 0.1])
    assert np.linalg.eigvalsh(d_pair.gram([0.1, 0.2]))[0] > 0.0


def test_gram_psd_on_random_points(rng):
    b = RowSymbol([d([0.0, 0.5, 0.3]), d([0.0, 0.0, 0.0, 0.4])])
    pts = random_interior(rng, 50)
    g = gram_matrix(b, pts)
    assert np.linalg.eigvalsh(g)[0] >= -1e-10 * np.trace(g).real


def test_delta_inner_symbol_vanishes():
    # the defect 1 - |b|^2 of the inner b = z vanishes on the whole circle
    defect = RowSymbol([d([0.0, 1.0])]).defect
    assert defect.outer is None and np.max(np.abs(defect.laurent)) < 1e-12


def test_delta_scalar_value():
    # b = z / sqrt(2): the outer factor of the defect has modulus 1 / sqrt(2) on the circle
    a = RowSymbol([d([0.0, 1.0 / np.sqrt(2)])]).defect.outer
    assert abs(abs(horner(a, np.exp(0.3j))) - 1.0 / np.sqrt(2)) < 1e-14


def test_delta_squared_complements_symbol():
    # the exact defect factor completes the row at a boundary point: A*A + B*B = I
    b = RowSymbol([d([0.0, 0.5]), d([0.0, 0.0, 0.5])])
    zeta = np.exp(1.1j)
    row = row_values(b.rows, zeta)[None, :]
    a = row_defect_factor(b.rows, b.defect).symbol.at(zeta)
    total = a.conj().T @ a + row.conj().T @ row
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_weighted_trivial_weights_give_hardy():
    assert weighted_space_symbol([1.0, 1.0, 1.0]).n == 0


def test_weighted_single_jump():
    sym = weighted_space_symbol([1.0] + [2.0] * 6, n_boundary=N)
    assert sym.n == 1
    target = np.zeros(2, dtype=complex)
    target[1] = 1.0 / np.sqrt(2)
    assert np.max(np.abs(sym.components[0].taylor - target)) < 1e-15


def test_weighted_dirichlet_style_components():
    sym = weighted_space_symbol(np.arange(1.0, 7.0), n_boundary=N)
    for k, comp in enumerate(sym.components, start=1):
        expected = 1.0 / np.sqrt(k * (k + 1.0))
        assert abs(comp.taylor[k] - expected) < 1e-15


def test_weighted_kernel_matches_diagonal_sum(rng):
    w = np.concatenate([[1.0], np.minimum(np.arange(1.0, 120.0) + 1.0, 40.0)])
    sym = weighted_space_symbol(w, n_boundary=N)
    for _ in range(10):
        z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        lam = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        direct = sum((np.conj(lam) * z) ** k / w[min(k, w.size - 1)] for k in range(400))
        assert abs(kernel_eval(sym, z, lam) - direct) / abs(direct) < 1e-8


def test_weighted_guards():
    with pytest.raises(ValueError):
        weighted_space_symbol([2.0, 2.0])
    with pytest.raises(ValueError):
        weighted_space_symbol([1.0, 0.5])


def test_weighted_truncation_marks_symbol():
    sym = weighted_space_symbol(np.arange(1.0, 40.0), degree=10)
    assert sym.truncated
    sym2 = weighted_space_symbol([1.0, 2.0, 2.0, 2.0], degree=10)
    assert not sym2.truncated


def test_measure_guards():
    with pytest.raises(ValueError):
        MeasureSpec(atoms=[(0.5, -1.0)])
    with pytest.raises(ValueError):
        MeasureSpec(atoms=[(1.5, 1.0)])


def test_dirichlet_constant_embeds_trivially(d_origin):
    comps = d_origin.companions(np.array([3.0]))
    assert all(np.max(np.abs(q)) == 0.0 for q in comps)
    assert abs(d_origin.norm(np.array([3.0])) - 3.0) < 1e-15


def test_dirichlet_origin_norm_of_z(d_origin):
    comps = d_origin.companions(np.array([0.0, 1.0]))
    assert np.allclose(comps[0], [1.0])
    assert abs(d_origin.norm(np.array([0.0, 1.0])) - np.sqrt(2.0)) < 1e-15


def test_dirichlet_boundary_atom_difference_quotient():
    space = DirichletSpace(MeasureSpec(atoms=[(1.0, 1.0)]))
    comps = space.companions(np.array([0.0, 1.0]))
    assert np.allclose(comps[0], [1.0])
    assert abs(space.poly_norm_sq(np.array([0.0, 1.0])) - 2.0) < 1e-14


def test_dirichlet_norm_quadrature_examples(d_origin):
    mu = d_origin.measure
    assert abs(dirichlet_norm(np.array([1.0]), mu) - 1.0) < 1e-12
    assert abs(dirichlet_norm(np.array([0.0, 1.0]), mu) - np.sqrt(2.0)) < 1e-10
    assert abs(dirichlet_norm(np.array([0.0, 0.0, 1.0]), mu) - np.sqrt(2.0)) < 1e-10


def test_dirichlet_norm_routes_agree(rng, d_pair):
    for _ in range(10):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        direct = dirichlet_norm(c, d_pair.measure)
        embedded = d_pair.norm(c)
        assert abs(direct - embedded) / embedded < 1e-6


def test_dirichlet_embed_is_exact(d_pair):
    c = np.array([1.0, -0.5, 0.25j, 2.0])
    pair = d_pair.embed(c)
    assert pair.residual == 0.0
    # the companions (degree 2) are zero-padded to the width of f
    assert np.array_equal(pair.companions, np.pad(d_pair.companions(c), ((0, 0), (0, 1))))
    assert pair.norm_sq == pytest.approx(d_pair.poly_norm_sq(c), rel=1e-15)
    e = d_pair.embed(np.array([0.0, 1.0]))
    assert d_pair.inner(pair, e) == pytest.approx(d_pair.monomial_gram(3)[1] @ c, rel=1e-14)
    assert d_pair.membership(c).member


def test_dirichlet_embed_terms_is_the_cut_embed():
    # closed-form coordinates of P s_mu, boundary atoms included, against the
    # coefficient embed of a cut at which the dropped tail is below roundoff
    rng = np.random.default_rng(2)
    space = DirichletSpace(MeasureSpec(atoms=[(1.0, 0.7), (0.3 - 0.5j, 1.3), (np.exp(2j), 0.2)]))
    f = SzegoSum(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)), [0.5, -0.3 + 0.4j, 0.0])
    rows, residual_rows = space.embed_terms(f)
    assert rows.coeffs.shape == (4, 3, 4) and residual_rows.coeffs.shape == (0, 3, 4)
    cut = space.embed(f.taylor(300))
    companions = SzegoSum(rows.coeffs[1:], rows.points).coefficients(200)
    assert np.max(np.abs(companions - cut.companions[:, :200])) <= 1e-14
    assert abs(rows.term_gram(rows).sum() - cut.norm_sq) <= 1e-14 * cut.norm_sq


@pytest.mark.parametrize("name", ["dirichlet-origin", "dirichlet-half", "dirichlet-pair"])
def test_dirichlet_space_takes_a_szego_sum(name):
    # ||s_a||^2 = szego_density(a) / (1 - |a|^2), through embed, norm and membership
    space = named_space(name)
    for a in (0.5, 0.9, -0.3 + 0.4j):
        s_a = SzegoSum(np.ones((1, 1)), [a])
        target = space.szego_density(a) / (1.0 - abs(a) ** 2)
        pair = space.embed(s_a)
        assert pair.exact and pair.residual == 0.0
        for value in (pair.norm_sq, space.norm(s_a) ** 2, space.membership(s_a).norm ** 2):
            assert abs(value - target) <= 1e-13 * target


def test_dirichlet_poly_density_of_a_szego_sum_matches_its_cut(d_pair):
    # compared in squares: a residual is sqrt(||f||^2 - sum |projections|^2),
    # which resolves nothing below about sqrt(eps) ||f||
    degrees = list(range(0, 25, 2))
    for a in (0.5, -0.3 + 0.4j):
        s_a = SzegoSum(np.ones((1, 1)), [a])
        exact = poly_density_residual(d_pair, s_a, degrees).residuals
        cut = poly_density_residual(d_pair, s_a.taylor(128), degrees).residuals
        assert np.max(np.abs(exact ** 2 - cut ** 2)) <= 1e-12 * d_pair.norm(s_a) ** 2


def _dirichlet_gram_closed_form(atoms, degree):
    """I + sum c conj(a)^(j - m) a^(k - m) sum_{t < m} |a|^(2t), m = min(j, k)."""
    g = np.eye(degree + 1, dtype=complex)
    for a, c in atoms:
        for j in range(degree + 1):
            for k in range(degree + 1):
                m = min(j, k)
                g[j, k] += (c * np.conj(a) ** (j - m) * a ** (k - m)
                            * sum(abs(a) ** (2 * t) for t in range(m)))
    return g


def test_dirichlet_monomial_gram_closed_form():
    # one batched embed of the identity gives the Gram; a boundary atom included
    atoms = [(0.5, 1.0), (-0.3 + 0.4j, 0.7), (np.exp(0.9j), 0.25)]
    space = DirichletSpace(MeasureSpec(atoms=atoms))
    ref = _dirichlet_gram_closed_form(atoms, 48)
    gram = space.monomial_gram(48)
    assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))
    comp = space.monomial_companions(48)
    for k in (0, 1, 7, 48):
        exact = space.embed(np.eye(1, k + 1, k)[0])
        width = exact.companions.shape[1]
        assert np.max(np.abs(comp[:, :width, k] - exact.companions)) <= 1e-15 * k
        assert not np.any(comp[:, width:, k])
    pairs = [ModelPair(np.vstack([np.eye(1, 49, k), comp[:, :, k]]), 0.0, gram[k, k].real)
             for k in (7, 3)]
    assert abs(space.inner(*pairs) - gram[3, 7]) <= 1e-14 * abs(gram[3, 7])


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted", "ddelta",
                                  "rank2", "d_origin", "d_pair"])
def test_monomial_companions_give_the_gram_and_the_embeds(name, request):
    # C[i, j, k] is coefficient j of companion i of z^k on both space types
    if name == "rank2":
        space = SpaceHandle(RowSymbol([d(c) for c in RANK2_EXAMPLE]), n_grid=N)
    else:
        space = request.getfixturevalue(name)
    comp = space.monomial_companions(24)
    assert comp.shape == (space.n, 25, 25)  # (0, 25, 25) on H^2
    flat = comp.reshape(-1, 25)
    gram = space.monomial_gram(24)
    assert np.max(np.abs(np.eye(25) + flat.conj().T @ flat - gram)) <= 1e-14 * np.max(np.abs(gram))
    for k in (0, 1, 7, 24):
        companions = space.embed(np.eye(1, k + 1, k)[0]).companions
        ref = np.zeros((space.n, k + 1), dtype=complex)
        ref[:, : companions.shape[1]] = companions
        assert np.max(np.abs(comp[:, : k + 1, k] - ref), initial=0.0) <= 1e-13


def test_inner_handle_refuses_monomial_companions(inner_space):
    with pytest.raises(NumericalError):
        inner_space.monomial_companions(4)


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted", "ddelta",
                                  "rank2", "d_origin", "d_pair"])
def test_kernel_broadcasts_like_scalar_calls(name, request):
    if name == "rank2":
        space = SpaceHandle(RowSymbol([d(c) for c in RANK2_EXAMPLE]), n_grid=N)
    else:
        space = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    z = random_interior(rng, 9, 0.9)[:, None]
    lam = random_interior(rng, 9, 0.9)[None, :]
    grid = space.kernel(z, lam)
    assert grid.shape == (9, 9)
    scalar = np.array([[space.kernel(a, b) for b in lam[0]] for a in z[:, 0]])
    assert np.max(np.abs(grid - scalar) / np.abs(scalar)) <= 1e-15


def test_named_dirichlet_spaces_honour_degree():
    assert named_space("dirichlet-pair", degree=64).degree == 64
    assert named_space("dirichlet-origin", n_grid=2048).degree == 128
    spec = {"kind": "dirichlet", "atoms": [{"z": [0.5, 0.0], "c": 1.0}]}
    assert space_from_json(spec, degree=32).degree == 32


def test_dirichlet_rejects_coincident_atoms():
    with pytest.raises(ValueError):
        DirichletSpace(MeasureSpec(atoms=[(0.5, 1.0), (0.5, 2.0)]))


def test_estimate_rank_reference_values(h2, rank1_half, d_pair):
    assert estimate_rank(h2.monomial_gram(32)) == 0
    assert estimate_rank(rank1_half.monomial_gram(32)) == 1
    assert estimate_rank(d_pair.monomial_gram(32)) == 2


def test_estimate_rank_rejects_indefinite():
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NumericalError):
        estimate_rank(bad)


def test_defect_form_refutes_the_bergman_gram():
    # ||z||^2 = 1/2 in the Bergman space, so ||Lz||^2 = 1 > ||z||^2 - |z(0)|^2
    bergman = np.diag(1.0 / np.arange(1.0, 3.0))
    q, evals, bound = defect_form(bergman)
    assert np.array_equal(q, np.diag([0.0, -0.5]))
    assert evals[0] == -0.5 and bound < 1e-14
    witness = np.linalg.eigh(q)[1][:, 0]
    assert np.allclose(np.abs(witness), [0.0, 1.0], rtol=0.0, atol=1e-15)  # parallel to z
    with pytest.raises(NumericalError, match=r"-5\.000e-01 .* witness"):
        estimate_rank(bergman)


@pytest.mark.parametrize("name", ["rank1-half", "cusp", "dirichlet-pair"])
def test_exact_pair_companion_value_is_the_closed_form(name):
    # sum_j P_j(lam) / (1 - conj(mu_j) lam) over the companion rows, against
    # Horner on a degree-200 cut of each row
    space = named_space(name)
    sums = [SzegoSum([[1.0, -0.5j], [0.3, 0.2]], [0.5, -0.3j])]
    if isinstance(space, SpaceHandle):
        sums += [space.kernel_taylor(0.5), 2.0 * space.kernel_taylor(0.5) + space.kernel_taylor(-0.4j)]
    for f in sums:
        cut = space.embed(f).companions.taylor(200)
        for lam in (0.3, 0.0, -0.6 + 0.2j):
            got = space.companions_at(f, lam)
            ref = np.array([horner(row, lam) for row in cut])
            assert got.shape == (space.n,)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["dirichlet-origin", "dirichlet-pair", "dirichlet-half"])
def test_dirichlet_companion_values_match_horner_per_atom(name, rng):
    # one power-table product of the companion rows, against one Horner call per atom
    space = named_space(name)
    for size in (1, 2, 7, 12):
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        for lam in random_interior(rng, 5, radius=0.95):
            rows = space.companions(c)
            ref = np.array([horner(q, lam) for q in rows])
            scale = np.array([np.abs(q) @ np.abs(lam) ** np.arange(q.size) for q in rows])
            assert np.all(np.abs(space.companions_at(c, lam) - ref) <= 1e-15 * scale)
