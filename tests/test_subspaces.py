import warnings

import numpy as np
import pytest

from hbspace.analysis import LimitSchedule
from hbspace.catalog import named_space, rank1_half_symbol
from hbspace.errors import ConfigError, ConvergenceError, NumericalError
from hbspace.harmonic import DiskFunction, grid_points
from hbspace.model import SpaceHandle
from hbspace.series import (
    convolve,
    divided_difference,
    h2_norm_sq,
    horner,
    shift_up,
    szego_taylor,
)
from hbspace.symbols import DirichletSpace, MeasureSpec, RowSymbol
from hbspace.subspaces import (
    BlaschkeProduct,
    _gram_extremal,
    backward_invariance_residual,
    extremal_function,
    intersect_model_space,
    model_space_basis,
    nearly_invariant_norm,
    poly_density_residual,
    shift_subspace_membership,
)
from conftest import RANK2_EXAMPLE


def test_blaschke_unimodular_on_boundary():
    theta = BlaschkeProduct([0.0, 0.5, -0.3 + 0.2j])
    zeta = grid_points(512)
    assert np.max(np.abs(np.abs(theta(zeta)) - 1.0)) < 1e-12
    coeffs = theta.taylor(200)
    vals = np.polyval(coeffs[::-1], 0.3 + 0.1j)
    assert abs(vals - theta(0.3 + 0.1j)) < 1e-12


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        BlaschkeProduct([1.0])
    with pytest.raises(ValueError):
        BlaschkeProduct([])


def test_model_space_basis_monomials():
    basis = model_space_basis(BlaschkeProduct([0.0, 0.0, 0.0]))
    assert len(basis) == 3
    for j, b in enumerate(basis):
        expected = np.zeros(j + 1)
        expected[j] = 1.0
        assert np.array_equal(b.coeffs, [expected]) and np.array_equal(b.points, [0.0])
    single = model_space_basis(BlaschkeProduct([0.0]))
    assert len(single) == 1 and np.array_equal(single[0].coefficients(4), [1.0, 0, 0, 0])


def test_model_space_basis_szego_for_simple_zero():
    # the exact Szego kernel against the degree-256 cut the basis used to hold
    for a in (0.4 - 0.1j, 0.6, -0.6j, 0.3 * np.exp(2.0j)):
        basis = model_space_basis(BlaschkeProduct([a]))
        assert np.array_equal(basis[0].points, [a])
        assert np.max(np.abs(basis[0].taylor(256) - szego_taylor(a, 256))) < 1e-14


def test_model_space_basis_orthogonal_to_shifted_range():
    theta = BlaschkeProduct([0.0, 0.35, -0.5j])
    degree = 256
    basis = [b.taylor(degree) for b in model_space_basis(theta)]
    assert len(basis) == theta.degree
    th = theta.taylor(degree)
    for b in basis:
        for k in range(0, degree - theta.degree - 8, 16):
            shifted = np.concatenate([np.zeros(k), th])[: degree + 1]
            inner = np.vdot(shifted[: b.size], b[: shifted.size])
            assert abs(inner) < 1e-10


def test_model_space_basis_rejects_repeats_off_origin():
    with pytest.raises(ValueError):
        model_space_basis(BlaschkeProduct([0.3, 0.3]))


@pytest.mark.parametrize("gap, distinct", [(1e-16, False), (1e-12, True)])
def test_model_space_basis_distinctness_is_the_gram_rule(d_pair, gap, distinct):
    # one 14-digit rule for both: two zeros 1e-16 apart are a repeat, 1e-12 apart are not
    zeros = [0.5, 0.5 + gap]
    assert zeros[0] != zeros[1]
    for build in (lambda: model_space_basis(BlaschkeProduct(zeros)), lambda: d_pair.gram(zeros)):
        if distinct:
            build()
        else:
            with pytest.raises(ValueError, match="distinct"):
                build()


def test_intersect_hardy_gives_model_space(h2):
    theta = BlaschkeProduct([0.0, 0.4])
    basis = intersect_model_space(h2, theta)
    assert basis.dim == 2
    assert np.max(np.abs(basis.gram - np.eye(2))) < 1e-10


def test_intersect_rank_one_monomial_case(rank1_half):
    basis = intersect_model_space(rank1_half, BlaschkeProduct([0.0, 0.0]))
    assert basis.dim == 2
    assert np.allclose(basis.raw_gram, np.diag([1.0, 2.0]), atol=1e-10)
    assert np.max(np.abs(basis.gram - np.eye(2))) < 1e-10


def test_intersect_single_blaschke_factor(rank1_half):
    basis = intersect_model_space(rank1_half, BlaschkeProduct([0.5]))
    assert basis.dim == 1
    # the candidate 1/(1 - z/2) has squared norm 1 + 2 sum 4^-k = 5/3
    assert basis.raw_gram[0, 0].real == pytest.approx(5.0 / 3.0, rel=1e-10)


def test_backward_invariance_of_intersections(h2, rank1_half, cusp):
    cases = [
        (h2, BlaschkeProduct([0.0, 0.0])),
        (h2, BlaschkeProduct([0.5])),
        (rank1_half, BlaschkeProduct([0.0, 0.0])),
        (rank1_half, BlaschkeProduct([0.5, -0.3])),
        (cusp, BlaschkeProduct([0.5, -0.3])),  # a difference of norms read 1.5e-8 here
    ]
    for space, theta in cases:
        basis = intersect_model_space(space, theta)
        assert backward_invariance_residual(space, basis) <= 1e-12


def test_intersect_on_dirichlet_space(d_pair):
    # Dirichlet companions of members, basis vectors and their backward
    # shifts have different widths; every one of them must be kept
    theta = BlaschkeProduct([0.3, -0.4j])
    basis = intersect_model_space(d_pair, theta)
    assert basis.dim == theta.degree
    assert np.max(np.abs(basis.gram - np.eye(2))) < 1e-10
    assert backward_invariance_residual(d_pair, basis) <= 1e-12


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted", "d_pair"])
def test_intersect_near_the_circle(name, request):
    # exact candidates: a degree-256 cut of s_a drops a tail at |a| = 0.9 and is refused at 0.99
    space = request.getfixturevalue(name)
    for radius in (0.9, 0.99, 0.999):
        for angle in (0.0, 2.0):
            a = radius * np.exp(1j * angle)
            basis = intersect_model_space(space, BlaschkeProduct([a, 0.0]))
            assert basis.dim == 2
            norm_sq = space.szego_density(a) / (1.0 - abs(a) ** 2)
            assert abs(basis.raw_gram[1, 1] - norm_sq) <= 1e-12 * norm_sq
            solo = intersect_model_space(space, BlaschkeProduct([a]))
            assert abs(solo.raw_gram[0, 0] - norm_sq) <= 1e-12 * norm_sq
            assert np.max(np.abs(basis.gram - np.eye(2))) <= 1e-12
            assert backward_invariance_residual(space, basis) <= 1e-12
            assert max(p.residual for p in basis.pairs) <= 1e-12


def test_intersect_pairs_are_the_embedded_basis(rank1_half, d_pair):
    # the mixed term rows are the exact pairs of the basis vectors
    for space in (rank1_half, d_pair):
        basis = intersect_model_space(space, BlaschkeProduct([0.0, 0.0, 0.5, -0.3j]))
        for pair, f in zip(basis.pairs, basis.coeffs):
            assert np.array_equal(pair.f.coeffs, f.coeffs)
            assert np.array_equal(pair.f.points, f.points)
            cut = f.taylor(200)
            ref = space.embed(cut)
            head = pair.companions.coefficients(150) - ref.companions[:, :150]
            assert np.max(np.abs(head)) <= 1e-13
            assert abs(pair.norm_sq - ref.norm_sq) <= 1e-13
        gram = np.array([[space.inner(a, b) for b in basis.pairs] for a in basis.pairs])
        assert np.max(np.abs(gram - basis.gram)) <= 1e-13
        cut = [space.embed(t.taylor(200)) for t in model_space_basis(BlaschkeProduct(
            [0.0, 0.0, 0.5, -0.3j]))]
        raw = np.array([[space.inner(a, b) for b in cut] for a in cut])
        assert np.max(np.abs(raw - basis.raw_gram)) <= 1e-13 * np.max(np.abs(raw))


def test_intersect_membership_filter_drops_candidates(cusp):
    # every Szego kernel is a member, so only a tolerance below the candidates'
    # roundoff residuals drops one.  Which of those residuals round to exactly
    # 0 follows the rounding of the factor, so each expected dimension is read
    # from the candidates' own exact residuals; at the tolerance 1e-300 at
    # least one candidate must go
    row = RowSymbol([[0.0, 0.3, 0.2], [0.0, 0.0, 0.4]])
    theta = BlaschkeProduct([0.5, -0.3, 0.0])
    dims = []
    for space in (SpaceHandle(row), SpaceHandle(row, tol_membership=1e-300),
                  SpaceHandle(cusp.symbol, tol_membership=1e-300)):
        rows, residual_rows = space.embed_terms(sum(model_space_basis(theta)))
        norms = np.sqrt(np.diagonal(rows.term_gram(rows)).real)
        residuals = np.sqrt(np.abs(np.diagonal(residual_rows.term_gram(residual_rows))))
        dim = int(np.sum(residuals <= space.tol_membership * (1.0 + norms)))
        basis = intersect_model_space(space, theta)
        assert basis.dim == dim
        assert np.max(np.abs(basis.gram - np.eye(dim))) <= 1e-12
        dims.append(dim)
    assert dims[0] == 3 and min(dims[1:]) < 3


def test_intersection_embeds_one_batch(monkeypatch):
    # one intersection and its residual on an untouched handle: one exact embed
    # of all candidates, no per-vector embed, a correlation no wider than the
    # widest candidate (z, width 2)
    space = SpaceHandle(rank1_half_symbol(1024), n_grid=1024)
    calls = {"embed": 0, "embed_terms": 0, "_companions": 0}
    for name in calls:
        original = getattr(SpaceHandle, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(SpaceHandle, name, counted)
    basis = intersect_model_space(space, BlaschkeProduct([0.0, 0.0, 0.5, -0.3j]))
    assert backward_invariance_residual(space, basis) <= 1e-12
    assert calls == {"embed": 0, "embed_terms": 1, "_companions": 1}
    assert space._g.shape[1] <= 2


def _pairwise_poly_density(space, f, degrees):
    """Reference residuals from one embed per inner product and a dense solve
    of the normal equations; returns (squared residuals, ||f||^2)."""
    dmax = max(degrees)
    mono = [np.eye(dmax + 1)[k][: k + 1] for k in range(dmax + 1)]

    def inner(a, b):
        return space.inner(space.embed(a), space.embed(b))

    gram = np.array([[inner(mono[k], mono[j]) for k in range(dmax + 1)]
                     for j in range(dmax + 1)])
    b = np.array([inner(f, m) for m in mono])
    norm_sq = inner(f, f).real
    proj = [np.vdot(b[: d + 1], np.linalg.solve(gram[: d + 1, : d + 1], b[: d + 1])).real
            for d in degrees]
    return np.maximum(norm_sq - np.array(proj), 0.0), norm_sq


@pytest.mark.parametrize("name,lam", [("rank1_half", 0.5), ("cusp", 0.4), ("d_pair", 0.4)])
def test_poly_density_matches_pairwise_reference(request, name, lam):
    # rank1_half takes the FFT route, cusp the triangular one.  Residuals are
    # square roots of differences of nearly equal numbers, so agreement is
    # stated on squared residuals relative to ||f||^2.
    space = request.getfixturevalue(name)
    f = space.kernel_taylor(lam)
    degrees = list(range(0, 25, 2))
    res = poly_density_residual(space, f, degrees)
    ref_sq, norm_sq = _pairwise_poly_density(space, f, degrees)
    assert np.max(np.abs(res.residuals ** 2 - ref_sq)) <= 1e-12 * norm_sq


def test_poly_density_complex_gram_matches_least_squares():
    # a symbol with a complex monomial Gram: the normal equations need G, not conj(G)
    symbol = RowSymbol([DiskFunction([0.0, 0.3, 0.4j], n_boundary=1024)])
    space = SpaceHandle(symbol, n_grid=1024)
    f = space.kernel_taylor(0.5 + 0.2j)
    degrees = [0, 2, 4, 6]
    res = poly_density_residual(space, f, degrees)
    ref_sq, norm_sq = _pairwise_poly_density(space, f, degrees)
    assert np.max(np.abs(res.residuals ** 2 - ref_sq)) <= 1e-12 * norm_sq
    assert res.residuals[-1] < 0.1 * res.residuals[0]


def test_poly_density_embeds_each_vector_once(monkeypatch):
    space = SpaceHandle(rank1_half_symbol(1024), n_grid=1024)
    kernel = space.kernel_taylor(0.5)
    calls = []
    embed = SpaceHandle.embed

    def counting_embed(self, coeffs):
        calls.append(1)
        return embed(self, coeffs)

    monkeypatch.setattr(SpaceHandle, "embed", counting_embed)
    poly_density_residual(space, kernel, range(0, 25, 2))
    assert len(calls) <= 26


CATALOG = ["h2", "rank1-half", "cusp", "dirichlet-origin", "dirichlet-half", "dirichlet-pair"]


@pytest.mark.parametrize("name", CATALOG + ["two_term", "weighted", "ddelta"])
def test_monomial_gram_eigenvalues_are_at_least_one(name, request):
    # the Gram is I + C*C (I + sum c_i Q_i* Q_i on a Dirichlet space), so the
    # Cholesky in poly_density_residual needs no fallback
    space = named_space(name) if name in CATALOG else request.getfixturevalue(name)
    gram = space.monomial_gram(48)
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0] >= 1.0 - 1e-12


def test_poly_density_hardy_monomial(h2):
    res = poly_density_residual(h2, np.array([0.0, 1.0]), [0, 1, 2])
    assert np.allclose(res.residuals, [1.0, 0.0, 0.0], atol=1e-12)


def test_poly_density_kernel_decay(rank1_half):
    f = rank1_half.kernel_taylor(0.5)
    res = poly_density_residual(rank1_half, f, list(range(0, 25, 2)))
    assert np.all(np.diff(res.residuals) <= 0)
    assert res.residuals[-1] <= 1e-3
    ratios = res.residuals[1:] / np.maximum(res.residuals[:-1], 1e-300)
    assert np.all(ratios[1:8] < 0.3)  # geometric decay, ratio ~ 0.25 per 2 degrees


def test_poly_density_refuses_non_invariant(inner_space):
    with pytest.raises(ConfigError):
        poly_density_residual(inner_space, np.array([1.0]), [0, 1])


def test_poly_density_on_dirichlet(d_pair):
    f = d_pair.kernel_taylor(0.4, degree=64)
    res = poly_density_residual(d_pair, f, [0, 4, 8, 12])
    assert np.all(np.diff(res.residuals) <= 0)
    assert res.residuals[-1] < 1e-3


def test_poly_density_builds_dirichlet_monomials_once(monkeypatch):
    # the Gram reads the companion matrix that poly_density_residual caches
    space = named_space("dirichlet-pair")
    calls = []
    rows = DirichletSpace._rows

    def counting_rows(self, p, mu):
        calls.append(p.shape)
        return rows(self, p, mu)

    monkeypatch.setattr(DirichletSpace, "_rows", counting_rows)
    for _ in range(3):
        poly_density_residual(space, [1.0, 0.5, 0.25], [2, 8])
    assert calls == [(9, 9)]


def test_nearly_invariant_reduces_to_norm_formula(h2):
    result = nearly_invariant_norm(h2, np.array([1.0]), np.array([0.0, 1.0]),
                                   LimitSchedule(4, 8))
    assert result.quotient_norm_sq == pytest.approx(1.0, rel=1e-12)
    assert abs(result.final - 1.0) < 1e-12


def test_nearly_invariant_hitt_case(h2, monkeypatch):
    # subspace of functions vanishing at a; generator is the Blaschke factor
    a = 0.4
    phi = BlaschkeProduct([a]).taylor(256)
    f = convolve(np.array([-a, 1.0]), np.array([1.0, 0.5, 0.25]))  # (z - a) p(z)
    # the Hardy norm is the space norm of H^2, so no Gram is assembled
    grams = []
    monkeypatch.setattr(h2, "monomial_gram", lambda degree: grams.append(degree))
    result = nearly_invariant_norm(h2, phi, f, LimitSchedule(4, 9))
    assert result.quotient_norm_sq == pytest.approx(h2_norm_sq(f), rel=1e-8)
    assert result.final == pytest.approx(h2_norm_sq(f), rel=1e-12)
    assert grams == []


def test_nearly_invariant_consistency_in_rank_one(rank1_half):
    phi = np.array([0.0, 1.0]) / np.sqrt(2.0)  # normalized generator of z H
    sched = LimitSchedule(4, 9)
    for coeffs in ([0.0, 1.0], [0.0, 0.5, 0.25], [0.0, 1.0, 0.0, -0.5],
                   [0.0, 0.3, 0.3, 0.1], [0.0, 0.0, 1.0]):
        f = np.array(coeffs, dtype=complex)
        result = nearly_invariant_norm(rank1_half, phi, f, sched)
        target = rank1_half.poly_norm_sq(f)
        assert abs(result.final - target) / target < 1e-12


@pytest.mark.parametrize("name", ["rank1_half", "two_term", "weighted"])
def test_nearly_invariant_matches_per_node_reference(request, name):
    space = request.getfixturevalue(name)
    phi = np.array([0.0, 1.0]) / np.sqrt(space.poly_norm_sq(np.array([0.0, 1.0])))
    f = np.array([0.0, 0.4, -0.3 + 0.2j, 0.1])
    phi_pad = np.concatenate([phi, np.zeros(f.size - phi.size)])
    sched = LimitSchedule(4, 6)
    result = nearly_invariant_norm(space, phi, f, sched)
    m = result.nodes
    for r, value in result.rows:
        total = 0.0
        for eta in r * np.exp(2j * np.pi * np.arange(m) / m):
            h = f - (horner(f, eta) / horner(phi, eta)) * phi_pad
            q = divided_difference(h, eta)
            total += space.poly_norm_sq(shift_up(q)) - space.poly_norm_sq(q)
        ref = result.quotient_norm_sq + total / m
        assert abs(value - ref) <= 1e-12 * abs(ref)


NEARLY_INVARIANT_SPACES = ["h2", "rank1_half", "cusp", "two_term", "weighted", "ddelta",
                           "rank2", "d_origin", "d_pair", "d_half"]


@pytest.fixture(scope="module")
def rank2():
    return SpaceHandle(RowSymbol(RANK2_EXAMPLE))


@pytest.mark.parametrize("name", NEARLY_INVARIANT_SPACES)
def test_nearly_invariant_extremal_is_exact(request, name):
    # with phi the extremal function of {f : f(0) = 0} the r = 1 value is the norm
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(9)
    f = np.concatenate([[0.0], rng.normal(size=9) + 1j * rng.normal(size=9)])
    result = nearly_invariant_norm(space, None, f)
    target = space.poly_norm_sq(f)
    assert abs(result.final - target) <= 1e-12 * target
    assert result.nodes >= 2 * f.size


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted",
                                  "ddelta", "rank2"])
def test_extremal_closed_form_matches_gram_route(request, name):
    space = request.getfixturevalue(name)
    phi = extremal_function(space)
    gram = _gram_extremal(space, phi.size + 8)
    assert np.max(np.abs(gram[: phi.size] - phi)) <= 1e-13
    assert np.max(np.abs(gram[phi.size:])) <= 1e-13
    assert space.poly_norm_sq(phi) == pytest.approx(1.0, rel=1e-13)


def test_extremal_function_closed_forms(cusp, d_origin):
    # cusp: b = z (1 + z) / 2 gives (sqrt(3) / 2) z - z^2 / (2 sqrt(3))
    assert np.allclose(extremal_function(cusp), [0.0, np.sqrt(3) / 2, -0.5 / np.sqrt(3)],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(extremal_function(d_origin), [0.0, 1.0 / np.sqrt(2.0)],
                       rtol=0.0, atol=1e-15)


def test_extremal_function_refuses_trivial_subspace(inner_space):
    # b = z: the space is the constants, so no f != 0 vanishes at 0
    with pytest.raises(ConfigError):
        extremal_function(inner_space)


def test_extremal_function_refuses_an_unresolved_gram_route():
    # one atom of mass 0.01 at 0.99: the extremal function decays like 0.9^k,
    # so degree 16 cannot hold it
    space = DirichletSpace(MeasureSpec(atoms=[(0.99, 0.01)]), degree=16)
    with pytest.raises(ConvergenceError, match="unresolved at degree 16"):
        extremal_function(space)


def test_nearly_invariant_default_phi_needs_f_vanishing_at_zero(rank1_half):
    with pytest.raises(ConfigError):
        nearly_invariant_norm(rank1_half, None, np.array([1.0, 0.5]))


def test_nearly_invariant_refuses_phi_vanishing_at_a_node(h2):
    with pytest.raises(NumericalError):
        nearly_invariant_norm(h2, np.array([-1.0, 1.0]), np.array([0.0, 1.0]))


def test_nearly_invariant_refuses_unconverged_means(h2):
    # phi = z - (1 + 1e-9): f/phi has a pole 1e-9 off the circle
    with pytest.raises(ConvergenceError, match="65536 nodes"):
        nearly_invariant_norm(h2, np.array([-(1.0 + 1e-9), 1.0]), np.array([0.0, 1.0]))


def test_quotient_membership_self(rank1_half):
    phi = np.array([0.0, 1.0]) / np.sqrt(2.0)
    assert shift_subspace_membership(rank1_half, phi, phi).member


def test_quotient_membership_pole(h2):
    report = shift_subspace_membership(h2, np.array([0.0, 1.0]), np.array([1.0]))
    assert not report.member
    assert "pole" in report.evidence


def test_quotient_membership_monomial_case(rank1_half):
    phi = np.array([0.0, 1.0]) / np.sqrt(2.0)
    assert shift_subspace_membership(rank1_half, phi, np.array([0.0, 0.0, 1.0])).member


def test_quotient_membership_interior_pole_detected(h2):
    # f / phi has a pole at 0.9 inside the disk
    phi = np.array([-0.9, 1.0])  # z - 0.9
    f = np.array([1.0])
    report = shift_subspace_membership(h2, phi, f)
    assert not report.member


def test_quotient_membership_counts_order_at_zero(rank1_half):
    phi = np.array([0.0, 0.0, 1.0])  # z^2
    member = shift_subspace_membership(rank1_half, phi, np.array([0.0, 0.0, 0.0, 1.0]))
    assert member.member and member.evidence["remainder"] == 0.0
    assert np.array_equal(member.evidence["zeros"], [0.0, 0.0])
    report = shift_subspace_membership(rank1_half, phi, np.array([0.0, 1.0]))
    assert not report.member and "pole" in report.evidence


def test_quotient_membership_circle_zero(rank1_half):
    # phi = (1 - z)(2 + z) vanishes at 1 on the circle and at -2 outside
    phi = convolve(np.array([1.0, -1.0]), np.array([2.0, 1.0]))
    shared = convolve(np.array([1.0, -1.0]), np.array([0.3, 0.0, 1.0j]))
    report = shift_subspace_membership(rank1_half, phi, shared)
    assert report.member
    assert np.allclose(report.evidence["zeros"], [1.0], rtol=0.0, atol=1e-15)
    assert report.evidence["remainder"] <= 1e-15
    report = shift_subspace_membership(rank1_half, phi, np.array([0.3, 0.0, 1.0j]))
    assert not report.member and "pole" in report.evidence


def test_quotient_membership_counts_circle_zeros_with_multiplicity(rank1_half):
    # (1 - z)^4 splits into four roots 2.2e-4 from 1 (moduli 0.99978 to
    # 1.00022); their centroid keeps the zero, taken four times
    one = np.array([1.0, -1.0])
    phi = convolve(convolve(one, one), convolve(one, one))
    report = shift_subspace_membership(rank1_half, phi, convolve(phi, [0.3, 1.0]))
    assert report.member
    assert np.allclose(report.evidence["zeros"], [1.0] * 4, rtol=0.0, atol=1e-14)
    assert report.evidence["remainder"] <= 1e-14
    cube = convolve(convolve(one, one), one)
    report = shift_subspace_membership(rank1_half, phi, convolve(cube, [0.3, 1.0]))
    assert not report.member and "pole" in report.evidence
    assert report.evidence["remainder"] >= 0.1


@pytest.mark.parametrize("tail", [[np.inf, np.inf], [3.0, 1e200], [np.nan, 1.0]])
def test_overflowing_tail_is_unstable(h2, tail):
    # f does not vanish at 0.5, the zero of phi, whatever its tail: a huge
    # tail is no member with no overflow, and a non-finite one is refused
    f = np.array([1.0, 2.0] + tail)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        if np.all(np.isfinite(f)):
            assert not shift_subspace_membership(h2, [-0.5, 1.0], f).member
        else:
            with pytest.raises(ValueError, match="finite"):
                shift_subspace_membership(h2, [-0.5, 1.0], f)


def test_pole_at_0_3_quotient_is_not_a_member(rank1_half):
    # f(0.3) = 1.1725: f / phi has a pole at 0.3, found with no series division
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        report = shift_subspace_membership(rank1_half, [-0.3, 1.0], [1.0, 0.5, 0.25])
    assert not report.member
    assert "pole" in report.evidence
    assert report.evidence["remainder"] == pytest.approx(1.1725, rel=1e-14)
