from fractions import Fraction

import numpy as np
import pytest

from hbspace import analysis
from hbspace.analysis import (
    LimitSchedule,
    _column_norms,
    cauchy_dual,
    dirichlet_reverse_carleson,
    mz_test,
    norm_identity_deviation,
    norm_limit_estimate,
    pointwise_defect,
    reverse_carleson,
    shift_intertwine_residual,
    wandering_norm,
)
from hbspace.catalog import cusp_symbol, h2_symbol, inner_symbol, rank1_half_symbol
from hbspace.errors import ConfigError, InvariantViolation
from hbspace.model import SpaceHandle
from hbspace.series import divided_difference, h2_norm_sq, horner, shift_up, szego_taylor
from hbspace.spectral import laurent_values
from hbspace.symbols import MeasureSpec, RowSymbol, weighted_space_symbol
from conftest import ODD_ROOT_ROW, RANK2_EXAMPLE, random_interior, scaled_row


def test_schedule_validation():
    with pytest.raises(ConfigError):
        LimitSchedule(0, 4)
    with pytest.raises(ConfigError):
        LimitSchedule(4, 3)
    sched = LimitSchedule(4, 6)
    assert sched.radii == [1 - 2.0 ** -4, 1 - 2.0 ** -5, 1 - 2.0 ** -6]


def test_norm_limit_hardy_z(h2):
    est = norm_limit_estimate(h2, np.array([0.0, 1.0]), LimitSchedule(4, 8))
    # estimate at radius r is 1 + (1 - r^2), limit 1
    r, value = est.rows[-1]
    assert value == pytest.approx(1.0 + (1.0 - r ** 2), rel=1e-12)
    assert est.final == pytest.approx(1.0, rel=1e-12)


def test_norm_limit_constant_is_exact(rank1_half):
    est = norm_limit_estimate(rank1_half, np.array([1.0]), LimitSchedule(4, 6))
    assert all(abs(v - 1.0) < 1e-12 for _, v in est.rows)


def test_norm_limit_rank_one_z(rank1_half):
    est = norm_limit_estimate(rank1_half, np.array([0.0, 1.0]), LimitSchedule(4, 10))
    assert abs(est.final - 2.0) / 2.0 < 1e-2
    values = est.values
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_norm_limit_matches_norm_on_rational(rank1_half):
    f = szego_taylor(0.5, 64)
    est = norm_limit_estimate(rank1_half, f, LimitSchedule(4, 10))
    target = rank1_half.poly_norm_sq(f)
    assert abs(est.final - target) / target < 1e-2


def _grid_quadrature(space, c, schedule):
    """Reference rows: the norm formula and the wandering norm averaged over
    16 * 2**k equispaced nodes at each radius r = 1 - 2**-k."""
    norm_rows, wandering_rows = [], []
    for k, r in enumerate(schedule.radii, start=schedule.k_min):
        m = 16 * 2 ** k
        lam = np.exp(2j * np.pi * np.arange(m) / m)
        q = divided_difference(c, r * lam)
        zq = np.vstack([np.zeros((1, m), dtype=complex), q])
        q_norms = _column_norms(space, q)
        vals = _column_norms(space, zq) - r ** 2 * q_norms
        norm_rows.append((r, h2_norm_sq(c) + float(np.mean(vals))))
        wandering_rows.append((r, (1.0 - r ** 2) * float(np.mean(q_norms))))
    return norm_rows, wandering_rows


RADIAL_SPACES = ["h2", "rank1_half", "cusp", "two_term", "weighted", "ddelta",
                 "d_origin", "d_pair", "d_half"]


def _radial_inputs():
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for d in (0, 1, 4, 12, 40)]
    return inputs + [szego_taylor(0.5, 64)]


@pytest.mark.parametrize("name", RADIAL_SPACES)
def test_radial_rows_match_grid_quadrature(name, request):
    space = request.getfixturevalue(name)
    schedule = LimitSchedule(4, 8)
    for c in _radial_inputs():
        norm_rows, wandering_rows = _grid_quadrature(space, c, schedule)
        est = norm_limit_estimate(space, c, schedule)
        wand = wandering_norm(space, c, schedule)
        for rows, ref in ((est.rows, norm_rows), (wand.rows, wandering_rows)):
            assert [r for r, _ in rows] == [r for r, _ in ref]
            scale = max(abs(v) for _, v in ref)
            assert max(abs(v - w) for (_, v), (_, w) in zip(rows, ref)) <= 1e-13 * scale
        direct = space.poly_norm_sq(c)
        assert abs(est.final - direct) <= 1e-12 * direct
        assert wand.final == 0.0


def test_norm_limit_of_empty_input_is_zero(rank1_half):
    assert norm_limit_estimate(rank1_half, []).final == 0.0
    assert wandering_norm(rank1_half, []).values == [0.0] * 7


def test_norm_limit_nodes_follow_the_degree(rank1_half, monkeypatch):
    columns = []

    def counting(c, etas):
        columns.append(etas.size)
        return divided_difference(c, etas)

    monkeypatch.setattr(analysis, "divided_difference", counting)
    schedule = LimitSchedule(4, 10)
    norm_limit_estimate(rank1_half, np.arange(1.0, 6.0), schedule)
    assert sum(columns) <= 10 * (len(schedule.radii) + 1)


def test_pointwise_defect_examples(h2, rank1_half, rng):
    z = np.array([0.0, 1.0])
    for lam in random_interior(rng, 5):
        lhs, rhs = pointwise_defect(rank1_half, z, complex(lam))
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert rhs == pytest.approx(1.0, abs=1e-10)
        lhs0, rhs0 = pointwise_defect(h2, rng.normal(size=5), complex(lam))
        assert abs(lhs0) < 1e-10 and rhs0 == 0.0


def test_pointwise_defect_across_five_spaces(h2, rank1_half, cusp, d_origin,
                                             d_pair, rng):
    for space in (h2, rank1_half, cusp, d_origin, d_pair):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        scale = 1.0 + space.poly_norm_sq(f)
        pair = space.embed(f)
        for lam in random_interior(rng, 20):
            lhs, rhs = pointwise_defect(space, f, complex(lam))
            assert abs(lhs - rhs) <= 1e-6 * scale
            # the batched f_1(lam) against Horner per row, within its rounding bound
            ref = np.array([horner(row, lam) for row in pair.companions])
            bound = 4 * f.size * np.finfo(float).eps * (np.abs(pair.companions)
                                                        @ np.abs(lam) ** np.arange(f.size))
            assert np.all(np.abs(pair.companion_at(lam) - ref) <= bound)


def test_pointwise_defect_kernel_at_origin(rank1_half, rng):
    mu = complex(random_interior(rng, 1)[0])
    k = rank1_half.kernel_taylor(mu).taylor(rank1_half.degree)
    lhs, rhs = pointwise_defect(rank1_half, k, 0.0)
    # companion of the kernel at the origin is -A(0) conj(b(mu))
    target = abs(mu) ** 2 / 4.0
    assert rhs == pytest.approx(target, rel=1e-10)
    assert abs(lhs - rhs) <= 1e-6 * (1.0 + rank1_half.poly_norm_sq(k))


def test_pointwise_defect_dirichlet(d_pair, rng):
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    for lam in random_interior(rng, 5):
        lhs, rhs = pointwise_defect(d_pair, f, complex(lam))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_wandering_norm_tends_to_zero(h2, rank1_half, inner_space):
    z = np.array([0.0, 1.0])
    est = wandering_norm(rank1_half, z, LimitSchedule(4, 9))
    vals = est.values
    assert vals[-1] < 1e-2
    assert vals[-1] < vals[0]
    ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
    assert all(0.4 < r < 0.6 for r in ratios)  # O(1 - r) decay
    assert wandering_norm(h2, z, LimitSchedule(4, 9)).final < 1e-2
    assert wandering_norm(inner_space, np.array([1.0]), LimitSchedule(4, 6)).final == 0.0


def test_norm_identity_deviation_split(inner_space, h2, rank1_half, rng):
    assert norm_identity_deviation(inner_space, [np.array([1.5])]) < 1e-12
    polys = [rng.normal(size=6) for _ in range(5)]
    assert norm_identity_deviation(h2, polys) < 1e-10
    dev = norm_identity_deviation(rank1_half, [np.array([0.0, 1.0])])
    assert dev == pytest.approx(1.0, abs=1e-10)
    assert dev >= 0.5


def test_mz_verdicts():
    assert mz_test(rank1_half_symbol(512)).invariant
    report = mz_test(cusp_symbol(512))
    assert report.invariant
    assert abs(report.log_estimate + 2.0 * np.log(2.0)) < 1e-12
    assert not mz_test(inner_symbol(512)).invariant


def _fine_defect(rows, n_grid=1 << 16):
    """1 - sum |b_i|^2 on 2^16 circle points, independent of the defect split."""
    samples = np.fft.ifft(np.atleast_2d(rows), n=n_grid, axis=1) * n_grid
    return 1.0 - np.sum(np.abs(samples) ** 2, axis=0)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_exact_verdicts_agree_with_a_fine_minimum(rank):
    # seeded rows at sup 0.5, 0.9, touching 1 and crossing it (1.1): the
    # contraction, admits and invariance verdicts against a 2^16-point minimum
    rng = np.random.default_rng(40 + rank)
    for sup in (0.5, 0.9, 1.0, 1.1):
        rows = scaled_row(rng, rank, sup)
        d = _fine_defect(rows)
        if np.min(d) < -1e-10:
            with pytest.raises(InvariantViolation, match="not a contraction"):
                RowSymbol(list(rows))
            continue
        symbol = RowSymbol(list(rows))
        report = mz_test(symbol)
        assert report.invariant == bool(np.max(np.abs(d)) > 1e-12)
        if not report.invariant:
            continue
        rc = reverse_carleson(SpaceHandle(symbol, n_grid=1024))
        assert rc.admits == bool(np.min(d) > 1e-6), (rank, sup, np.min(d))
        assert rc.admits == np.isfinite(rc.constant)
        if rc.admits:  # log d and 1 / d are smooth, so grid means are spectrally accurate
            assert abs(report.log_estimate - np.mean(np.log(d))) <= 1e-12
            assert rc.constant == pytest.approx(np.mean(1.0 / d), rel=1e-13)


def test_odd_root_row_is_refused():
    d = _fine_defect(ODD_ROOT_ROW)
    assert np.min(d) < -0.2 and np.max(d) > 0.9  # d changes sign on the circle
    with pytest.raises(InvariantViolation, match="not a contraction"):
        RowSymbol(ODD_ROOT_ROW)


def test_hardy_space_verdicts(h2):
    report = mz_test(h2_symbol())
    assert report.invariant and report.conclusive
    assert report.log_estimate == 0.0
    assert reverse_carleson(h2).admits


def test_mz_truncated_symbols_flagged():
    sym = weighted_space_symbol(np.arange(1.0, 40.0), degree=12, n_boundary=512)
    report = mz_test(sym)
    assert not report.conclusive
    assert "truncated" in report.note


def test_reverse_carleson_hardy(h2):
    rc = reverse_carleson(h2)
    assert rc.applicable and rc.admits
    assert np.max(np.abs(rc.h2 - 1.0)) < 1e-4
    assert np.max(np.abs(rc.g - 1.0)) < 1e-12


def test_reverse_carleson_rank_one(rank1_half):
    rc = reverse_carleson(rank1_half)
    assert rc.admits
    assert np.max(np.abs(rc.h2 - 2.0)) < 1e-4
    assert np.max(np.abs(rc.h2 - rc.g)) < 1e-4
    # the Szego density is lam-independent for a rotation-invariant symbol
    h1 = rank1_half.szego_density(rc.radius_h2 * rc.lam)
    assert np.max(np.abs(h1 - h1[0])) < 1e-10
    assert rc.radius_h2 == 1.0 - 2.0 ** -16


def test_reverse_carleson_cusp_does_not_admit(cusp):
    rc = reverse_carleson(cusp)
    assert rc.applicable
    assert not rc.admits  # 1 / sin^2 is not integrable


def test_near_circle_pair_of_a_positive_defect_admits():
    # b = c z (1 + z) / 2 with c^2 = 1 - 1e-11: d = 1 - c^2 cos^2(theta / 2) has
    # minimum 1e-11 at theta = 0, where its root pair sits within the circle
    # tolerance; 1 / d is integrable, so a reverse-Carleson measure exists
    c = np.sqrt(1.0 - 1e-11)
    symbol = RowSymbol([[0.0, c / 2, c / 2]])
    assert laurent_values(symbol.defect.laurent, np.zeros(1))[0] == pytest.approx(1e-11, rel=1e-6)
    assert symbol.defect.circle_roots.size == 0
    space = SpaceHandle(symbol, n_grid=1024)
    rc = reverse_carleson(space)
    assert rc.admits
    # 1 / d = 1 / (alpha - beta cos(theta)) has mean (alpha^2 - beta^2)^(-1/2),
    # alpha = 1 - 2 h^2, beta = 2 h^2 for the stored h = c / 2; the step-down
    # loses eps / (1 - |k_q|) to the near-circle root, ~4e-11 here
    exact = 1.0 / np.sqrt(float(1 - 4 * Fraction(c / 2) ** 2))
    assert rc.constant == pytest.approx(exact, rel=1e-9)
    assert mz_test(symbol).invariant
    assert space.defect_identity_residual() <= 1e-12


def test_reverse_carleson_constant_density_second_example():
    from hbspace.model import SpaceHandle

    space = SpaceHandle(weighted_space_symbol([1.0, 4.0, 4.0], n_boundary=1024),
                        n_grid=1024)
    rc = reverse_carleson(space)
    assert rc.constant == pytest.approx(4.0, rel=1e-12)
    assert np.max(np.abs(rc.g - 4.0)) < 1e-12


def test_reverse_carleson_cusp_rate(cusp):
    # near its boundary zero the kernel density approaches the limit only at
    # rate O((1 - r) g^2); check the documented halving per radius level
    lam = np.exp(1.2j)  # away from the zero at angle 0: g ~ 3.2
    g = 1.0 / (np.sin(1.2 / 2.0) ** 2)
    errs = []
    for k in (10, 11, 12):
        r = 1.0 - 2.0 ** -k
        h2_val = 1.0 / ((1.0 - r ** 2) * cusp.kernel(r * lam, r * lam).real)
        errs.append(abs(h2_val - g))
    assert errs[2] < errs[1] < errs[0]
    assert 0.3 < errs[1] / errs[0] < 0.7
    assert 0.3 < errs[2] / errs[1] < 0.7


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted"])
def test_reverse_carleson_h1_meets_g_at_the_deep_radius(name, request):
    space = request.getfixturevalue(name)
    rc = reverse_carleson(space)
    assert rc.radius_h2 == 1.0 - 2.0 ** -16
    h1 = space.szego_density(rc.radius_h2 * rc.lam)
    ok = np.isfinite(rc.g) & (rc.g <= 20.0)
    assert np.max(np.abs(h1[ok] - rc.g[ok]) / rc.g[ok]) <= 1e-3


def test_reverse_carleson_cusp_h1_is_exact(cusp):
    # b = z (1 + z) / 2 and a = (1 - z) / 2 give h1(w) = 1 + |w (1 + w) / (1 - w)|^2;
    # a degree-256 embed of the Szego kernel was 2.7e-7 off at this radius
    w = 0.9375 * np.exp(2j * np.pi * np.arange(64) / 64)
    exact = 1.0 + np.abs(w * (1.0 + w) / (1.0 - w)) ** 2
    assert np.max(np.abs(cusp.szego_density(w) - exact) / exact) <= 1e-12


def test_reverse_carleson_dirichlet_kernel_stays_resolved(d_origin, rank1_half):
    # D(delta_0) = H(z / sqrt(2)); the degree-128 kernel is evaluated only
    # where degree * (1 - r) >= 16, so h2 must match the symbol route there
    rc = reverse_carleson(d_origin)
    r = rc.radius_h2
    assert r == 1.0 - 2.0 ** -3
    w = r * rc.lam
    ref = 1.0 / ((1.0 - r ** 2) * rank1_half.kernel_diagonal(w))
    assert np.max(np.abs(rc.h2 - ref)) <= 1e-12
    assert np.max(np.abs(d_origin.szego_density(w) - rank1_half.szego_density(w))) <= 1e-12
    assert rc.constant == pytest.approx(reverse_carleson(rank1_half).constant, rel=1e-12)


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted",
                                  "ddelta", "d_origin", "d_pair"])
def test_reverse_carleson_h2_is_the_gram_diagonal(name, request):
    # h2 reads kernel diagonals without a Gram; they must equal the Gram's diagonal
    space = request.getfixturevalue(name)
    rc = reverse_carleson(space)
    for r in (1.0 - 2.0 ** -3, 1.0 - 2.0 ** -6, 1.0 - 2.0 ** -16):
        diagonal = np.diagonal(space.gram(r * rc.lam)).real
        assert np.max(np.abs(space.kernel_diagonal(r * rc.lam) - diagonal) / diagonal) <= 1e-14
    r = rc.radius_h2
    ref = 1.0 / ((1.0 - r ** 2) * np.diagonal(space.gram(r * rc.lam)).real)
    assert np.max(np.abs(rc.h2 - ref) / ref) <= 1e-14


def test_reverse_carleson_inapplicable_for_inner(inner_space):
    rc = reverse_carleson(inner_space)
    assert not rc.applicable
    assert "inapplicable" in rc.note


@pytest.mark.parametrize("name, exact", [("h2", 1.0), ("rank1_half", 2.0), ("two_term", 4.0),
                                         ("weighted", 3.0), ("d_pair", 11.0 / 3.0)])
def test_reverse_carleson_constant_closed_forms(name, exact, request):
    # 1 / d is constant on these monomial rows; atoms c_i at z_i give
    # 1 + sum c_i / (1 - |z_i|^2)
    rc = reverse_carleson(request.getfixturevalue(name))
    assert rc.admits
    assert rc.constant == pytest.approx(exact, rel=1e-12)


def test_reverse_carleson_constant_of_a_two_term_row():
    rows = [[0.0, 0.3, 0.2], [0.0, 0.0, 0.4]]
    trapezoid = float(np.mean(1.0 / _fine_defect(rows, 1 << 14)))
    assert trapezoid == pytest.approx(1.4290089472673804, rel=1e-14)
    rc = reverse_carleson(SpaceHandle(RowSymbol(rows)))
    assert rc.admits
    assert rc.constant == pytest.approx(trapezoid, rel=1e-12)


def test_reverse_carleson_without_a_measure_has_no_constant(cusp, ddelta):
    for space in (cusp, ddelta, SpaceHandle(RowSymbol(RANK2_EXAMPLE))):
        rc = reverse_carleson(space)
        assert rc.applicable and not rc.admits
        assert rc.constant == np.inf


@pytest.mark.parametrize("name, with_kernel", [("rank1_half", True), ("two_term", True),
                                               ("weighted", True), ("d_pair", False)])
def test_reverse_carleson_radial_profile_rises_to_the_constant(name, with_kernel, request):
    # the Szego density and h2 are subharmonic, so their circle means rise with
    # r toward the boundary mean of 1 / d; the Dirichlet kernel is a
    # degree-truncated one past r = 0.875, so there only the Szego density is read
    space = request.getfixturevalue(name)
    rc = reverse_carleson(space)
    radii = 1.0 - 2.0 ** -np.arange(4, 13)
    w = radii[:, None] * rc.lam
    profiles = [np.mean(space.szego_density(w), axis=1)]
    if with_kernel:
        h2 = 1.0 / ((1.0 - radii[:, None] ** 2) * space.kernel_diagonal(w))
        profiles.append(np.mean(h2, axis=1))
    for means in profiles:
        assert np.all(np.diff(means) >= 0.0)
        assert np.all(means <= rc.constant)
        assert means[-1] >= (1.0 - 1e-2) * rc.constant


def test_dirichlet_carleson_origin():
    rep = dirichlet_reverse_carleson(MeasureSpec(atoms=[(0.0, 1.0)]))
    assert rep.admits and rep.integral == pytest.approx(1.0)
    assert np.max(np.abs(rep.h - 2.0)) == 0.0


def test_dirichlet_carleson_boundary_atom_diverges():
    rep = dirichlet_reverse_carleson(MeasureSpec(atoms=[(1.0, 1.0)]))
    assert not rep.admits


def test_dirichlet_carleson_weighted_interior_atom():
    rep = dirichlet_reverse_carleson(MeasureSpec(atoms=[(0.5, 0.5)]))
    assert rep.admits
    for lam in rep.lam[:8]:
        expected = 1.0 + 0.5 / abs(1.0 - np.conj(lam) * 0.5) ** 2
        assert rep.h_at(lam) == pytest.approx(expected, rel=1e-14)
    assert np.max(np.abs(rep.h - np.array([rep.h_at(l) for l in rep.lam]))) < 1e-12


def test_cauchy_dual_examples():
    assert np.allclose(cauchy_dual(np.eye(6)), np.eye(6))
    k = np.arange(8)
    bergman = np.diag(1.0 / (k + 1.0))
    assert np.array_equal(np.diagonal(cauchy_dual(bergman)).real, k + 1.0)
    dyadic = np.diag(2.0 ** -k)
    assert np.allclose(np.diagonal(cauchy_dual(dyadic)).real, 2.0 ** k)


def test_cauchy_dual_refuses_non_finite_and_zero_weights():
    with pytest.raises(ValueError, match="non-finite"):
        cauchy_dual(np.diag([1.0, np.nan, 0.3]))
    with pytest.raises(ValueError, match="positive"):
        cauchy_dual(np.diag([1.0, 0.5, 0.0]))


def test_cauchy_dual_guards():
    with pytest.raises(NotImplementedError):
        cauchy_dual(np.array([[1.0, 0.1], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        cauchy_dual(np.diag([1.0, 2.0]))  # increasing weights are not contractive
    with pytest.raises(ValueError):
        cauchy_dual(np.diag([2.0, 1.0]))  # normalization violated


def test_shift_intertwine_residual():
    assert shift_intertwine_residual(64) <= 1e-12


def test_norm_limit_on_dirichlet_space(d_pair, rng):
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    est = norm_limit_estimate(d_pair, f, LimitSchedule(4, 9))
    target = d_pair.poly_norm_sq(f)
    assert abs(est.final - target) / target < 2e-2


@pytest.mark.parametrize("name", ["h2", "rank1_half", "cusp", "two_term", "weighted",
                                  "inner_space", "d_origin", "d_pair"])
def test_pointwise_defect_form_is_the_two_norm_difference(name, request, rng):
    # one form on the monomial Gram, against ||z q||^2 - ||q||^2 by two norms
    space = request.getfixturevalue(name)
    for size in (1, 3, 7):
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        for lam in random_interior(rng, 4):
            q = divided_difference(f, complex(lam))
            old = space.poly_norm_sq(shift_up(q)) - space.poly_norm_sq(q)
            lhs, _ = pointwise_defect(space, f, complex(lam))
            assert abs(lhs - old) <= 1e-13 * (1.0 + space.poly_norm_sq(f))
