"""End-to-end acceptance checks.

Each criterion is a callable returning a CriterionResult with its stated
tolerance pinned in code; ``run_all`` executes the lot in order.  The pytest
acceptance module and the command-line ``suite`` subcommand both run through
this registry, printing one pass/fail line per criterion.
"""

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import (
    cauchy_dual,
    dirichlet_reverse_carleson,
    mz_test,
    norm_identity_deviation,
    norm_limit_estimate,
    pointwise_defect,
    reverse_carleson,
    shift_intertwine_residual,
)
from .catalog import (
    cusp_symbol,
    dirichlet_half,
    dirichlet_pair,
    dirichlet_origin,
    h2_symbol,
    inner_symbol,
    rank1_half_symbol,
)
from .harmonic import DiskFunction, grid_points
from .model import SpaceHandle
from .spectral import matrix_outer_factor
from .subspaces import (
    BlaschkeProduct,
    backward_invariance_residual,
    intersect_model_space,
    nearly_invariant_norm,
    poly_density_residual,
)
from .symbols import MeasureSpec, RowSymbol, estimate_rank

SEED = 20240613
_N_GRID = 1024


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid:02d} {self.name}: {self.detail} ({self.elapsed:.2f}s)"


@lru_cache(maxsize=1)
def _spaces():
    two = RowSymbol([
        DiskFunction([0.0, 1.0 / np.sqrt(2.0)], n_boundary=_N_GRID),
        DiskFunction([0.0, 0.0, 0.5], n_boundary=_N_GRID),
    ])
    return {
        "h2": SpaceHandle(h2_symbol(), n_grid=_N_GRID),
        "rank1-half": SpaceHandle(rank1_half_symbol(_N_GRID), n_grid=_N_GRID),
        "cusp": SpaceHandle(cusp_symbol(_N_GRID), n_grid=_N_GRID),
        "two-term": SpaceHandle(two, n_grid=_N_GRID),
        "dirichlet-half": dirichlet_half(),
        "dirichlet-pair": dirichlet_pair(),
        "dirichlet-origin": dirichlet_origin(),
    }


def _random_points(rng, count, radius=0.9):
    return rng.uniform(0.05, radius, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))


def criterion_01(quick=False) -> tuple[bool, str]:
    """Kernel positivity on five example spaces."""
    rng = np.random.default_rng(SEED)
    worst = -np.inf
    for name in ("h2", "rank1-half", "cusp", "dirichlet-half", "dirichlet-pair"):
        space = _spaces()[name]
        pts = _random_points(rng, 50)
        g = space.gram(pts)
        floor = -1e-10 * float(np.trace(g).real)
        low = float(np.linalg.eigvalsh(g)[0])
        worst = max(worst, low / abs(floor))
        if low < floor:
            return False, f"{name}: min eigenvalue {low:.3e} below {floor:.3e}"
    return True, f"all Grams PSD (worst margin ratio {worst:.3f} of the floor)"


def criterion_02(quick=False) -> tuple[bool, str]:
    """Model isometry against the closed-form kernel diagonal."""
    rng = np.random.default_rng(SEED + 2)
    hb = _spaces()["rank1-half"]
    lams = _random_points(rng, 20)
    worst = 0.0
    for lam in lams:
        target = (2.0 - abs(lam) ** 2) / (2.0 * (1.0 - abs(lam) ** 2))
        value = hb.embed(hb.kernel_taylor(lam)).norm_sq
        worst = max(worst, abs(value - target) / target)
    if worst > 1e-12:
        return False, f"kernel-norm identity off by {worst:.3e} (tol 1e-12)"
    worst_combo = 0.0
    for name in ("h2", "rank1-half", "cusp"):
        space = _spaces()[name]
        pts = _random_points(rng, 8)
        coeff = rng.normal(size=8) + 1j * rng.normal(size=8)
        g = space.gram(pts)
        target = float(np.real(np.vdot(coeff, g @ coeff)))
        combo = sum(c * space.kernel_taylor(lam) for c, lam in zip(coeff, pts))
        value = space.embed(combo).norm_sq
        worst_combo = max(worst_combo, abs(value - target) / target)
    passed = worst_combo <= 1e-12
    return passed, (f"kernel diag rel err {worst:.2e} (tol 1e-12); "
                    f"combination rel err {worst_combo:.2e} (tol 1e-12)")


def criterion_03(quick=False) -> tuple[bool, str]:
    """Spectral factorization residuals and the scalar reconstruction."""
    worst = 0.0
    for name in ("rank1-half", "cusp", "two-term"):
        space = _spaces()[name]
        res = space.defect_identity_residual()
        worst = max(worst, res)
    if worst > 1e-8:
        return False, f"defect identity residual {worst:.3e} exceeds 1e-8"
    zeta = grid_points(_N_GRID)
    phi = np.abs(1.0 - zeta / 2.0) ** 2
    report = matrix_outer_factor(phi)
    coeffs = report.symbol.coeffs[:, 0, 0]
    target = np.zeros_like(coeffs)
    target[:2] = [1.0, -0.5]
    err = float(np.max(np.abs(coeffs - target)))
    passed = err <= 1e-10
    return passed, (f"max factor residual {worst:.2e} (tol 1e-8); "
                    f"scalar reconstruction error {err:.2e} (tol 1e-10, "
                    f"method {report.method})")


def criterion_04(quick=False) -> tuple[bool, str]:
    """Embedding exactness: companions of z and of the constant."""
    hb = _spaces()["rank1-half"]
    pair = hb.embed(np.array([0.0, 1.0]))
    target = np.zeros(pair.companions.shape[1], dtype=complex)
    target[0] = -1.0
    err_z = float(np.max(np.abs(pair.companions[0] - target)))
    if err_z > 1e-10:
        return False, f"companion of z off by {err_z:.3e}"
    worst = 0.0
    for name in ("h2", "rank1-half", "cusp", "two-term", "dirichlet-half", "dirichlet-pair"):
        p = _spaces()[name].embed(np.array([1.0]))
        worst = max(worst, p.residual, float(np.max(np.abs(p.companions), initial=0.0)))
    passed = worst <= 1e-12
    return passed, (f"companion of z error {err_z:.2e} (tol 1e-10); "
                    f"companions of 1 bounded by {worst:.2e}")


def criterion_05(quick=False) -> tuple[bool, str]:
    """Radial norm formula, pointwise defect identity, nearly-invariant formula."""
    hb = _spaces()["rank1-half"]
    z = np.array([0.0, 1.0])
    est = norm_limit_estimate(hb, z)
    rel = abs(est.final - 2.0) / 2.0
    if rel > 1e-12:
        return False, f"norm-formula limit {est.final:.15g} off 2.0 by {rel:.3e}"
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for lam in _random_points(rng, 20):
        lhs, rhs = pointwise_defect(hb, z, lam)
        worst = max(worst, abs(lhs - rhs) / (1.0 + hb.poly_norm_sq(z)))
    f = np.concatenate([[0.0], rng.normal(size=6) + 1j * rng.normal(size=6)])
    nearly = max(abs(nearly_invariant_norm(s, None, f).final / s.poly_norm_sq(f) - 1.0)
                 for s in (_spaces()["cusp"], _spaces()["dirichlet-pair"]))
    passed = worst <= 1e-6 and nearly <= 1e-12
    return passed, (f"limit at r = 1: {est.final:.15g} (rel err {rel:.2e}); "
                    f"pointwise identity off {worst:.2e}; nearly-invariant formula "
                    f"off {nearly:.2e} on cusp and dirichlet-pair (tol 1e-12)")


def criterion_06(quick=False) -> tuple[bool, str]:
    """Reverse-Carleson constant and density, and the Dirichlet corollary."""
    rc = reverse_carleson(_spaces()["rank1-half"])
    err_constant = abs(rc.constant - 2.0) / 2.0
    err_g = float(np.max(np.abs(rc.g - 2.0))) / 2.0
    d = dirichlet_reverse_carleson(MeasureSpec(atoms=[(0.0, 1.0)]))
    exact = d.admits and float(np.max(np.abs(d.h - 2.0))) == 0.0
    passed = rc.admits and max(err_constant, err_g) <= 1e-12 and exact
    return passed, (f"constant {rc.constant:.16g} (rel err {err_constant:.2e}, tol 1e-12); "
                    f"g off 2 by {err_g:.2e}; origin measure admits with h = 2 exactly: {exact}")


def criterion_07(quick=False) -> tuple[bool, str]:
    """Forward-shift invariance verdicts, exact from the defect's coefficients."""
    expectations = {
        "rank1-half": (rank1_half_symbol(_N_GRID), True),
        "cusp": (cusp_symbol(_N_GRID), True),
        "inner": (inner_symbol(_N_GRID), False),
    }
    for name, (symbol, expect) in expectations.items():
        verdict = mz_test(symbol)
        if verdict.invariant is not expect:
            return False, f"{name}: got {verdict.invariant}, want {expect}"
    return True, "verdicts (True, True, False), exact from the defect's coefficients"


def criterion_08(quick=False) -> tuple[bool, str]:
    """Polynomial density: monotone residuals, fast decay for a kernel."""
    hb = _spaces()["rank1-half"]
    h2 = _spaces()["h2"]
    degs = list(range(0, 25, 2))
    res_a = poly_density_residual(hb, hb.kernel_taylor(0.5), degs)
    res_b = poly_density_residual(h2, np.array([0.0, 1.0]), [0, 1, 2])
    mono = bool(np.all(np.diff(res_a.residuals) <= 0)
                and np.all(np.diff(res_b.residuals) <= 0))
    if not mono:
        return False, "residual sequence increased"
    final = float(res_a.residuals[-1])
    passed = final <= 1e-3
    return passed, f"sequences nonincreasing; kernel residual at degree 24 = {final:.2e} (tol 1e-3)"


def criterion_09(quick=False) -> tuple[bool, str]:
    """Shift norm identity separates the isometric and expansive regimes."""
    inner1 = SpaceHandle(inner_symbol(_N_GRID), n_grid=_N_GRID)
    inner2 = SpaceHandle(RowSymbol([DiskFunction([0, 0, 1.0], n_boundary=_N_GRID)]),
                         n_grid=_N_GRID)
    dev_inner = max(
        norm_identity_deviation(inner1, [np.array([1.0]), np.array([2.0 - 1.0j])]),
        norm_identity_deviation(inner2, [np.array([1.0, 0.5j]), np.array([0.0, 1.0])]),
    )
    if dev_inner > 1e-10:
        return False, f"inner-symbol deviation {dev_inner:.3e} exceeds 1e-10"
    hb = _spaces()["rank1-half"]
    dev_hb = norm_identity_deviation(hb, [np.array([0.0, 1.0])])
    passed = abs(dev_hb - 1.0) <= 1e-10
    return passed, (f"inner deviation {dev_inner:.2e} (tol 1e-10); "
                    f"expansive deviation {dev_hb:.12f} (want 1.0 +- 1e-10)")


def criterion_10(quick=False) -> tuple[bool, str]:
    """Averaging unitary intertwines the shifts; duality swaps the weights."""
    res = shift_intertwine_residual(64)
    if res > 1e-12:
        return False, f"intertwining residual {res:.3e} exceeds 1e-12"
    k = np.arange(32)
    dual = cauchy_dual(np.diag(1.0 / (k + 1.0)))
    exact = bool(np.array_equal(np.diagonal(dual).real, (k + 1.0)))
    passed = exact
    return passed, f"intertwining residual {res:.2e} (tol 1e-12); dual weights exact: {exact}"


def criterion_11(quick=False) -> tuple[bool, str]:
    """Numerical shift-defect rank: 0, 1 and 2 on the reference spaces."""
    expectations = [
        ("h2", _spaces()["h2"], 0),
        ("rank1-half", _spaces()["rank1-half"], 1),
        ("dirichlet-pair", _spaces()["dirichlet-pair"], 2),
    ]
    degrees = (24,) if quick else (24, 48)
    for name, space, expect in expectations:
        for d in degrees:
            got = estimate_rank(space.monomial_gram(d))
            if got != expect:
                return False, f"{name} at Gram degree {d}: rank {got}, want {expect}"
    return True, "ranks (0, 1, 2) stable under Gram-degree doubling"


def criterion_12(quick=False) -> tuple[bool, str]:
    """Backward-shift invariance of model-space intersections."""
    cases = [
        ("h2", BlaschkeProduct([0.0, 0.0])),
        ("h2", BlaschkeProduct([0.5])),
        ("rank1-half", BlaschkeProduct([0.0, 0.0])),
        ("rank1-half", BlaschkeProduct([0.5, -0.3])),
    ]
    worst = 0.0
    for name, theta in cases:
        space = _spaces()[name]
        basis = intersect_model_space(space, theta)
        if basis.dim != theta.degree:
            return False, f"{name}/{theta.zeros}: dim {basis.dim} != {theta.degree}"
        worst = max(worst, backward_invariance_residual(space, basis))
    passed = worst <= 1e-12
    return passed, f"max projection residual {worst:.2e} over 4 pairs (tol 1e-12)"


_REGISTRY = [
    ("kernel-positivity", criterion_01),
    ("model-isometry", criterion_02),
    ("spectral-factorization", criterion_03),
    ("embedding-exactness", criterion_04),
    ("norm-formula", criterion_05),
    ("reverse-carleson", criterion_06),
    ("mz-invariance", criterion_07),
    ("polynomial-density", criterion_08),
    ("norm-identity-split", criterion_09),
    ("bergman-dirichlet-unitary", criterion_10),
    ("rank-estimation", criterion_11),
    ("subspace-invariance", criterion_12),
]


def criterion_count() -> int:
    return len(_REGISTRY)


def run_criterion(index: int, quick: bool = False) -> CriterionResult:
    name, fn = _REGISTRY[index - 1]
    start = time.perf_counter()
    try:
        passed, detail = fn(quick=quick)
    except Exception as exc:  # a crash is a failure with the traceback head
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail, time.perf_counter() - start)


def run_all(quick: bool = False, echo=None) -> list[CriterionResult]:
    results = []
    for i in range(1, criterion_count() + 1):
        result = run_criterion(i, quick=quick)
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
