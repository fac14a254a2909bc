"""Numerical verification of the structural identities of these spaces.

Everything here is phrased against a "space" object exposing
``poly_norm_sq``, ``norm``, ``companions_at``, ``kernel``,
``kernel_diagonal``, ``szego_density`` and ``mz_invariant`` (both the
factored symbol handles and the embedded Dirichlet-type spaces qualify).
The shift quantities are exact polynomial coefficient operations, and so are
the radial limits of the norm formula and the wandering norm.  The boundary
verdicts, forward-shift invariance and the existence of a reverse-Carleson
measure, are read off the defect split that a row symbol takes at
validation, so no boundary diagnostic samples a grid.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .series import as_coeffs, divided_difference, h2_norm_sq, shift_down, shift_up
from .spectral import laurent_values
from .symbols import MeasureSpec, RowSymbol


@dataclass
class LimitSchedule:
    """Radii r_k = 1 - 2**-k, k = k_min..k_max, of a radial convergence table."""

    k_min: int = 4
    k_max: int = 10

    def __post_init__(self):
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ConfigError("need 1 <= k_min <= k_max")

    @property
    def radii(self) -> list[float]:
        return [1.0 - 2.0 ** (-k) for k in range(self.k_min, self.k_max + 1)]


def _divided_difference_all(c: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Columns are the coefficients of (f - f(eta)) / (z - eta), one per eta;
    ``c`` is one polynomial or a matrix holding one polynomial column per eta."""
    d = c.shape[0] - 1
    if d < 1:
        return np.zeros((1, etas.size), dtype=complex)
    q = np.empty((d, etas.size), dtype=complex)
    acc = np.zeros(etas.size, dtype=complex)
    for k in range(d, 0, -1):
        acc = c[k] + etas * acc
        q[k - 1] = acc
    return q


def _has_gram(space) -> bool:
    """False where the Hardy norm is the space norm: the inner mode and H^2 (n = 0)."""
    return getattr(space, "mode", "analytic") != "inner" and space.n != 0


def _column_norms(space, mat: np.ndarray) -> np.ndarray:
    """Space norms squared of the polynomial columns of ``mat``."""
    if not _has_gram(space):
        return np.sum(np.abs(mat) ** 2, axis=0)
    g = space.monomial_gram(mat.shape[0] - 1)
    return np.einsum("am,am->m", np.conj(mat), g @ mat).real


def _shift_defects(space, mat: np.ndarray) -> np.ndarray:
    """||z q||^2 - ||q||^2 for the polynomial columns q of ``mat``: the form
    of G[1:, 1:] - G[:-1, :-1], G the monomial Gram; 0 where z is isometric."""
    if not _has_gram(space):
        return np.zeros(mat.shape[1])
    g = space.monomial_gram(mat.shape[0])
    return np.einsum("am,am->m", np.conj(mat), (g[1:, 1:] - g[:-1, :-1]) @ mat).real


@dataclass
class LimitEstimate:
    rows: list[tuple[float, float]]
    final: float
    extrapolated: float | None

    @property
    def values(self):
        return [v for _, v in self.rows]


def _richardson(rows) -> float | None:
    if len(rows) < 2:
        return None
    (r1, v1), (r2, v2) = rows[-2], rows[-1]
    h1, h2 = 1.0 - r1, 1.0 - r2
    return float((h1 * v2 - h2 * v1) / (h1 - h2))


def _radial_limit(schedule: LimitSchedule | None, m: int,
                  integrand) -> tuple[LimitEstimate, np.ndarray]:
    """Circle means of ``integrand(r, lam)`` at the schedule radii (the rows)
    and at r = 1 (``final``) on one matrix of nodes lam = r w, w the m-th
    roots of unity (``r`` and ``lam`` flat, radius by radius), and the
    integrand's values on the r = 1 nodes.

    For f of degree d the norm-formula and wandering-norm integrands are
    trigonometric polynomials in lam of degree <= d - 1, so their means on
    m = 2d + 2 nodes (an empty vector is the zero polynomial) are exact at
    every radius, r = 1 included.
    """
    radii = np.array([*(schedule or LimitSchedule()).radii, 1.0])
    r = np.repeat(radii, m)
    lam = (radii[:, None] * np.exp(2j * np.pi * np.arange(m) / m)).ravel()
    values = integrand(r, lam).reshape(radii.size, m)
    means = values.mean(axis=1)
    rows = [(float(rk), float(v)) for rk, v in zip(radii[:-1], means[:-1])]
    return LimitEstimate(rows, float(means[-1]), _richardson(rows)), values[-1]


def norm_limit_estimate(space, coeffs, schedule: LimitSchedule | None = None) -> LimitEstimate:
    """The squared space norm through the shift formula:
    ||f||_2^2 + mean over the circle of ||z L_{r lam} f||^2 - r^2 ||L_{r lam} f||^2,
    at each schedule radius and, as ``final``, exactly at r = 1.
    """
    c = as_coeffs(coeffs)
    base = h2_norm_sq(c)

    def integrand(r, lam):
        q = _divided_difference_all(c, lam)
        return base + _shift_defects(space, q) + (1.0 - r ** 2) * _column_norms(space, q)
    return _radial_limit(schedule, 2 * max(c.size, 1), integrand)[0]


def pointwise_defect(space, coeffs, lam) -> tuple[float, float]:
    """Both sides of the pointwise identity
    ||z L_lam f||^2 - ||L_lam f||^2 = ||f_1(lam)||^2."""
    c = as_coeffs(coeffs)
    q = divided_difference(c, lam)
    lhs = space.poly_norm_sq(shift_up(q)) - space.poly_norm_sq(q)
    rhs = float(np.sum(np.abs(space.companions_at(c, lam)) ** 2))
    return float(lhs), rhs


def wandering_norm(space, coeffs, schedule: LimitSchedule | None = None) -> LimitEstimate:
    """(1 - r^2) * mean ||L_{r lam} f||^2 at each schedule radius; ``final``,
    its value at r = 1, is exactly 0: a polynomial has no unitary part."""
    c = as_coeffs(coeffs)
    return _radial_limit(schedule, 2 * max(c.size, 1), lambda r, lam: (1.0 - r ** 2)
                         * _column_norms(space, _divided_difference_all(c, lam)))[0]


def backward_iterates(space, coeffs, n_max: int) -> np.ndarray:
    """Norms of successive backward shifts; nonincreasing by contractivity."""
    c = as_coeffs(coeffs)
    out = np.empty(n_max + 1)
    for k in range(n_max + 1):
        out[k] = float(np.sqrt(max(space.poly_norm_sq(c), 0.0)))
        c = shift_down(c)
    return out


def norm_identity_deviation(space, members) -> float:
    """max over the sample of | ||Lf||^2 - (||f||^2 - |f(0)|^2) |."""
    worst = 0.0
    for coeffs in members:
        c = as_coeffs(coeffs)
        lhs = space.poly_norm_sq(shift_down(c))
        rhs = space.poly_norm_sq(c) - abs(c[0]) ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass
class MzReport:
    invariant: bool
    conclusive: bool
    log_estimate: float | None
    note: str = ""

    def __bool__(self):
        return self.invariant


def mz_test(symbol: RowSymbol) -> MzReport:
    """Forward-shift invariance: log d is integrable, d = 1 - sum |b_i|^2 on
    the circle.

    d is a nonnegative trigonometric polynomial, so log d is integrable iff
    d is not identically zero, and by Jensen its mean is log_estimate =
    2 log a(0), with a the outer factor of the symbol's defect split
    (Sarason, Sub-Hardy Hilbert Spaces in the Unit Disk, 1994, ch. IV-V).
    The verdict is conclusive unless the symbol is a truncation.
    """
    a = symbol.defect.outer
    note = ""
    if symbol.truncated:
        note = "truncated symbol: verdict not conclusive for the full space"
    log_estimate = None if a is None else float(2.0 * np.log(a[0].real))
    return MzReport(a is not None, not symbol.truncated, log_estimate, note)


def cauchy_dual(gram: np.ndarray) -> np.ndarray:
    """Monomial Gram of the Cauchy dual space; diagonal Grams only.

    For a diagonal Gram diag(w) of a space with expansive backward structure
    (w nonincreasing, w_0 = 1) the dual Gram is diag(1/w), which again
    satisfies the normalized nondecreasing-weight axioms.
    """
    g = np.asarray(gram, dtype=complex)
    m = g.shape[0]
    off = g - np.diag(np.diagonal(g))
    if np.max(np.abs(off)) > 1e-10 * max(np.max(np.abs(g)), 1.0):
        raise NotImplementedError("Cauchy dual is supported for diagonal Grams only")
    w = np.diagonal(g).real
    if abs(w[0] - 1.0) > 1e-12:
        raise ValueError("normalization requires the constant to have norm 1")
    if np.any(np.diff(w) > 1e-12):
        raise ValueError("dualization requires nonincreasing diagonal weights")
    return np.diag(1.0 / w)


def bergman_dirichlet_unitary(coeffs) -> np.ndarray:
    """Coefficient action g_k -> g_k / (k + 1) of the averaging integral
    (1/z) int_0^z g; unitary from the Bergman space onto the Dirichlet space."""
    c = as_coeffs(coeffs)
    return c / np.arange(1, c.size + 1)


def shift_intertwine_residual(size: int = 64) -> float:
    """Operator-norm defect of U M_z^* U^{-1} = L on coefficient truncations,
    with M_z^* the Bergman-space adjoint of the forward shift."""
    k = np.arange(size)
    u = np.diag(1.0 / (k + 1.0))
    u_inv = np.diag(k + 1.0)
    mzstar = np.zeros((size, size))
    for j in range(1, size):
        mzstar[j - 1, j] = j / (j + 1.0)
    ell = np.eye(size, k=1)
    return float(np.linalg.norm(u @ mzstar @ u_inv - ell, ord=2))


@dataclass
class ReverseCarlesonReport:
    applicable: bool
    admits: bool | None
    sup_resolvent: float | None
    sup_kernel: float | None
    lam: np.ndarray
    h1: np.ndarray | None
    h2: np.ndarray | None
    g: np.ndarray | None
    radius_h1: float | None
    radius_h2: float | None
    note: str = ""


def reverse_carleson(space, schedule: LimitSchedule | None = None,
                     lam_points: int = 64, deep_level: int = 16) -> ReverseCarlesonReport:
    """Reverse-Carleson diagnostics for a forward-shift-invariant space.

    h2(lam) = 1 / ((1 - r^2) k(r lam, r lam)) is formula-exact; its kernel
    diagonals come from one ``space.kernel_diagonal`` call over all radii.
    h1(lam) = (1 - r^2) ||s_{r lam}||^2, s the Szego kernel, comes from the space's
    closed form ``szego_density``: 1 + ||A(w)^{-*} B(w)*||^2 for a factored
    symbol and 1 + sum c_i |w|^2 / |1 - conj(w) z_i|^2 for atoms c_i at z_i.
    Both are reported at the deep radius 1 - 2**-deep_level, lowered to the
    deepest level within ``space.kernel_radius`` when the kernel is a
    degree-truncated one; the radius used is recorded.  ``sup_kernel`` and
    ``sup_resolvent`` are the largest circle means of h2 and h1 over the
    schedule radii within that radius.  For polynomial symbols the minimal
    boundary density g = 1 / d, d = 1 - sum |b_i|^2, is reported for
    comparison from the Laurent coefficients of d.  A measure exists iff 1/d
    is integrable, that is iff d has no circle root (its circle zeros have
    even order), which the symbol's defect split records.
    """
    if not space.mz_invariant:
        return ReverseCarlesonReport(False, None, None, None, np.zeros(0),
                                     None, None, None, None, None,
                                     note="criterion inapplicable: space is not "
                                          "forward-shift invariant")
    lam = np.exp(2j * np.pi * np.arange(lam_points) / lam_points)
    schedule = schedule or LimitSchedule(k_min=3, k_max=6)
    radii = (1.0 - 2.0 ** (-k) for k in range(deep_level, 0, -1))
    r_deep = next((r for r in radii if r <= space.kernel_radius), None)
    if r_deep is None:
        raise ConfigError(f"no radius 1 - 2**-k lies within the kernel radius "
                          f"{space.kernel_radius}")

    # every radius in one call per density, one row each
    scheduled = [r for r in schedule.radii if r <= space.kernel_radius]
    radii = np.unique(scheduled + [r_deep])
    w = radii[:, None] * lam
    h2_all = 1.0 / ((1.0 - radii[:, None] ** 2) * space.kernel_diagonal(w))
    h1_all = space.szego_density(w)
    rows = np.searchsorted(radii, scheduled)
    sup_kernel = float(np.max(np.mean(h2_all[rows], axis=1))) if scheduled else None
    sup_resolvent = float(np.max(np.mean(h1_all[rows], axis=1))) if scheduled else None
    deep = np.searchsorted(radii, r_deep)
    h2, h1 = h2_all[deep], h1_all[deep]

    g = None
    admits = None
    symbol = getattr(space, "symbol", None)
    if symbol is not None:
        boundary_defect = np.maximum(laurent_values(symbol.defect.laurent, np.angle(lam)), 0.0)
        g = np.where(boundary_defect > 1e-14,
                     1.0 / np.maximum(boundary_defect, 1e-300), np.inf)
        admits = symbol.defect.circle_roots.size == 0
    elif hasattr(space, "measure"):
        admits = dirichlet_reverse_carleson(space.measure, lam_points).admits
    return ReverseCarlesonReport(True, admits, sup_resolvent, sup_kernel, lam,
                                 h1, h2, g, r_deep, r_deep)


@dataclass
class DirichletCarlesonReport:
    admits: bool
    integral: float
    lam: np.ndarray
    h: np.ndarray | None
    atoms: list = field(default_factory=list)

    def h_at(self, lam) -> float:
        total = 1.0
        for loc, weight in self.atoms:
            total += weight / abs(1.0 - np.conj(lam) * loc) ** 2
        return total


def dirichlet_reverse_carleson(measure: MeasureSpec, lam_points: int = 64) -> DirichletCarlesonReport:
    """Exact reverse-Carleson verdict for an atomic Dirichlet-type measure:
    it admits one iff sum c_i / (1 - |z_i|^2) is finite, and the minimal
    boundary density is h(lam) = 1 + sum c_i / |1 - conj(lam) z_i|^2."""
    if measure.ac_density is not None:
        raise NotImplementedError("atomic measures only")
    admits = True
    integral = 0.0
    for loc, weight in measure.atoms:
        gap = 1.0 - abs(loc) ** 2
        if gap <= 0.0:
            admits = False
            integral = np.inf
            break
        integral += weight / gap
    lam = np.exp(2j * np.pi * np.arange(lam_points) / lam_points)
    h = None
    if admits:
        h = np.ones(lam_points)
        for loc, weight in measure.atoms:
            h += weight / np.abs(1.0 - np.conj(lam) * loc) ** 2
    return DirichletCarlesonReport(admits, float(integral), lam, h,
                                   atoms=list(measure.atoms))
