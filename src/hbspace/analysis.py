"""Numerical verification of the structural identities of these spaces.

Everything here is phrased against a "space" object exposing
``poly_norm_sq``, ``norm``, ``companions_at``, ``kernel``,
``kernel_diagonal`` and ``mz_invariant`` (both the factored symbol handles
and the embedded Dirichlet-type spaces qualify).
The shift quantities are exact polynomial coefficient operations, and so are
the radial limits of the norm formula and the wandering norm, whose
``final`` is the value at r = 1 itself.  The boundary
verdicts, forward-shift invariance and the existence of a reverse-Carleson
measure with its constant, are read off the defect split that a row symbol
takes at validation, so no boundary diagnostic samples a grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .report import Report
from .series import as_coeffs, divided_difference, h2_norm_sq, shift_down
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


def _has_gram(space) -> bool:
    """False where the Hardy norm is the space norm: H^2 (n = 0) and a space
    that is not forward-shift invariant, whose monomials may not be members."""
    return space.mz_invariant and space.n != 0


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
class LimitEstimate(Report):
    rows: list[tuple[float, float]]
    final: float

    @property
    def values(self):
        return [v for _, v in self.rows]


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
    return LimitEstimate(rows, float(means[-1])), values[-1]


def norm_limit_estimate(space, coeffs, schedule: LimitSchedule | None = None) -> LimitEstimate:
    """The squared space norm through the shift formula:
    ||f||_2^2 + mean over the circle of ||z L_{r lam} f||^2 - r^2 ||L_{r lam} f||^2,
    at each schedule radius and, as ``final``, exactly at r = 1.
    """
    c = as_coeffs(coeffs)
    base = h2_norm_sq(c)

    def integrand(r, lam):
        q = divided_difference(c, lam)
        return base + _shift_defects(space, q) + (1.0 - r ** 2) * _column_norms(space, q)
    return _radial_limit(schedule, 2 * max(c.size, 1), integrand)[0]


def pointwise_defect(space, coeffs, lam) -> tuple[float, float]:
    """Both sides of the pointwise identity
    ||z L_lam f||^2 - ||L_lam f||^2 = ||f_1(lam)||^2, the left one
    ``_shift_defects`` form on the monomial Gram."""
    c = as_coeffs(coeffs)
    lhs = _shift_defects(space, divided_difference(c, lam)[:, None])[0]
    rhs = float(np.sum(np.abs(space.companions_at(c, lam)) ** 2))
    return float(lhs), rhs


def wandering_norm(space, coeffs, schedule: LimitSchedule | None = None) -> LimitEstimate:
    """(1 - r^2) * mean ||L_{r lam} f||^2 at each schedule radius; ``final``,
    its value at r = 1, is exactly 0: a polynomial has no unitary part."""
    c = as_coeffs(coeffs)
    return _radial_limit(schedule, 2 * max(c.size, 1), lambda r, lam: (1.0 - r ** 2)
                         * _column_norms(space, divided_difference(c, lam)))[0]


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
class MzReport(Report):
    invariant: bool
    log_estimate: float | None

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
    return MzReport(a is not None, log_estimate, conclusive=not symbol.truncated, note=note)


def cauchy_dual(gram: np.ndarray) -> np.ndarray:
    """Monomial Gram of the Cauchy dual space; diagonal Grams only.

    For a diagonal Gram diag(w) of a space with expansive backward structure
    (w nonincreasing, w_0 = 1) the dual Gram is diag(1/w), which again
    satisfies the normalized nondecreasing-weight axioms.
    """
    g = np.asarray(gram, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite value in the Gram")
    off = g - np.diag(np.diagonal(g))
    if np.max(np.abs(off)) > 1e-10 * max(np.max(np.abs(g)), 1.0):
        raise NotImplementedError("Cauchy dual is supported for diagonal Grams only")
    w = np.diagonal(g).real
    if abs(w[0] - 1.0) > 1e-12:
        raise ValueError("normalization requires the constant to have norm 1")
    if np.any(np.diff(w) > 1e-12) or not np.all(w > 0):
        raise ValueError("dualization requires positive nonincreasing diagonal weights")
    return np.diag(1.0 / w)


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
class ReverseCarlesonReport(Report):
    applicable: bool
    admits: bool | None
    constant: float | None
    lam: np.ndarray
    h2: np.ndarray | None
    g: np.ndarray | None
    radius_h2: float | None


def _reciprocal_norm_sq(a: np.ndarray) -> float:
    """||1 / a||_2^2 for a polynomial a with a(0) > 0 and no zeros in the
    closed disk: 1 / (a(0)^2 prod_j (1 - |k_j|^2)), k_j the reflection
    coefficients of the Schur-Cohn step-down recursion on a / a(0), all of
    modulus < 1 (Hayes, Statistical Digital Signal Processing and Modeling,
    1996, ch. 5).  Its relative error grows like eps / (1 - |k_j|), the
    conditioning of the value itself."""
    poly = a / a[0]
    scale = a[0].real ** 2
    while poly.size > 1:
        k = poly[-1]
        gap = 1.0 - abs(k) ** 2
        scale *= gap
        poly = (poly[:-1] - k * np.conj(poly[:0:-1])) / gap
    return 1.0 / scale


def reverse_carleson(space, lam_points: int = 64) -> ReverseCarlesonReport:
    """Reverse-Carleson verdict and constant for a forward-shift-invariant space.

    The circle means of h2(w) = 1 / ((1 - |w|^2) k(w, w)) and of the Szego
    density (1 - |w|^2) ||s_w||^2 rise with |w| to the boundary mean of the
    minimal density g = 1 / d, d = 1 - sum |b_i|^2: a measure exists iff
    that mean is finite, and ``constant`` is its value.  On a symbol space
    it is ||1 / a||_2^2, a the outer factor of the symbol's defect split, in
    closed form by the step-down recursion; it is infinite iff d has a circle
    root.  For atoms c_i at z_i it is 1 + sum c_i / (1 - |z_i|^2).  ``h2`` is
    one kernel-diagonal row at the radius 1 - 2**-16, lowered to the deepest
    1 - 2**-k within ``space.kernel_radius`` when the kernel is a
    degree-truncated one; ``g`` is 1 / d on the lam points of a symbol space,
    from the Laurent coefficients of d.
    """
    if not space.mz_invariant:
        return ReverseCarlesonReport(False, None, None, np.zeros(0), None, None, None,
                                     note="criterion inapplicable: space is not "
                                          "forward-shift invariant")
    lam = np.exp(2j * np.pi * np.arange(lam_points) / lam_points)
    radii = (1.0 - 2.0 ** (-k) for k in range(16, 0, -1))
    r = next((radius for radius in radii if radius <= space.kernel_radius), None)
    if r is None:
        raise ConfigError(f"no radius 1 - 2**-k lies within the kernel radius "
                          f"{space.kernel_radius}")
    h2 = 1.0 / ((1.0 - r ** 2) * space.kernel_diagonal(r * lam))

    symbol = getattr(space, "symbol", None)
    if symbol is None:
        atomic = dirichlet_reverse_carleson(space.measure, lam_points)
        return ReverseCarlesonReport(True, atomic.admits, 1.0 + atomic.integral,
                                     lam, h2, None, r)
    admits = symbol.defect.circle_roots.size == 0
    constant = _reciprocal_norm_sq(symbol.defect.outer) if admits else math.inf
    boundary_defect = np.maximum(laurent_values(symbol.defect.laurent, np.angle(lam)), 0.0)
    g = np.where(boundary_defect > 1e-14, 1.0 / np.maximum(boundary_defect, 1e-300), np.inf)
    return ReverseCarlesonReport(True, admits, constant, lam, h2, g, r)


@dataclass
class DirichletCarlesonReport(Report):
    admits: bool
    integral: float
    lam: np.ndarray
    h: np.ndarray | None
    atoms: list = field(default_factory=list)

    def h_at(self, lam):
        """The density at a point or at each of an array of points."""
        total = 1.0
        for loc, weight in self.atoms:
            total += weight / abs(1.0 - np.conj(lam) * loc) ** 2
        return total


def dirichlet_reverse_carleson(measure: MeasureSpec, lam_points: int = 64) -> DirichletCarlesonReport:
    """Exact reverse-Carleson verdict for an atomic Dirichlet-type measure:
    it admits one iff sum c_i / (1 - |z_i|^2) is finite, and the minimal
    boundary density is h(lam) = 1 + sum c_i / |1 - conj(lam) z_i|^2."""
    lam = np.exp(2j * np.pi * np.arange(lam_points) / lam_points)
    report = DirichletCarlesonReport(False, math.inf, lam, None, atoms=list(measure.atoms))
    gaps = [1.0 - abs(loc) ** 2 for loc, _ in report.atoms]
    if min(gaps, default=1.0) > 0.0:
        report.admits = True
        report.integral = float(sum(weight / gap for (_, weight), gap in zip(report.atoms, gaps)))
        report.h = report.h_at(lam) * np.ones(lam_points)  # an array with no atoms too
    return report
