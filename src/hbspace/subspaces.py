"""Model spaces of finite Blaschke products and backward-shift-invariant
intersections, polynomial density residuals, the nearly-invariant norm
formula, and the quotient membership test for forward-shift-invariant
subspaces."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .analysis import LimitSchedule, _divided_difference_all, _radial_limit, _shift_defects
from .errors import ConfigError, ConvergenceError, NumericalError
from .model import SpaceHandle
from .series import (SzegoSum, convolve, divided_difference, finite_coeffs, horner,
                     series_divide, shift_down, trim)
from .spectral import _CIRCLE_TOL
from .symbols import ModelPair

# a remainder of f by phi's closed-disk zeros above this, relative to max |f_k|, is a pole
_REMAINDER_TOL = 1e-10


@dataclass
class BlaschkeProduct:
    """Finite Blaschke product with the standard positive normalization of
    each factor; zeros at the origin contribute plain factors of z."""

    zeros: list

    def __post_init__(self):
        self.zeros = [complex(a) for a in self.zeros]
        if not self.zeros:
            raise ValueError("need at least one zero")
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise ValueError("Blaschke zeros must lie strictly inside the disk")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for a in self.zeros:
            if a == 0:
                out = out * z
            else:
                out = out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out if out.ndim else complex(out)

    def taylor(self, degree: int) -> np.ndarray:
        num = np.ones(1, dtype=complex)
        den = np.ones(1, dtype=complex)
        for a in self.zeros:
            if a == 0:
                num = convolve(num, np.array([0.0, 1.0]))
            else:
                num = convolve(num, (abs(a) / a) * np.array([a, -1.0]))
                den = convolve(den, np.array([1.0, -np.conj(a)]))
        return series_divide(num, den, degree)


def model_space_basis(theta: BlaschkeProduct, degree: int = 256) -> list[np.ndarray]:
    """A basis of H^2 (-) theta H^2: monomials for the zeros at the origin
    and a Szego kernel per nonzero zero (distinct nonzero zeros required),
    cut at ``degree``; raises NumericalError when a cut drops a tail above
    ``series.TAIL_TOL``."""
    at_zero = sum(1 for a in theta.zeros if a == 0)
    others = [a for a in theta.zeros if a != 0]
    if np.unique(np.round(others, 14)).size != len(others):
        raise ValueError("nonzero Blaschke zeros must be distinct")
    basis = []
    for j in range(at_zero):
        e = np.zeros(j + 1, dtype=complex)
        e[j] = 1.0
        basis.append(e)
    if others:  # row j holds s_{a_j} alone
        basis.extend(SzegoSum(np.eye(len(others))[:, :, None], others).taylor(degree))
    return basis


@dataclass
class SubspaceBasis:
    """Orthonormalized members spanning a finite-dimensional subspace.

    ``gram`` is the Gram of the stored basis in the ambient norm (identity up
    to solver noise); ``raw_gram`` is the Gram of the pre-orthonormalization
    candidates that survived the membership filter."""

    pairs: list
    gram: np.ndarray
    coeffs: list = field(default_factory=list)
    raw_gram: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.pairs)


def _stack(pairs) -> np.ndarray:
    """Rows (f, companions) of the pairs, each part zero-padded to its widest
    occurrence, so that rows @ rows^H holds the inner products <p_i, p_j>."""
    wf = max(p.f.size for p in pairs)
    wc = max(p.companions.shape[1] for p in pairs)
    n = pairs[0].n
    rows = np.zeros((len(pairs), wf + n * wc), dtype=complex)
    for row, p in zip(rows, pairs):
        row[: p.f.size] = p.f
        row[wf:].reshape(n, wc)[:, : p.companions.shape[1]] = p.companions
    return rows


def intersect_model_space(space, theta: BlaschkeProduct,
                          degree: int | None = None) -> SubspaceBasis:
    """Basis of (space) intersect K_theta, orthonormal in the space norm.

    Candidates come from the model-space basis; non-members are filtered out
    by the membership test and the rest Gram-Schmidted through a Cholesky of
    their Gram.  Each member and each basis vector is embedded once.
    """
    if not space.mz_invariant:
        raise ConfigError("intersection machinery needs a forward-shift-invariant space")
    degree = degree if degree is not None else min(space.degree, 256)
    members = [c for c in model_space_basis(theta, degree) if space.membership(c).member]
    if not members:
        return SubspaceBasis([], np.zeros((0, 0)))
    raw = _stack([space.embed(m) for m in members])
    gm = raw @ raw.conj().T
    low = np.linalg.cholesky(0.5 * (gm + gm.conj().T))
    width = max(m.size for m in members)
    ortho = np.linalg.solve(low, raw[:, :width])
    coeffs = [np.trim_zeros(row, "b") if np.any(row) else row[:1] for row in ortho]
    pairs = [space.embed(c) for c in coeffs]
    rows = _stack(pairs)
    return SubspaceBasis(pairs, rows @ rows.conj().T, coeffs=coeffs, raw_gram=gm)


def backward_invariance_residual(space, basis: SubspaceBasis) -> float:
    """Largest relative residual of projecting L(basis member) back onto the
    subspace; certifies backward-shift invariance of the intersection."""
    if not basis.dim:
        return 0.0
    rows = _stack([space.embed(shift_down(c)) for c in basis.coeffs]
                  + basis.pairs)
    lrows, brows = rows[: basis.dim], rows[basis.dim:]
    total = np.sum(np.abs(lrows) ** 2, axis=1)
    proj = np.sum(np.abs(lrows @ brows.conj().T) ** 2, axis=1)
    live = total > 1e-24
    rel = np.maximum(total[live] - proj[live], 0.0) / total[live]
    return float(np.sqrt(np.max(rel, initial=0.0)))


@dataclass
class PolyDensityResult:
    degrees: list[int]
    residuals: np.ndarray
    truncated_solve: bool = False


def poly_density_residual(space, coeffs, degrees) -> PolyDensityResult:
    """Best polynomial-approximation residuals per degree in the space norm.

    Computed through one Cholesky of the cached monomial Gram, so the squared
    projections accumulate as partial sums of nonnegative terms and the
    residual sequence is exactly nonincreasing.  f is embedded once, exactly
    when it is a ``SzegoSum``; its inner products with the monomials come
    from the cached monomial pairs and the first dmax + 1 coefficients of
    its pair.
    """
    if not space.mz_invariant:
        raise ConfigError("polynomial approximation needs a forward-shift-invariant space")
    degrees = sorted(int(d) for d in degrees)
    if not degrees or degrees[0] < 0:
        raise ConfigError("need a nonempty list of nonnegative degrees")
    dmax = degrees[-1]
    gm = space.monomial_gram(dmax)
    pair = space.embed(coeffs)
    head = ModelPair(*pair.parts(dmax + 1), pair.residual)
    rows = _stack([head] + space.monomial_pairs(dmax))
    b = rows[1:].conj() @ rows[0]  # b[j] = <f, z^j>
    norm_sq = pair.norm_sq
    truncated_solve = False
    try:
        low = np.linalg.cholesky(0.5 * (gm + gm.conj().T))
        t = np.linalg.solve(low, b)
        proj_sq = np.cumsum(np.abs(t) ** 2)[degrees]
    except np.linalg.LinAlgError:
        truncated_solve = True
        proj_sq = np.empty(len(degrees))
        kept = []
        for idx, d in enumerate(degrees):
            block = 0.5 * (gm[: d + 1, : d + 1] + gm[: d + 1, : d + 1].conj().T)
            vals, vecs = np.linalg.eigh(block)
            cut = vals > 1e-12 * max(vals[-1], 0.0)
            kept.append(int(cut.sum()))
            coords = vecs[:, cut].conj().T @ b[: d + 1]
            proj_sq[idx] = float(np.sum(np.abs(coords) ** 2 / vals[cut]))
        warnings.warn(f"Gram nearly singular; kept modes per degree: {kept}")
    residuals = np.sqrt(np.maximum(norm_sq - proj_sq, 0.0))
    return PolyDensityResult(degrees, residuals, truncated_solve)


def _gram_extremal(space, degree: int) -> np.ndarray:
    """[0, G_M^{-1} e_1], normalized, G_M the monomial Gram of z, ..., z^degree:
    the extremal function of {f : f(0) = 0} among polynomials of that degree."""
    c = np.linalg.solve(space.monomial_gram(degree)[1:, 1:], np.eye(degree, 1)[:, 0])
    return np.concatenate([[0.0], c / np.sqrt(c[0].real)])


def extremal_function(space) -> np.ndarray:
    """The extremal function of M = {f : f(0) = 0}: the unit vector of M with
    the largest phi'(0) > 0, the normalized derivative kernel at 0.

    For a row symbol B (B(0) = 0) it is the polynomial
    (z - B(z) B'(0)*) / sqrt(1 - ||B'(0)||^2).  A Dirichlet-type space takes
    ``_gram_extremal`` at its degree, checked against half that degree, with
    the tail below roundoff cut.  Raises ConfigError when M = {0}.
    """
    if isinstance(space, SpaceHandle):
        rows = space.symbol.coefficient_matrix()  # width 1 only for the Hardy space
        rows = np.pad(rows, ((0, 0), (0, max(2 - rows.shape[1], 0))))
        gap = 1.0 - float(np.sum(np.abs(rows[:, 1]) ** 2))
        if gap <= 1e-12:
            raise ConfigError("the space holds no f != 0 with f(0) = 0")
        phi = np.eye(1, rows.shape[1], 1)[0] - np.conj(rows[:, 1]) @ rows  # z - B(z) B'(0)*
        return phi / np.sqrt(gap)
    phi, half = (_gram_extremal(space, d) for d in (space.degree, space.degree // 2))
    drift = np.max(np.abs(phi[: half.size] - half))
    if drift > 1e-13:
        raise ConvergenceError(f"extremal function unresolved at degree {space.degree}: "
                               f"halving the degree moves it by {drift:.2e}")
    return trim(phi, 1e-17 * float(np.max(np.abs(phi))))


@dataclass
class NearlyInvariantResult:
    rows: list[tuple[float, float]]
    final: float
    quotient_norm_sq: float
    nodes: int


def nearly_invariant_norm(space, phi, f, schedule=None) -> NearlyInvariantResult:
    """The squared space norm of f through the nearly-invariant formula:
    ||f/phi||_2^2 plus the circle mean of ||z L^phi_{r lam} f||^2 - ||L^phi_{r lam} f||^2,
    where L^phi_lam f = L_lam (f - (f(lam)/phi(lam)) phi).

    At r = 1 (``final``) this is an identity when phi is the extremal
    function of the subspace that holds f (Hitt, Pacific J. Math. 134 (1988);
    Sarason, Oper. Theory Adv. Appl. 35 (1988)).  ``phi=None`` takes
    ``extremal_function``, that of {f : f(0) = 0}, and needs f(0) = 0
    (ConfigError); a given phi is used as it is.  ||f/phi||_2^2, the schedule
    rows and ``final`` are means over one matrix of nodes.  The integrand is
    rational, so they converge geometrically: the node count m starts at
    4d + 4, d the larger degree of f and phi, and doubles until the r = 1
    means on all m nodes and on every other node agree to 1e-14 relative;
    ``nodes`` is that m.  Raises ConvergenceError past 2**16 nodes, or past
    2**20 / (d + 1) so that a node matrix stays small, and NumericalError
    when phi vanishes at a node.
    """
    f = finite_coeffs(f)
    if phi is None:
        if f[0] != 0.0:
            raise ConfigError("the extremal function needs f(0) = 0")
        phi = extremal_function(space)
    phi = finite_coeffs(phi)
    width = max(phi.size, f.size)
    f_pad, phi_pad = np.zeros((2, width), dtype=complex)
    f_pad[: f.size], phi_pad[: phi.size] = f, phi

    def shifted(lam):
        ratio = horner(f, lam) / horner(phi, lam)
        # column j holds the coefficients of L^phi_lam f at lam = lam[j]
        q = _divided_difference_all(f_pad[:, None] - phi_pad[:, None] * ratio, lam)
        return _shift_defects(space, q)

    schedule = schedule or LimitSchedule(k_min=4, k_max=8)
    m = 4 * width
    while True:
        w = np.exp(2j * np.pi * np.arange(m) / m)
        with np.errstate(divide="ignore", invalid="ignore"):  # checked below
            quotient = np.abs(horner(f, w) / horner(phi, w)) ** 2
            est, circle = _radial_limit(
                schedule, m, lambda r, lam: (quotient + shifted(lam).reshape(-1, m)).ravel())
        if not np.all(np.isfinite([est.final, *est.values])):
            raise NumericalError(f"phi vanishes at a node of the {m}-point means")
        # the even nodes are the m/2-th roots of unity: the second r = 1 mean
        gap = abs(est.final - float(np.mean(circle[::2])))
        if gap <= 1e-14 * abs(est.final):
            return NearlyInvariantResult(est.rows, est.final, float(np.mean(quotient)), m)
        if m >= min(2 ** 16, 2 ** 20 // width):
            raise ConvergenceError(f"r = 1 means on {m // 2} and {m} nodes differ by {gap:.2e}")
        m *= 2


@dataclass
class QuotientMembershipReport:
    member: bool
    evidence: dict

    def __bool__(self):
        return self.member


def _split_radius(phi, c, m) -> float:
    """How far rounding moves the roots of an m-fold zero of phi at c:
    (eps sum_k |phi_k| |c|^k / |t_m|)^(1/m), t_m = phi^(m)(c) / m! the
    leading Taylor coefficient at c, with a safety factor 4."""
    lead = abs(P.polyval(c, P.polyder(phi, m))) / math.factorial(m)
    scale = np.finfo(float).eps * float(np.sum(np.abs(phi) * abs(c) ** np.arange(phi.size)))
    return 4.0 * (scale / lead) ** (1.0 / m) if lead > 0.0 else np.inf


def _closed_disk_zeros(phi) -> np.ndarray:
    """Closed-disk zeros of phi, each repeated by its multiplicity.

    An m-fold zero splits under rounding into m roots about
    ``_split_radius`` from it (eps^(1/m) for a monic (z - 1)^m), while the
    centroid of that cluster keeps the zero to roundoff.  The closest
    clusters merge while every member lies within the split radius of their
    joint centroid; a cluster is kept when its centroid c has
    |c| <= 1 + _CIRCLE_TOL, as c repeated m times.
    """
    clusters = [[r] for r in np.roots(phi[::-1])]
    merged = True
    while merged:
        merged = False
        pairs = sorted((abs(np.mean(a) - np.mean(b)), i, j)
                       for j, b in enumerate(clusters) for i, a in enumerate(clusters[:j]))
        for _, i, j in pairs:
            joint = clusters[i] + clusters[j]
            c = complex(np.mean(joint))
            if np.max(np.abs(np.array(joint) - c)) <= _split_radius(phi, c, len(joint)):
                clusters[i] = joint
                del clusters[j]
                merged = True
                break
    kept = [[np.mean(k)] * len(k) for k in clusters if abs(np.mean(k)) <= 1.0 + _CIRCLE_TOL]
    return np.array(sum(kept, []), dtype=complex)


def shift_subspace_membership(space, phi, f) -> QuotientMembershipReport:
    """Membership of f in the shift-invariant subspace generated by phi.

    Criterion: f/phi belongs to the Hardy space and (f/phi) phi_1 to the
    vector Hardy space.  The companions of a polynomial are polynomials (the
    exact model), so in every space the second condition follows from the
    first, which holds iff every zero of phi in the closed disk is a zero of
    f of at least the same order.  Exact division of f by those zeros, a
    multiple zero taken once per order at the centroid of the roots it
    splits into (``_closed_disk_zeros``), certifies it: ``evidence`` holds the
    zeros, the remainder (its largest Newton coefficient relative to
    max |f_k|) and, for a non-member, ``pole``.
    """
    phi = finite_coeffs(phi)
    f = finite_coeffs(f)
    if not np.any(phi):
        raise ValueError("phi must be nonzero")
    zeros = _closed_disk_zeros(phi)
    # f = q prod_k (z - zeros_k) + sum_k v_k prod_{j<k} (z - zeros_j): v_k is
    # the value at zeros_k of f divided exactly by the zeros before it
    values, rest = [], f
    for r in zeros:
        values.append(horner(rest, r))
        rest = divided_difference(rest, r)
    scale = float(np.max(np.abs(f)))
    rel = float(np.max(np.abs(values), initial=0.0)) / scale if scale else 0.0
    evidence = {"zeros": zeros, "remainder": rel}
    member = rel <= _REMAINDER_TOL  # an overflowed, NaN remainder is no member
    if not member:
        evidence["pole"] = "f/phi has a pole in the closed disk"
    return QuotientMembershipReport(member, evidence)
