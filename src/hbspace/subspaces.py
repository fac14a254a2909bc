"""Model spaces of finite Blaschke products and backward-shift-invariant
intersections, polynomial density residuals, the nearly-invariant norm
formula, and the quotient membership test for forward-shift-invariant
subspaces.

The model space K_theta is spanned exactly by Szego sums: z^j for each zero
at the origin and s_a = 1 / (1 - conj(a) z) for each nonzero zero a.  Its
intersection with a space embeds those candidates in one batch that keeps
the term axis (``embed_terms``), and everything after that is a K x K matrix
of term inner products (``SzegoSum.term_gram``): the Gram, the orthonormal
basis L^{-1} T and the backward-invariance residual.  The backward shift acts
coordinatewise on model pairs and termwise on Szego sums
(``SzegoSum.backward``), so the residual embeds nothing either.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .analysis import LimitEstimate, LimitSchedule, _radial_limit, _shift_defects
from .errors import ConfigError, ConvergenceError, NumericalError
from .model import SpaceHandle
from .series import (SzegoSum, convolve, divided_difference, finite_coeffs, horner,
                     series_divide, trim)
from .spectral import _CIRCLE_TOL
from .report import Report
from .symbols import MembershipReport, ModelPair, _check_distinct

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
            if not abs(a) < 1.0:  # NaN fails this test too
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


def model_space_basis(theta: BlaschkeProduct) -> list[SzegoSum]:
    """A basis of H^2 (-) theta H^2, exactly: the monomials z^j, one per zero
    at the origin, as polynomial terms at 0, and the Szego kernel s_a per
    nonzero zero a (distinct nonzero zeros required)."""
    at_zero = sum(1 for a in theta.zeros if a == 0)
    others = [a for a in theta.zeros if a != 0]
    _check_distinct(others, "nonzero Blaschke zeros must be distinct")
    one = np.ones((1, 1), dtype=complex)
    return ([SzegoSum.trusted(np.eye(1, j + 1, j, dtype=complex), np.zeros(1, dtype=complex))
             for j in range(at_zero)]
            + [SzegoSum.trusted(one, np.array([a])) for a in others])


@dataclass
class SubspaceBasis:
    """Orthonormalized members spanning a finite-dimensional subspace.

    ``terms`` holds the exact pair rows (f, then the companions) of the
    candidate terms T_j that survived the membership filter, and basis vector
    i is sum_j mix[i, j] T_j; ``pairs`` holds those vectors as exact pairs and
    ``coeffs`` as Szego sums.  ``gram`` is the Gram of the basis in the
    ambient norm (identity up to solver noise); ``raw_gram`` is the Gram of
    the candidates."""

    pairs: list
    gram: np.ndarray
    raw_gram: np.ndarray | None = None
    terms: SzegoSum | None = None
    mix: np.ndarray | None = None

    @property
    def coeffs(self) -> list:
        return [p.f for p in self.pairs]

    @property
    def dim(self) -> int:
        return len(self.pairs)


def _mixed(mix: np.ndarray, terms: SzegoSum, width: int) -> np.ndarray:
    """Coefficients of sum_j mix[i, j] T_j, term axis kept and padded to
    ``width``, shape (I,) + rows + (J, width)."""
    out = np.zeros(mix.shape[:1] + terms.coeffs.shape[:-1] + (width,), dtype=complex)
    out[..., : terms.width] = np.einsum("ij,...jw->i...jw", mix, terms.coeffs)
    return out


def intersect_model_space(space, theta: BlaschkeProduct) -> SubspaceBasis:
    """Basis of (space) intersect K_theta, orthonormal in the space norm.

    The candidates T_j of ``model_space_basis`` are embedded exactly in one
    batch, term by term (``space.embed_terms``); a candidate whose residual
    exceeds the space's membership tolerance is dropped.  With L L* the
    Cholesky factor of the candidates' Gram G, the basis is L^{-1} T, so its
    pairs are the mixed term rows and its Gram is L^{-1} G L^{-*}: no vector
    is embedded twice and nothing is cut.
    """
    if not space.mz_invariant:
        raise ConfigError("intersection machinery needs a forward-shift-invariant space")
    rows, residual_rows = space.embed_terms(sum(model_space_basis(theta)))
    gram = rows.term_gram(rows)
    residual_gram = residual_rows.term_gram(residual_rows)
    norms = np.sqrt(np.diagonal(gram).real)
    keep = np.sqrt(np.abs(np.diagonal(residual_gram))) <= space.tol_membership * (1.0 + norms)
    if not np.any(keep):
        return SubspaceBasis([], np.zeros((0, 0)))
    terms = SzegoSum.trusted(rows.coeffs[:, keep], rows.points[keep])
    gm, residual_gram = gram[np.ix_(keep, keep)], residual_gram[np.ix_(keep, keep)]
    low = np.linalg.cholesky(0.5 * (gm + gm.conj().T))
    mix = np.linalg.solve(low, np.eye(low.shape[0]))
    basis_gram = mix @ gm @ mix.conj().T
    residuals = np.sqrt(np.abs(np.diagonal(mix @ residual_gram @ mix.conj().T)))
    pairs = [ModelPair(SzegoSum.trusted(c, terms.points), float(res), float(g.real))
             for c, res, g in zip(_mixed(mix, terms, terms.width), residuals,
                                  np.diagonal(basis_gram))]
    return SubspaceBasis(pairs, basis_gram, gm, terms, mix)


def backward_invariance_residual(space, basis: SubspaceBasis) -> float:
    """Largest relative residual ||L b_i - sum_k <L b_i, b_k> b_k|| / ||L b_i||
    of projecting L(basis member) back onto the subspace; certifies
    backward-shift invariance of the intersection.

    L acts coordinatewise on model pairs and commutes with the divided
    differences, so the pair rows of L b_i are sum_j mix[i, j] L T_j
    (``SzegoSum.backward``) in both space types; nothing is embedded.  The
    coefficients <L b_i, b_k> come from the term Grams of (L T, T), and the
    remainder is formed as an explicit Szego sum, one term per candidate
    holding mix[i, j] L T_j - (c mix)[i, j] T_j (the monomials share the
    point 0, where no geometric tail couples terms), so that an invariant
    subspace cancels coefficientwise and its residual is roundoff, not the
    square root of a difference of norms.  ``space`` is not read.
    """
    if not basis.dim:
        return 0.0
    terms, mix = basis.terms, basis.mix
    shifted = terms.backward()
    gram = shifted.term_gram(shifted + terms)  # blocks (L T, L T) and (L T, T)
    count = mix.shape[1]
    total = np.diagonal(mix @ gram[:, :count] @ mix.conj().T).real
    proj = mix @ gram[:, count:] @ mix.conj().T  # [i, k] = <L b_i, b_k>
    width = terms.width
    remainder = _mixed(mix, shifted, width) - _mixed(proj @ mix, terms, width)
    rem_sq = SzegoSum.trusted(remainder, terms.points).norms_sq().sum(axis=-1)
    live = total > 1e-24
    return float(np.sqrt(np.max(rem_sq[live] / total[live], initial=0.0)))


@dataclass
class PolyDensityResult(Report):
    degrees: list[int]
    residuals: np.ndarray


def poly_density_residual(space, coeffs, degrees) -> PolyDensityResult:
    """Best polynomial-approximation residuals per degree in the space norm.

    Computed through one Cholesky of the cached monomial Gram, so the squared
    projections accumulate as partial sums of nonnegative terms and the
    residual sequence is exactly nonincreasing.  The Gram is I + C*C for the
    companion matrix C, so its eigenvalues are >= 1 and the Cholesky of a
    finite Gram cannot fail.  f is embedded once, exactly
    when it is a ``SzegoSum``; its inner products with the monomials,
    <f, z^j> = f_j + sum_i <f_1i, C[i, :, j]>, come from the companion
    matrix and the first dmax + 1 coefficients of its pair.
    """
    if not space.mz_invariant:
        raise ConfigError("polynomial approximation needs a forward-shift-invariant space")
    degrees = sorted(int(d) for d in degrees)
    if not degrees or degrees[0] < 0:
        raise ConfigError("need a nonempty list of nonnegative degrees")
    dmax = degrees[-1]
    comp = space.monomial_companions(dmax)  # first, so that the Gram can reuse it
    gm = space.monomial_gram(dmax)
    pair = space.embed(coeffs)
    rows = np.vstack(pair.parts(dmax + 1))[:, : dmax + 1]
    head = np.zeros((1 + comp.shape[0], dmax + 1), dtype=complex)  # f and f_1, cut or padded
    head[:, : rows.shape[1]] = rows
    b = head[0] + np.einsum("iw,iwj->j", head[1:], comp.conj())  # b[j] = <f, z^j>
    low = np.linalg.cholesky(0.5 * (gm + gm.conj().T))
    proj_sq = np.cumsum(np.abs(np.linalg.solve(low, b)) ** 2)[degrees]
    return PolyDensityResult(degrees, np.sqrt(np.maximum(pair.norm_sq - proj_sq, 0.0)))


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
        rows = space.symbol.rows  # width 1 only for the Hardy space
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
class NearlyInvariantResult(LimitEstimate):
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
        q = divided_difference(f_pad[:, None] - phi_pad[:, None] * ratio, lam)
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


def shift_subspace_membership(space, phi, f) -> MembershipReport:
    """Membership of f in the shift-invariant subspace generated by phi.

    Criterion: f/phi belongs to the Hardy space and (f/phi) phi_1 to the
    vector Hardy space.  The companions of a polynomial are polynomials (the
    exact model), so in every space the second condition follows from the
    first, which holds iff every zero of phi in the closed disk is a zero of
    f of at least the same order.  Exact division of f by those zeros, a
    multiple zero taken once per order at the centroid of the roots it
    splits into (``_closed_disk_zeros``), certifies it: ``residual`` is the
    remainder, its largest Newton coefficient relative to max |f_k|, and
    ``evidence`` holds the zeros, that remainder and, for a non-member,
    ``pole``.  ``norm`` is None.
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
    return MembershipReport(member, None, evidence, residual=rel)
