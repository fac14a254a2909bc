"""Model spaces of finite Blaschke products and backward-shift-invariant
intersections, polynomial density residuals, the nearly-invariant norm
formula, and the quotient membership test for forward-shift-invariant
subspaces."""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .analysis import LimitSchedule, _column_norms, _divided_difference_all
from .errors import ConfigError, NumericalError
from .model import SpaceHandle
from .series import (
    as_coeffs,
    convolve,
    horner,
    series_divide,
    shift_down,
    szego_taylor,
)


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
    and a Szego kernel per nonzero zero (distinct nonzero zeros required)."""
    at_zero = sum(1 for a in theta.zeros if a == 0)
    others = [a for a in theta.zeros if a != 0]
    if np.unique(np.round(others, 14)).size != len(others):
        raise ValueError("nonzero Blaschke zeros must be distinct")
    basis = []
    for j in range(at_zero):
        e = np.zeros(j + 1, dtype=complex)
        e[j] = 1.0
        basis.append(e)
    for a in others:
        basis.append(szego_taylor(a, degree))
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
    low = cholesky(0.5 * (gm + gm.conj().T), lower=True)
    width = max(m.size for m in members)
    ortho = solve_triangular(low, raw[:, :width], lower=True)
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
    residual sequence is exactly nonincreasing.  f is embedded once; its
    inner products with the monomials come from the cached monomial pairs.
    """
    if not space.mz_invariant:
        raise ConfigError("polynomial approximation needs a forward-shift-invariant space")
    degrees = sorted(int(d) for d in degrees)
    if not degrees or degrees[0] < 0:
        raise ConfigError("need a nonempty list of nonnegative degrees")
    dmax = degrees[-1]
    gm = space.monomial_gram(dmax)
    rows = _stack([space.embed(coeffs)] + space.monomial_pairs(dmax))
    b = rows[1:].conj() @ rows[0]  # b[j] = <f, z^j>
    norm_sq = float(np.sum(np.abs(rows[0]) ** 2))
    truncated_solve = False
    try:
        low = cholesky(0.5 * (gm + gm.conj().T), lower=True)
        t = solve_triangular(low, b, lower=True)
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


@dataclass
class NearlyInvariantResult:
    rows: list[tuple[float, float]]
    final: float
    quotient_norm_sq: float
    skipped_fraction: float
    skip_log: list[tuple[float, int]] = field(default_factory=list)


def nearly_invariant_norm(space, phi, f, schedule=None,
                          n_quadrature: int = 4096) -> NearlyInvariantResult:
    """Estimate of the squared space norm of f through the nearly-invariant
    formula: ||f/phi||_2^2 plus the radial limit of the mean of
    ||z L^phi_{r lam} f||^2 - ||L^phi_{r lam} f||^2, where
    L^phi_lam f = L_lam (f - (f(lam)/phi(lam)) phi).

    A formula under test, not an identity: with phi = z/||z||, its exact
    r = 1 value is the space norm on the diagonal spaces (rank1-half,
    two-term, weighted, dirichlet-origin) but misses by 7.0e-3 on cusp,
    6.4e-2 on dirichlet-pair and 5.2e-2 on dirichlet-half.  The estimate is
    the grid mean at the last schedule radius.

    Grid points where |phi| < 1e-6 are skipped and logged; more than 5%
    skipped aborts the estimate.
    """
    phi = as_coeffs(phi)
    f = as_coeffs(f)
    schedule = schedule or LimitSchedule(k_min=4, k_max=8)
    zeta = np.exp(2j * np.pi * np.arange(n_quadrature) / n_quadrature)
    phi_b = horner(phi, zeta)
    f_b = horner(f, zeta)
    good = np.abs(phi_b) > 1e-9
    if np.mean(good) < 0.95:
        raise NumericalError("phi vanishes on too much of the boundary grid")
    quotient_norm_sq = float(np.mean(np.abs(f_b[good] / phi_b[good]) ** 2))
    width = max(phi.size, f.size)
    f_pad = np.zeros(width, dtype=complex)
    f_pad[: f.size] = f
    phi_pad = np.zeros(width, dtype=complex)
    phi_pad[: phi.size] = phi
    rows = []
    skip_log = []
    skipped = 0
    total = 0
    for r, m in schedule:
        lam = r * np.exp(2j * np.pi * np.arange(m) / m)
        phi_vals = horner(phi, lam)
        keep = np.abs(phi_vals) > 1e-6
        skip_log.append((r, int(np.sum(~keep))))
        skipped += int(np.sum(~keep))
        total += m
        if not np.any(keep):
            raise NumericalError("every quadrature node was skipped")
        eta = lam[keep]
        ratio = horner(f, eta) / phi_vals[keep]
        # column j holds the coefficients of L^phi_eta f at eta = eta[j]
        q = _divided_difference_all(f_pad[:, None] - phi_pad[:, None] * ratio, eta)
        zq = np.vstack([np.zeros((1, eta.size), dtype=complex), q])
        vals = _column_norms(space, zq) - _column_norms(space, q)
        rows.append((r, quotient_norm_sq + float(np.mean(vals))))
    frac = skipped / max(total, 1)
    if frac > 0.05:
        raise NumericalError(f"unreliable estimate: {frac:.1%} of nodes skipped")
    return NearlyInvariantResult(rows, rows[-1][1], quotient_norm_sq, frac, skip_log)


@dataclass
class QuotientMembershipReport:
    member: bool
    evidence: dict

    def __bool__(self):
        return self.member


def _tail_stable(coeffs: np.ndarray, label: str, evidence: dict) -> bool:
    """Square-summability heuristic: the last dyadic block of coefficients
    must not carry growing mass, unless its norm is below 1e-10.  Masses are
    taken relative to scale = max |c|, so an overflowing tail cannot square
    to inf; a non-finite one is unstable."""
    c = as_coeffs(coeffs)
    scale = float(np.max(np.abs(c), initial=0.0))
    if not np.isfinite(scale):
        evidence[label] = {"head": None, "tail": None, "scale": scale}
        return False
    c = c / scale if scale > 0.0 else c
    half = c.size // 2
    head = float(np.sum(np.abs(c[:half]) ** 2))
    tail = float(np.sum(np.abs(c[half:]) ** 2))
    evidence[label] = {"head": head, "tail": tail, "scale": scale}
    return tail <= 0.05 * (head + tail) or scale * tail ** 0.5 <= 1e-10


def shift_subspace_membership(space, phi, f, degree: int = 2048) -> QuotientMembershipReport:
    """Membership of f in the shift-invariant subspace generated by phi.

    Criterion: f/phi belongs to the Hardy space and (f/phi) phi_1 belongs to
    the vector Hardy space, tested through power-series division (a pole
    inside the disk shows up as geometric coefficient growth)."""
    phi = as_coeffs(phi)
    f = as_coeffs(f)
    evidence = {}
    lead = 0
    while lead < phi.size and abs(phi[lead]) <= 1e-13:
        lead += 1
    if lead >= phi.size:
        raise ValueError("phi must be nonzero")
    if np.any(np.abs(f[:lead]) > 1e-13):
        evidence["pole"] = f"f/phi has a pole of order <= {lead} at the origin"
        return QuotientMembershipReport(False, evidence)
    q = series_divide(f[lead:] if lead else f, phi[lead:], degree)
    if not _tail_stable(q, "quotient", evidence):
        return QuotientMembershipReport(False, evidence)
    if isinstance(space, SpaceHandle) and space.mode == "analytic" and space.n:
        phi_pair = space.embed(phi)
        for i in range(space.n):
            prod = convolve(q, phi_pair.companions[i])[: degree + 1]
            if not _tail_stable(prod, f"companion_{i}", evidence):
                return QuotientMembershipReport(False, evidence)
    return QuotientMembershipReport(True, evidence)
