"""Row symbols, reproducing kernels and the worked example spaces.

A row symbol is a tuple (b_1, ..., b_n) of analytic functions vanishing at
the origin with sum_i |b_i|^2 <= 1 on the disk; it determines the kernel

    k(z, lam) = (1 - sum_i b_i(z) conj(b_i(lam))) / (1 - conj(lam) z).

The empty symbol is the Hardy space; one inner component gives the classical
model spaces.  Point-mass Dirichlet-type spaces are handled through their
explicit isometric embedding instead of a symbol.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NumericalError
from .harmonic import DEFAULT_GRID, DiskFunction, grid_points
from .report import Report
from .series import (SzegoSum, as_coeffs, divided_difference, finite_coeffs, h2_norm_sq,
                     horner, power_table, szego_taylor)
from .spectral import DefectSplit, defect_split

# singular values of the coefficient matrix at or below this fraction of the
# largest are dropped: the kernel moves by their sigma^2, below eps relative
_RANK_CUT = np.sqrt(np.finfo(float).eps)


@dataclass(eq=False)
class ModelPair:
    """A member f and its companions f_1, stacked as the rows [f; f_1].

    ``rows`` is a complex array (1 + k, W), or a ``SzegoSum`` with that
    leading axis (the exact pair of a Szego-sum input).  Its producer passes
    the residual that certifies it and ``norm_sq``, the squared H^2 norm of
    the rows, which is the squared space norm of f.  ``f``, ``companions``
    and ``n`` read the rows.
    """

    rows: np.ndarray | SzegoSum
    residual: float
    norm_sq: float

    @property
    def f(self) -> np.ndarray | SzegoSum:
        return self.rows[0]

    @property
    def companions(self) -> np.ndarray | SzegoSum:
        return self.rows[1:]

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    @property
    def exact(self) -> bool:
        """True for the pair of a Szego sum."""
        return isinstance(self.rows, SzegoSum)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq))

    def parts(self, count) -> tuple[np.ndarray, np.ndarray]:
        """(f, companions) as coefficient arrays; an exact pair gives its
        first ``count`` Taylor coefficients."""
        rows = self.rows.coefficients(count) if self.exact else self.rows
        return rows[0], rows[1:]

    def companion_at(self, lam) -> np.ndarray:
        """f_1(lam), every companion row by one product with the powers of lam."""
        return self.companions @ power_table(lam, self.rows.shape[1])


def pair_inner(pair_a: ModelPair, pair_b: ModelPair) -> complex:
    """Space inner product <a, b> of two model pairs: the H^2 product of their rows."""
    a, b = pair_a.rows, pair_b.rows
    if pair_a.exact or pair_b.exact:
        return SzegoSum.of(a).inner(SzegoSum.of(b))
    m = min(a.shape[1], b.shape[1])
    return complex(np.vdot(b[:, :m], a[:, :m]))


@dataclass
class MembershipReport(Report):
    member: bool
    norm: float | None
    evidence: dict

    def __bool__(self):
        return self.member


@dataclass
class RowSymbol:
    """Validated row symbol; immutable after construction.

    ``truncated`` marks symbols standing in for an infinite-rank space, so
    that rank and invariance verdicts can be labeled as inconclusive.
    ``rows`` is the read-only coefficient matrix (n, W) that every kernel
    and the handle read.  The kernel sees the components only through R^T
    conj(R), R their coefficient matrix, so the singular values of R decide
    the rank: when the smallest exceeds sqrt(eps) times the largest, ``rows``
    is R as given, component i in row i; otherwise it is Sigma V* of the
    singular values above that cut, taken of the columns of order >= 1 so
    that column 0 is exactly 0, and ``dropped_mass`` (0 for a full-rank R)
    is the sum of the dropped sigma^2, a bound on the kernel's change.
    ``n`` is the row count of ``rows``.  ``defect`` is the split of
    1 - sum_i |b_i|^2 taken at validation; the boundary verdicts and the
    handle's defect factor read it.  Validation raises ValueError for a
    non-finite coefficient, InvariantViolation when a component does not
    vanish at 0 or the row is not a contraction, and ConvergenceError when
    the root split of its defect fails numerically.
    """

    components: list
    truncated: bool = False
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    dropped_mass: float = field(init=False, repr=False, compare=False)
    defect: DefectSplit = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = []
        for c in self.components:
            comps.append(c if isinstance(c, DiskFunction) else DiskFunction(c))
        self.components = comps
        self._validate()

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def _validate(self):
        mat = np.zeros((len(self.components),
                        max((c.taylor.size for c in self.components), default=1)),
                       dtype=complex)
        for i, c in enumerate(self.components):
            mat[i, : c.taylor.size] = c.taylor
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite coefficient in a symbol component")
        if np.any(np.abs(mat[:, 0]) > 1e-12):
            raise InvariantViolation("every symbol component must vanish at the origin")
        self.dropped_mass = 0.0
        if self.components:
            sv = np.linalg.svd(mat, compute_uv=False)
            if np.count_nonzero(sv > _RANK_CUT * sv[0]) < mat.shape[0]:
                # of the orders >= 1 only, so that column 0 stays exactly 0
                _, sv, vh = np.linalg.svd(mat[:, 1:], full_matrices=False)
                kept = sv > _RANK_CUT * sv[:1]  # sv is empty for constant components
                mat = np.pad(sv[kept, None] * vh[kept], ((0, 0), (1, 0)))
                self.dropped_mass = float(np.sum(sv[~kept] ** 2))
        mat.flags.writeable = False
        self.rows = mat
        # the split refuses a defect that is negative on the circle; by the
        # maximum principle for the subharmonic sum_i |b_i|^2 that covers the disk
        self.defect = defect_split(mat)


def _check_strict_interior(*points):
    """Each argument a point or an array of points, checked by its largest modulus."""
    for p in points:
        radius = np.max(np.abs(p), initial=0.0) if isinstance(p, np.ndarray) else abs(p)
        if not radius < 1.0:  # NaN fails this test too
            raise ValueError(f"kernel arguments must satisfy |z| < 1, got |z| = {radius}")


def _check_distinct(points, message="Gram points must be distinct"):
    """Refuse points equal to 14 digits: a Gram of kernel functions at a
    repeated point is singular.  Sort and compare, as np.unique does, which
    would also import numpy.ma."""
    pts = np.sort(np.asarray(points).round(14), axis=None)
    if (pts[1:] == pts[:-1]).any():
        raise ValueError(message)


def row_values(rows: np.ndarray, points) -> np.ndarray:
    """B(w) at each point from the coefficient rows (n, W): one matmul with
    the powers of w, shape points.shape + (n,)."""
    return power_table(points, rows.shape[1]) @ rows.T


def _kernel(b_z: np.ndarray, b_lam: np.ndarray, z, lam):
    """(1 - B(z) B(lam)*) / (1 - conj(lam) z) from the row values B(z) and
    B(lam) (..., n) at the points z and lam, broadcasting."""
    return (1.0 - np.sum(b_z * np.conj(b_lam), axis=-1)) / (1.0 - np.conj(lam) * z)


def kernel_eval(symbol: RowSymbol, z, lam):
    """Reproducing kernel k(z, lam) of the space attached to the symbol;
    array arguments broadcast."""
    z, lam = np.asarray(z, dtype=complex), np.asarray(lam, dtype=complex)
    _check_strict_interior(z, lam)
    return _kernel(row_values(symbol.rows, z), row_values(symbol.rows, lam), z, lam)


def kernel_diagonal(symbol: RowSymbol, points) -> np.ndarray:
    """k(w, w) at each point, no Gram: B is evaluated once, as in ``gram_matrix``,
    so the values equal its diagonal."""
    pts = np.asarray(points, dtype=complex)
    _check_strict_interior(pts)
    b = row_values(symbol.rows, pts)
    return _kernel(b, b, pts, pts).real


def gram_matrix(symbol: RowSymbol, points) -> np.ndarray:
    """Hermitian Gram G[j, i] = k(lam_j, lam_i) of kernel functions."""
    pts = np.asarray(points, dtype=complex)
    _check_strict_interior(pts)
    _check_distinct(pts)
    b = row_values(symbol.rows, pts)  # (m, n)
    g = _kernel(b[:, None], b[None, :], pts[:, None], pts[None, :])
    return 0.5 * (g + g.conj().T)


def weighted_space_symbol(weights, degree: int | None = None,
                          n_boundary: int = DEFAULT_GRID,
                          truncated: bool = False) -> RowSymbol:
    """Symbol of the weighted Hardy space with coefficient weights w_k.

    Requires w_0 = 1 and a nondecreasing sequence; component k is
    sqrt(1/w_{k-1} - 1/w_k) z^k, with identically-zero components dropped.
    Weights beyond the provided list are treated as constant; if ``degree``
    cuts off a still-increasing tail the symbol is marked truncated.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite value in the weight sequence")
    if w.size == 0 or abs(w[0] - 1.0) > 1e-14:
        raise ValueError("weight sequence must start at w_0 = 1")
    if np.any(np.diff(w) < -1e-14) or np.any(w <= 0):
        raise ValueError("weights must be positive and nondecreasing")
    if degree is not None and w.size - 1 > degree:
        if np.any(np.diff(w[degree:]) > 0):
            truncated = True
        w = w[: degree + 1]
    comps = []
    for k in range(1, w.size):
        gap = 1.0 / w[k - 1] - 1.0 / w[k]
        if gap > 1e-15:
            c = np.zeros(k + 1, dtype=complex)
            c[k] = np.sqrt(gap)
            comps.append(DiskFunction(c, n_boundary=n_boundary))
    return RowSymbol(comps, truncated=truncated)


@dataclass
class MeasureSpec:
    """Finite positive Borel measure of point masses in the closed disk."""

    atoms: list = field(default_factory=list)

    def __post_init__(self):
        cleaned = []
        for loc, weight in self.atoms:
            loc = complex(loc)
            weight = float(weight)
            if not (np.isfinite(loc) and np.isfinite(weight)):
                raise ValueError("non-finite atom location or weight")
            if weight <= 0:
                raise ValueError("atom weights must be positive")
            if abs(loc) > 1.0 + 1e-12:
                raise ValueError("atom locations must lie in the closed disk")
            cleaned.append((loc, weight))
        self.atoms = cleaned


class DirichletSpace:
    """Local Dirichlet space of a finitely supported measure, handled through
    its explicit isometric embedding f -> (f, sqrt(c_i) (f - f(z_i))/(z - z_i)).

    The embedding coordinates are exact polynomial operations, so norms and
    Grams here are exact up to roundoff; the reproducing kernel is recovered
    from the monomial Gram of the degree-truncated space.
    """

    mz_invariant = True
    truncated = False
    factorization = None

    # the embedding is exact and every residual 0; the handle's membership tolerance
    tol_membership = 1e-7

    def __init__(self, measure: MeasureSpec, degree: int = 128):
        if not measure.atoms:
            raise ValueError("measure must carry at least one atom")
        _check_distinct([loc for loc, _ in measure.atoms],
                        "atoms must be at distinct locations")
        self.measure = measure
        self.degree = degree
        self._gram_cache: dict[int, np.ndarray] = {}
        self._companion_cache: dict[int, np.ndarray] = {}
        self._solver_cache: dict[int, np.ndarray] = {}

    @property
    def kernel_radius(self) -> float:
        """Largest radius at which the degree-truncated kernel is resolved:
        degree * (1 - r) >= 16."""
        return 1.0 - 16.0 / self.degree

    def szego_density(self, points) -> np.ndarray:
        """(1 - |w|^2) ||s_w||^2 for the Szego kernel s_w = 1 / (1 - conj(w) z).

        The embedding coordinate of s_w for the atom c at z is
        sqrt(c) conj(w) s_w(z) s_w, so the value is
        1 + sum c |w|^2 / |1 - conj(w) z|^2, exact at every interior point.
        """
        pts = np.asarray(points, dtype=complex)
        _check_strict_interior(pts)
        total = np.ones(pts.shape)
        for loc, weight in self.measure.atoms:
            total += weight * np.abs(pts) ** 2 / np.abs(1.0 - np.conj(pts) * loc) ** 2
        return total

    @property
    def n(self) -> int:
        return len(self.measure.atoms)

    def companions(self, coeffs) -> list[np.ndarray]:
        """Embedding coordinates sqrt(c_i) (f - f(z_i)) / (z - z_i)."""
        c = as_coeffs(coeffs)
        return [np.sqrt(w) * divided_difference(c, loc) for loc, w in self.measure.atoms]

    def embed(self, coeffs) -> ModelPair:
        """The model pair of f; exact, so its residual is 0.  A ``SzegoSum``
        gets its exact pair, with Szego-sum parts, from its term rows."""
        if isinstance(coeffs, SzegoSum):
            rows, _ = self.embed_terms(coeffs)
            return ModelPair(rows, 0.0, rows.norm_sq)
        c = finite_coeffs(coeffs)
        rows = np.zeros((1 + self.n, c.size), dtype=complex)  # companions padded to f's width
        rows[0] = c
        rows[1:, : max(c.size - 1, 1)] = self.companions(c)
        return ModelPair(rows, 0.0, float(np.vdot(rows, rows).real))

    def _rows(self, p: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Rows (f, then one coordinate per atom) of each term P_j s_{mu_j},
        shape (1 + n, J, W) for the polynomials p (J, W).  The coordinate of
        P s_mu for the atom c at z is sqrt(c) ((D_z P) s_mu + P(z) conj(mu) s_mu(z) s_mu),
        D_z P = (P - P(z)) / (w - z), by one Horner pass over all terms and atoms."""
        locs, weights = (np.array(v) for v in zip(*self.measure.atoms))
        rows = np.zeros((1 + self.n,) + p.shape, dtype=complex)
        rows[0] = p
        acc = np.zeros((self.n, p.shape[0]), dtype=complex)  # Horner at each atom
        for k in range(p.shape[1] - 1, 0, -1):
            acc = p[:, k] + locs[:, None] * acc
            rows[1:, :, k - 1] = acc
        at_atoms = p[:, 0] + locs[:, None] * acc  # P_j(z_i)
        rows[1:, :, 0] += at_atoms * np.conj(mu) / (1.0 - np.conj(mu) * locs[:, None])
        rows[1:] *= np.sqrt(weights)[:, None, None]
        return rows

    def embed_terms(self, f: SzegoSum) -> tuple[SzegoSum, SzegoSum]:
        """The exact pair of each term of ``f`` with the term axis kept: its
        rows (f, then one coordinate per atom) and no residual rows."""
        if f.coeffs.ndim != 2:
            raise ValueError("embed takes a scalar Szego sum")
        rows = self._rows(f.coeffs, f.points)
        return SzegoSum.trusted(rows, f.points), SzegoSum.trusted(rows[:0], f.points)

    def membership(self, coeffs) -> MembershipReport:
        """Every polynomial and every Szego sum is a member of a Dirichlet-type space."""
        return MembershipReport(True, self.embed(coeffs).norm, {}, residual=0.0)

    def companions_at(self, coeffs, lam) -> np.ndarray:
        return np.array([horner(q, lam) for q in self.companions(coeffs)])

    def poly_norm_sq(self, coeffs) -> float:
        c = finite_coeffs(coeffs)
        return h2_norm_sq(c) + sum(h2_norm_sq(q) for q in self.companions(c))

    def norm(self, coeffs) -> float:
        if isinstance(coeffs, SzegoSum):
            return self.embed(coeffs).norm
        return float(np.sqrt(max(self.poly_norm_sq(coeffs), 0.0)))

    def inner(self, pair_a: ModelPair, pair_b: ModelPair) -> complex:
        """Space inner product through the embedding."""
        return pair_inner(pair_a, pair_b)

    def _companion_matrix(self, degree: int) -> np.ndarray:
        """C[i, j, k], coefficient j of the coordinate of z^k for atom i,
        from the rows of all the monomials at once."""
        return np.swapaxes(self._rows(np.eye(degree + 1), np.zeros(degree + 1))[1:], 1, 2)

    def monomial_companions(self, degree: int) -> np.ndarray:
        """The companion matrix C, shape (n, degree + 1, degree + 1), cached
        per degree."""
        if degree not in self._companion_cache:
            self._companion_cache[degree] = self._companion_matrix(degree)
        return self._companion_cache[degree]

    def monomial_gram(self, degree: int) -> np.ndarray:
        """Gram G[j, k] = <z^k, z^j> of the monomials up to ``degree``, I + C*C.
        It reads C from the companion cache but does not fill it: the kernel
        solve's Gram degree would otherwise keep a large C alive."""
        if degree not in self._gram_cache:
            comp = self._companion_cache.get(degree)
            if comp is None:
                comp = self._companion_matrix(degree)
            comp = comp.reshape(-1, degree + 1)
            self._gram_cache[degree] = np.eye(degree + 1) + comp.conj().T @ comp
        return self._gram_cache[degree]

    def _kernel_solver(self, degree: int) -> np.ndarray:
        """L^{-1} for the Cholesky factor L L* of the monomial Gram G, so that
        G^{-1} = L^{-*} L^{-1} and k(z, lam) = <L^{-1} s_lam, L^{-1} s_z>, with
        s_w the Taylor coefficients conj(w)**k."""
        if degree not in self._solver_cache:
            self._solver_cache[degree] = np.linalg.inv(
                np.linalg.cholesky(self.monomial_gram(degree)))
        return self._solver_cache[degree]

    def kernel(self, z, lam, degree: int | None = None):
        """Reproducing kernel of the degree-truncated space; converges
        geometrically to the kernel of the full space for |z|, |lam| < 1.
        Array arguments broadcast."""
        return np.sum(np.conj(self._kernel_columns(z, degree))
                      * self._kernel_columns(lam, degree), axis=-1)

    def _kernel_columns(self, points, degree: int | None) -> np.ndarray:
        """L^{-1} s_w for each point w, shape points.shape + (degree + 1,):
        k(z, w) = <y_w, y_z>."""
        pts = np.asarray(points, dtype=complex)
        _check_strict_interior(pts)
        degree = self.degree if degree is None else degree
        y = szego_taylor(pts.ravel(), degree) @ self._kernel_solver(degree).T
        return y.reshape(pts.shape + (degree + 1,))

    def gram(self, points, degree: int | None = None) -> np.ndarray:
        """Gram of kernel functions at distinct interior points; PSD by construction."""
        pts = np.asarray(points, dtype=complex)
        _check_distinct(pts)
        y = self._kernel_columns(pts, degree)
        k = y.conj() @ y.T
        return 0.5 * (k + k.conj().T)

    def kernel_diagonal(self, points) -> np.ndarray:
        """k(w, w) at each point: the squared norms of L^{-1} s_w, no Gram."""
        return np.sum(np.abs(self._kernel_columns(points, None)) ** 2, axis=-1)

    def kernel_taylor(self, lam, degree: int | None = None) -> np.ndarray:
        _check_strict_interior(lam)
        degree = self.degree if degree is None else degree
        inv_low = self._kernel_solver(degree)
        return inv_low.conj().T @ (inv_low @ szego_taylor(lam, degree))


def dirichlet_norm(coeffs, measure: MeasureSpec, n_grid: int = DEFAULT_GRID) -> float:
    """Dirichlet-type norm by direct boundary quadrature (independent of the
    embedding): ||f||_2^2 plus one local-energy integral per atom."""
    c = as_coeffs(coeffs)
    zeta = grid_points(n_grid)
    if c.size > n_grid // 2:
        raise ValueError(f"degree {c.size - 1} would alias on a grid of size {n_grid}")
    f_samples = np.fft.ifft(c, n_grid) * n_grid  # f at zeta
    total = float(np.mean(np.abs(f_samples) ** 2))
    dcoeffs = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
    for loc, weight in measure.atoms:
        fz = horner(c, loc)
        gap = zeta - loc
        quotient = np.empty(n_grid, dtype=complex)
        regular = np.abs(gap) > 1e-9
        quotient[regular] = (f_samples[regular] - fz) / gap[regular]
        if np.any(~regular):
            quotient[~regular] = horner(dcoeffs, loc)
        total += weight * float(np.mean(np.abs(quotient) ** 2))
    return float(np.sqrt(total))


def defect_form(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The defect form Q of a D x D monomial Gram G, its ascending
    eigenvalues and their rounding bound.

    For f = sum_k c_k z^k of degree below D, ||f||^2 - ||Lf||^2 - |f(0)|^2 =
    c* Q c with Q = G - S^T G S - e_0 e_0^T, S the coefficient shift: Q[j, k]
    = G[j, k] - G[j-1, k-1] for j, k >= 1 and Q[0, k] = G[0, k] - delta_{0k},
    with no solve.  So Q >= 0 is the paper's hypothesis on these polynomials
    and rank Q the defect rank seen through them.  By Weyl's inequality each
    eigenvalue moves by at most the rounding of Q (eps ||Q||_F, one per
    entry) plus eigvalsh's backward error (about D eps ||Q||_2); since ||Q||_F
    <= 2 ||G||_F + 1 <= 3 ||G||_F when G[0, 0] = 1, 4 D eps ||G||_F covers
    both.  Q_D >= -b gives G_D >= (1 - D b) I by induction on D, as c* G_D c
    = c* Q_D c + c'* G_{D-1} c' + |c_0|^2 with c' = (c_1, c_2, ...) and
    Q_{D-1} is a leading block of Q_D: a Gram whose form passes is positive
    definite and needs no check of its own.
    """
    g = np.asarray(gram, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not g.size:
        raise ValueError("Gram matrix must be square and nonempty")
    q = g - np.pad(g[:-1, :-1], (1, 0))  # G - S^T G S
    q[0, 0] -= 1.0
    bound = 4.0 * g.shape[0] * np.finfo(float).eps * float(np.linalg.norm(g))
    return q, np.linalg.eigvalsh(q), bound


def estimate_rank(gram: np.ndarray) -> int:
    """Defect rank read off a monomial Gram, independent of the space's own
    rank ``n``: the count of eigenvalues of ``defect_form`` above its bound.
    A least eigenvalue below minus the bound refutes a contractive L, and
    NumericalError names its eigenvector, the witness polynomial."""
    q, evals, bound = defect_form(gram)
    if evals[0] < -bound:
        witness = np.array2string(np.linalg.eigh(q)[1][:, 0], precision=3, suppress_small=True)
        raise NumericalError(f"||f||^2 - ||Lf||^2 - |f(0)|^2 = {evals[0]:.3e} < -{bound:.2e}: "
                             f"the Gram refutes a contractive L at the witness f = {witness}")
    return int(np.sum(evals > bound))
