"""Matrix spectral factorization on the circle.

Find the analytic outer matrix function A with A(zeta)* A(zeta) = Phi(zeta)
on the circle, normalized so A(0) is lower triangular with positive
diagonal.  Every field is a trigonometric polynomial, factored by one root
split of a scalar: the defect of a polynomial row, or a sampled scalar field.

Defect fields Phi = I - B*B of polynomial rows B, which is every symbol a
``SpaceHandle`` holds, are factored exactly by ``row_defect_factor``.  The
scalar defect d = 1 - |B|^2 is a trigonometric polynomial; ``defect_split``
splits it by its roots once, which decides the sign of d on the circle and
gives its outer factor and circle zeros (``DefectSplit``).  A real d (every
row with real coefficients) is a Chebyshev series in x = (z + 1/z) / 2 and
takes its q roots from a q x q colleague matrix; a complex d takes its 2q
roots from the companion matrix of z^q d.  The outer factor is rebuilt from
its roots by one FFT of its values at the roots of unity, exact
interpolation at size 2^ceil(log2(q + 1)).  The lossless row
(B, reversed scalar factor) has a balanced realization with orthonormal
rows, whose unitary extension carries A in a fixed number of small solves.
The factor is certified by ``defect_identity_bound``, which bounds
A*A + B*B - I over the whole circle from its Laurent coefficients.
``matrix_outer_factor`` takes a sampled scalar field that is a
trigonometric polynomial, reads its Laurent coefficients by one FFT and
factors them by the same root split, checked on its grid by
``factor_residual``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from .errors import ConvergenceError, ExtremeTypeError, InvariantViolation
from .harmonic import log_diagnostic
from .report import Report
from .series import trim

# exact route: roots with |log |r|| <= _CIRCLE_TOL (a test symmetric under
# r -> 1 / conj(r)) are split pairs of a double root; a defect whose
# coefficients all stay below _ZERO_DEFECT is zero
_CIRCLE_TOL = 1e-5
_ZERO_DEFECT = 1e-12
# bound on sup over the circle of ||A*A + B*B - I|| that certifies an exact factor
_CERTIFY_TARGET = 1e-9
# a row whose defect falls below -_CONTRACTION_SLOP on the circle is no contraction
_CONTRACTION_SLOP = 1e-10
# matrix_outer_factor takes sampled fields of at most this Laurent degree
_ROOTS_MAX_DEGREE = 64


@dataclass
class MatrixSymbol:
    """Analytic matrix function held as stacked Taylor coefficients
    (coeffs[k] is the n x n coefficient of z**k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValueError("expected coefficients of shape (degree+1, n, n)")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def at(self, z) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for block in self.coeffs[::-1]:
            out = out * z + block
        return out

    def at_zero(self) -> np.ndarray:
        return self.coeffs[0].copy()

    def samples(self, n_grid: int) -> np.ndarray:
        if self.coeffs.shape[0] > n_grid:
            raise ValueError("grid too small for the coefficient support")
        padded = np.zeros((n_grid, self.n, self.n), dtype=complex)
        padded[: self.coeffs.shape[0]] = self.coeffs
        return np.fft.ifft(padded, axis=0) * n_grid


@dataclass
class FactorizationReport(Report):
    """A factor with its certificate.  ``column`` is the last column C of the
    paraunitary completion [[B, a_rev], [A, C]] of ``row_defect_factor``,
    shape (p + 1, n), C[k] the coefficient of z^k (None for
    ``matrix_outer_factor``)."""

    symbol: MatrixSymbol
    method: str
    iterations: int
    regularization: float
    column: np.ndarray | None = None


def _as_field(phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None, None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("expected boundary field of shape (N, n, n) or (N,)")
    return arr


def factor_residual(a, phi) -> float:
    """sup over the grid of the spectral norm of A* A - Phi."""
    phi = _as_field(phi)
    a_samples = a.samples(phi.shape[0]) if isinstance(a, MatrixSymbol) else _as_field(a)
    if a_samples.shape != phi.shape:
        raise ValueError("dimension mismatch between factor and field")
    diff = np.conj(np.transpose(a_samples, (0, 2, 1))) @ a_samples - phi
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(1, 2))))


def defect_identity_bound(factor_coeffs, row_coeffs) -> float:
    """Bound over the whole circle of the spectral norm of A*A + B*B - I.

    ``factor_coeffs[k]`` is the n x n Taylor block A_k and ``row_coeffs[i, k]``
    the coefficient of z^k in b_i.  With M_k the (n + 1) x n block stacking A_k
    over the row b_k, the Laurent coefficient of order m >= 0 is
    E_m = sum_k M_k* M_{k+m} - delta_{m0} I, and E_{-m} = E_m*, so
    ||E_0|| + 2 sum_{m >= 1} ||E_m|| bounds the norm at every point of the circle.
    """
    a = np.asarray(factor_coeffs, dtype=complex)
    b = np.atleast_2d(np.asarray(row_coeffs, dtype=complex))
    n = a.shape[1]
    width = max(a.shape[0], b.shape[1])
    blocks = np.zeros((2 * width - 1, n + 1, n), dtype=complex)
    blocks[: a.shape[0], :n] = a
    blocks[: b.shape[1], n] = b.T
    step = blocks.strides
    later = np.ndarray((width, width, n + 1, n), complex, blocks, 0,
                       (step[0],) + step)  # [m, k] = M_{k+m}, a strided view
    lags = np.einsum("kji,mkjl->mil", blocks[:width].conj(), later)
    lags[0] -= np.eye(n)
    norms = np.linalg.norm(lags, ord=2, axis=(1, 2))
    return float(norms[0] + 2.0 * np.sum(norms[1:]))


def laurent_values(d, thetas) -> np.ndarray:
    """Values at exp(i theta) of the real trigonometric polynomial whose
    Laurent coefficient of order m >= 0 is ``d[m]`` (order -m carries conj(d[m]))."""
    waves = np.exp(1j * np.outer(thetas, np.arange(1, d.size)))
    return d[0].real + 2.0 * np.real(waves @ d[1:])


def _laurent_roots(d) -> np.ndarray:
    """The 2q roots of z^q d(z), d[m] the Laurent coefficient of order m = 0..q.

    When every d[m] is real, d(z) = sum_m c_m T_m(x) with x = (z + 1/z) / 2,
    c_0 = d[0] and c_m = 2 d[m], so the q roots x_j of that Chebyshev series
    come from a q x q colleague matrix (Good, Quart. J. Math. 12, 1961; Boyd,
    SIAM Review 55, 2013).  Each x_j gives the pair z_j, 1/z_j with
    z_j = x_j +- sqrt(x_j^2 - 1), the member with |z_j| >= 1 taken so that
    nothing cancels.  A double circle zero at z = +-1 becomes a simple x-root.
    Complex d goes through the 2q x 2q companion matrix of ``np.roots``.
    """
    if np.any(d.imag):
        return np.roots(np.concatenate([d[::-1], np.conj(d[1:])]))
    x = chebroots(np.concatenate([d[:1].real, 2.0 * d[1:].real])).astype(complex)
    w = np.sqrt(x * x - 1.0)
    z = np.where(np.abs(x + w) >= np.abs(x - w), x + w, x - w)
    return np.concatenate([z, 1.0 / z])


def _expand_roots(s) -> np.ndarray:
    """Ascending coefficients of prod_i (1 - s_i z), interpolated from its
    values at the m >= s.size + 1 roots of unity by one FFT.

    The degree is below m, so the interpolation is exact, and its rounding
    does not depend on the order of the s_i, unlike repeated convolution.
    """
    m = 1 << s.size.bit_length()
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    values = np.prod(1.0 - np.outer(zeta, s), axis=1)
    return np.fft.fft(values)[: s.size + 1] / m


def _outer_from_laurent(d) -> tuple[np.ndarray, np.ndarray]:
    """The outer polynomial a with |a|^2 = d on the circle, and the circle zeros of d.

    ``d[m]`` is the Laurent coefficient of order m >= 0 of a real
    trigonometric polynomial.  The roots of z^q d(z) (``_laurent_roots``:
    a Chebyshev colleague matrix of size q when d is real, a companion
    matrix of size 2q otherwise) come in pairs r, 1/conj(r); a keeps the
    ones outside the disk.  Roots on the circle of a nonnegative d have even
    multiplicity and split numerically into close pairs; a pair at whose
    unit-normalized mean d vanishes to roundoff (64 eps sum |d_m|) becomes
    that mean, a circle zero, and any other pair keeps only its outer
    member.  a is rebuilt from its q roots by one FFT of its values at the
    roots of unity (``_expand_roots``), real when d is, and the gain makes
    sum |a_k|^2 = d[0], with a(0) > 0.

    The sign of d is decided here.  Between two neighbouring circle roots d
    keeps one sign, so d is evaluated at the middle of every arc they cut,
    or at one point when there is no circle root: a value below
    -_CONTRACTION_SLOP raises InvariantViolation.  A real d has an even
    number of circle zeros counted with multiplicity, so an odd count, or a
    count that misses the degree, is a numerical failure of the split (a
    near-circle pair r, 1/conj(r) straddling the tolerance) and raises
    ConvergenceError.
    """
    d = trim(d)
    q = d.size - 1
    roots = _laurent_roots(d) if q else np.zeros(0)
    log_modulus = np.log(np.abs(roots))
    outside = roots[log_modulus > _CIRCLE_TOL]
    circle = roots[np.abs(log_modulus) <= _CIRCLE_TOL]
    circle = circle[np.argsort(np.angle(circle))]
    angles = np.angle(circle) if circle.size else np.zeros(1)  # one arc: the circle
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
    middles = angles + 0.5 * gaps
    # pair neighbours by angle, starting after the widest gap so that no pair
    # straddles the cut at angle pi; d is read at the arc middles and at the
    # unit-normalized pair means in one pass
    circle = np.roll(circle, -(int(np.argmax(gaps)) + 1))
    pairs = circle[: circle.size - circle.size % 2].reshape(-1, 2)
    centers = np.exp(1j * np.angle(pairs.mean(axis=1)))
    values = laurent_values(d, np.concatenate([middles, np.angle(centers)]))
    worst = int(np.argmin(values[: middles.size]))
    if values[worst] < -_CONTRACTION_SLOP:
        raise InvariantViolation(
            f"the defect is negative on the circle: {values[worst]:.3e} at "
            f"angle {np.angle(np.exp(1j * middles[worst])):.6f}; the symbol "
            "is not a contraction")
    if circle.size % 2 or outside.size + circle.size // 2 != q:
        raise ConvergenceError(
            f"root splitting found {outside.size} roots outside the disk and "
            f"{circle.size} on the circle for a defect of degree {q}")
    # a pair is a double zero only where d vanishes to roundoff at its centre;
    # otherwise it is a near-circle pair r, 1 / conj(r) whose outer member is a root of a
    roundoff = 64.0 * np.finfo(float).eps * (abs(d[0]) + 2.0 * np.sum(np.abs(d[1:])))
    zero = np.abs(values[middles.size:]) <= roundoff
    outer = np.where(np.abs(pairs[:, 0]) >= np.abs(pairs[:, 1]), pairs[:, 0], pairs[:, 1])
    a = _expand_roots(1.0 / np.concatenate([outside, outer[~zero], centers[zero]]))
    if not np.any(d.imag):  # its roots pair by conjugation, so a is real
        a = a.real.astype(complex)
    return a * np.sqrt(np.abs(d[0].real) / np.sum(np.abs(a) ** 2)), centers[zero]


def _defect_laurent(rows: np.ndarray) -> np.ndarray:
    """Laurent coefficients d[m], m = 0..p, of 1 - sum_i |b_i|^2 on the circle."""
    p = rows.shape[1] - 1
    lags = sum((np.convolve(row, np.conj(row[::-1])) for row in rows),
               np.zeros(2 * p + 1, dtype=complex))
    d = -lags[p:]  # index p + m of the autocorrelation is lag m
    d[0] += 1.0
    return d


@dataclass
class DefectSplit:
    """The defect d = 1 - sum_i |b_i|^2 of a polynomial row, split once:
    ``laurent[m]`` is its Laurent coefficient of order m >= 0, ``outer`` the
    outer polynomial a with |a|^2 = d and a(0) > 0 (None when d vanishes
    identically) and ``circle_roots`` each zero of d on the circle, once."""

    laurent: np.ndarray
    outer: np.ndarray | None
    circle_roots: np.ndarray


def defect_split(coeffs) -> DefectSplit:
    """The defect of the row ``coeffs[i, k]`` (coefficient of z^k in b_i) by
    one root split, which also refuses a d that is negative on the circle.
    sum_i |b_i|^2 is subharmonic, so that bound covers the disk."""
    d = _defect_laurent(np.atleast_2d(np.asarray(coeffs, dtype=complex)))
    if float(np.max(np.abs(d))) <= _ZERO_DEFECT:
        return DefectSplit(d, None, np.zeros(0, dtype=complex))
    return DefectSplit(d, *_outer_from_laurent(d))


def _lossless_completion(h: np.ndarray) -> np.ndarray:
    """The rows completing a lossless row polynomial to a paraunitary matrix,
    gauged so that their first n columns are lower triangular with positive
    diagonal at 0.

    ``h[k]`` is the row coefficient of z^k, k = 0..p, with h h* = 1 on the
    circle and h_p[n] > 0.  Its observer realization (shift S, input rows
    h_1, ..., h_p) has the tail Gramian P = W W*, W[i, k] = h_{i+1+k}.
    Balanced by P = L L*, a lossless realization has orthonormal rows
    (Vaidyanathan, Multirate Systems and Filter Banks, 1993, ch. 14), and
    the n rows of its unitary extension are (-Y* H* L^(-*), Y*), with
    H = (h_0; ...; h_(p-1)), h_p Y = 0 and Y* (I + H* P^(-1) H) Y = I, so
    their coefficients are Y* at 0 and -Y* (P^(-1) H)* W[:, k - 1] at k >= 1.
    Y = Y_0 R^(-1), Y_0 = (I; -h_p[:n] / h_p[n]) and R* R the Cholesky
    factorization of Y_0* (I + H* P^(-1) H) Y_0, gives the gauge block R^(-*).
    """
    p, m = h.shape[0] - 1, h.shape[1]
    padded = np.zeros((2 * p, m), dtype=complex)
    padded[:p] = h[1:]
    hankel = np.ndarray((p, p * m), complex, padded, 0, padded.strides)  # [i, (k, :)] = h_{i+1+k}
    y0 = np.eye(m, m - 1, dtype=complex)
    y0[-1] = -h[p, :-1] / h[p, -1]
    hy = h[:p] @ y0
    zy = np.linalg.solve(hankel @ hankel.conj().T, hy)  # P^(-1) H Y_0
    low = np.linalg.cholesky(y0.conj().T @ y0 + hy.conj().T @ zy)  # R*
    rows = np.empty((p + 1, m - 1, m), dtype=complex)
    rows[0] = y0.conj().T
    rows[1:] = -np.swapaxes((zy.conj().T @ hankel).reshape(m - 1, p, m), 0, 1)
    return np.linalg.solve(low, rows)


def row_defect_factor(coeffs, split: DefectSplit) -> FactorizationReport:
    """Exact outer factor of Phi = I - B*B for a polynomial row B.

    ``coeffs[i, k]`` is the coefficient of z^k in b_i.  With a the outer
    factor of the scalar defect d = 1 - |B|^2 and a_rev(z) = z^p conj(a(1/conj z)),
    the row h = (B, a_rev) of degree p is lossless, so the unitary extension
    of its balanced realization gives a paraunitary U of degree p with first
    row h (``_lossless_completion``).  Its columns are orthonormal on the
    circle, so A = U[1:, :n] has A*A = I - B*B, and det A is a constant times
    a, so A is outer; U is gauged so that A(0) is lower triangular with
    positive diagonal, and its last column C is kept as ``column``.  The
    residual is ``defect_identity_bound``: bounded over the whole circle from
    Laurent coefficients, against the unregularized Phi.

    ``split`` is the row's ``defect_split`` (``RowSymbol.defect``); a split
    of another row raises ValueError.  Raises ExtremeTypeError when d is
    identically zero (the symbol is of extreme type) and ConvergenceError
    when the bound misses its target.
    """
    b = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    n, width = b.shape
    if not np.array_equal(split.laurent, _defect_laurent(b)):
        raise ValueError("the defect split is not the split of this row")
    a = split.outer
    if a is None:
        raise ExtremeTypeError(
            "the defect 1 - |B|^2 vanishes identically; no outer factor")
    h = np.zeros((width, n + 1), dtype=complex)
    h[:, :n] = b.T
    h[width - a.size:, n] = np.conj(a[::-1])
    completion = _lossless_completion(h)
    symbol = MatrixSymbol(trim_blocks(completion[:, :, :n]))
    residual = defect_identity_bound(symbol.coeffs, b)
    if residual > _CERTIFY_TARGET:
        raise ConvergenceError(
            f"exact factor certified at residual {residual:.3e} "
            f"(target {_CERTIFY_TARGET:.3e})",
            residual=residual,
        )
    return FactorizationReport(symbol, "exact", 0, 0.0, completion[:, :, n], residual=residual)


def matrix_outer_factor(phi) -> FactorizationReport:
    """Outer factor a with |a|^2 = phi of a sampled nonnegative scalar field.

    The field's Laurent coefficients come from one FFT, trimmed at 1e-12
    times its largest value, and are factored by the root split of
    ``defect_split`` (method ``roots``); the factor is checked on the grid by
    ``factor_residual``.  Raises ValueError for a matrix field (polynomial
    rows go through ``row_defect_factor``), a field that is not positive
    semidefinite, or one that is not a trigonometric polynomial of degree
    <= 64; ExtremeTypeError when the field vanishes identically or log phi
    is not integrable (no outer factor exists); ConvergenceError when the
    grid residual misses its target.
    """
    field = _as_field(phi)
    if field.shape[1] != 1:
        raise ValueError("matrix_outer_factor takes scalar fields; factor the "
                         "defect of a polynomial row with row_defect_factor")
    values = field[:, 0, 0].real
    n_grid = values.size
    scale = float(np.max(np.abs(values)))
    if np.min(values) < -1e-10 * max(scale, 1.0):
        raise ValueError("input field is not positive semidefinite")
    laurent = trim(np.fft.fft(values)[: n_grid // 2] / n_grid, 1e-12 * scale)
    if float(np.max(np.abs(laurent))) <= _ZERO_DEFECT:
        raise ExtremeTypeError("the field vanishes identically; no outer factor")
    if laurent.size > _ROOTS_MAX_DEGREE + 1:
        if not log_diagnostic(np.maximum(values, 0.0)).finite:
            raise ExtremeTypeError(
                "log of the field is not integrable; no outer factor")
        raise ValueError(f"the field is not a trigonometric polynomial of "
                         f"degree <= {_ROOTS_MAX_DEGREE}")
    symbol = MatrixSymbol(_outer_from_laurent(laurent)[0][:, None, None])
    residual = factor_residual(symbol, values)
    target = 1e-9 * (1.0 + scale)
    if residual > target:
        raise ConvergenceError(
            f"root-split factor missed its grid target: residual "
            f"{residual:.3e} (target {target:.3e})",
            residual=residual,
        )
    return FactorizationReport(MatrixSymbol(trim_blocks(symbol.coeffs)), "roots", 0, 0.0,
                               residual=residual)


def trim_blocks(coeffs: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    mags = np.max(np.abs(coeffs), axis=(1, 2))
    scale = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > tol * scale)[0]
    last = int(keep[-1]) + 1 if keep.size else 1
    return coeffs[:last].copy()
