"""Matrix spectral factorization on the circle.

Given Hermitian PSD boundary samples Phi(zeta), find the analytic outer
matrix function A with A(zeta)* A(zeta) = Phi(zeta), normalized so A(0) is
lower triangular with positive diagonal.  Primary algorithm is Wilson's
Newton-type iteration; fallbacks are an exact root-splitting path for scalar
trigonometric polynomials and Bauer's block-Toeplitz Cholesky.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, rq

from .errors import ConvergenceError, ExtremeTypeError
from .harmonic import grid_points, log_diagnostic

_EPS_FLOOR = 1e-10
_MAX_ITER = 200
_STEP_TOL = 1e-12


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
class FactorizationReport:
    symbol: MatrixSymbol
    residual: float
    method: str
    iterations: int
    regularization: float


def _as_field(phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None, None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("expected boundary field of shape (N, n, n) or (N,)")
    return arr


def _hermitize(field: np.ndarray) -> np.ndarray:
    return 0.5 * (field + np.conj(np.transpose(field, (0, 2, 1))))


def _min_eigenvalue(field: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(field)))


def factor_residual(a, phi) -> float:
    """sup over the grid of the spectral norm of A* A - Phi."""
    phi = _as_field(phi)
    a_samples = a.samples(phi.shape[0]) if isinstance(a, MatrixSymbol) else _as_field(a)
    if a_samples.shape != phi.shape:
        raise ValueError("dimension mismatch between factor and field")
    diff = np.conj(np.transpose(a_samples, (0, 2, 1))) @ a_samples - phi
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(1, 2))))


def _analytic_coeffs(samples: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Analytic-part Taylor blocks of sampled matrix data, tail-trimmed."""
    n_grid = samples.shape[0]
    coeffs = np.fft.fft(samples, axis=0) / n_grid
    coeffs = coeffs[: n_grid // 2]
    mags = np.max(np.abs(coeffs), axis=(1, 2))
    scale = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > tol * scale)[0]
    last = int(keep[-1]) + 1 if keep.size else 1
    return coeffs[:last].copy()


def _plus_half(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic projection with halved zero mode, sampled back on the grid."""
    n_grid = g.shape[0]
    coeffs = np.fft.fft(g, axis=0) / n_grid
    coeffs[0] *= 0.5
    g0 = coeffs[0].copy()
    coeffs[n_grid // 2:] = 0.0  # Nyquist and negative orders
    return np.fft.ifft(coeffs, axis=0) * n_grid, g0


def _wilson(phi_t: np.ndarray, max_iter: int, tol: float) -> tuple[np.ndarray, int]:
    """Iterate psi with psi psi* = phi_t; returns grid samples of psi."""
    n_grid, n, _ = phi_t.shape
    mean0 = _hermitize(phi_t.mean(axis=0)[None])[0]
    vals, vecs = eigh(mean0)
    psi0 = (vecs * np.sqrt(np.clip(vals, 1e-300, None))) @ vecs.conj().T
    psi = np.tile(psi0, (n_grid, 1, 1))
    eye = np.eye(n)
    for it in range(1, max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        g = psi_inv @ phi_t @ np.conj(np.transpose(psi_inv, (0, 2, 1))) + eye
        g_plus, g0 = _plus_half(g)
        s = np.triu(g0, 1)
        s = s - s.conj().T
        step = g_plus + s
        psi_next = psi @ step
        delta = float(np.max(np.abs(psi_next - psi)))
        psi = psi_next
        if delta < tol * max(1.0, float(np.max(np.abs(psi)))):
            return psi, it
    return psi, max_iter


def _gauge_fix(coeffs: np.ndarray) -> np.ndarray:
    """Left-multiply by the constant unitary making A(0) lower triangular
    with positive diagonal."""
    a0 = coeffs[0]
    r, q = rq(a0.conj().T)
    u = q  # u a0 = (r q)^H q ... = r^H, lower triangular
    lower = u @ a0
    phases = np.diagonal(lower).copy()
    phases = np.where(np.abs(phases) < 1e-300, 1.0, phases / np.abs(phases))
    u = np.diag(np.conj(phases)) @ u
    return np.einsum("ij,kjl->kil", u, coeffs)


def _scalar_roots_factor(phi_scalar: np.ndarray) -> np.ndarray | None:
    """Exact factor for a scalar trigonometric polynomial via root splitting.

    Returns Taylor coefficients (d+1, 1, 1) or None if the data is not a
    trigonometric polynomial of modest degree.
    """
    n_grid = phi_scalar.size
    c = np.fft.fft(phi_scalar) / n_grid
    mags = np.abs(c)
    scale = float(mags.max())
    band = np.nonzero(mags > 1e-12 * scale)[0]
    orders = np.where(band <= n_grid // 2, band, band - n_grid)
    p = int(np.max(np.abs(orders)))
    if p == 0:
        return np.sqrt(np.abs(c[0].real)).reshape(1, 1, 1).astype(complex)
    if p > 64 or np.any(np.abs(orders) > p):
        return None
    # Laurent polynomial z**p Phi(z) has roots in 1/conj pairs.
    laurent = np.zeros(2 * p + 1, dtype=complex)
    for k in range(-p, p + 1):
        laurent[k + p] = c[k % n_grid]
    roots = np.roots(laurent[::-1])
    outside = roots[np.abs(roots) > 1.0]
    if outside.size != p:
        return None
    a1 = np.ones(1, dtype=complex)
    for r in outside:
        a1 = np.convolve(a1, np.array([1.0, -1.0 / r]))
    zeta = grid_points(n_grid)
    mod2 = np.abs(np.polyval(a1[::-1], zeta)) ** 2
    j = int(np.argmax(phi_scalar))
    gain = np.sqrt(phi_scalar[j].real / mod2[j])
    return (gain * a1).reshape(-1, 1, 1)


def _bauer_factor(phi: np.ndarray, blocks: int = 64) -> np.ndarray:
    """Bauer's method on the transposed field.

    The trailing block row of the Cholesky factor of the finite section
    [hat(Phi^T)_{i-j}] converges (slowly but robustly) to the coefficients of
    the left factor X with X X* = Phi^T; transposing blocks gives A with
    A* A = Phi.
    """
    n_grid, n, _ = phi.shape
    phi_t = np.transpose(phi, (0, 2, 1))
    lags = np.fft.fft(phi_t, axis=0) / n_grid  # lags[k] = hat(Phi^T)_k
    t = np.zeros((blocks * n, blocks * n), dtype=complex)
    for i in range(blocks):
        for j in range(blocks):
            t[i * n:(i + 1) * n, j * n:(j + 1) * n] = lags[(i - j) % n_grid]
    low = cholesky(0.5 * (t + t.conj().T), lower=True)
    last = low[(blocks - 1) * n: blocks * n]
    coeffs = np.empty((blocks, n, n), dtype=complex)
    for k in range(blocks):
        x_k = last[:, (blocks - 1 - k) * n:(blocks - k) * n]
        coeffs[k] = x_k.T
    return coeffs


def matrix_outer_factor(phi, max_iter: int = _MAX_ITER, tol: float = _STEP_TOL,
                        eps_floor: float = _EPS_FLOOR,
                        residual_target: float | None = None) -> FactorizationReport:
    """Outer spectral factor of a Hermitian PSD boundary field.

    Raises ExtremeTypeError when log det Phi is not integrable (no analytic
    factor exists) and ConvergenceError when no route reaches the residual
    target.  Fields touching zero are floored by eps * I and the
    regularization is reported.
    """
    phi = _hermitize(_as_field(phi))
    n_grid, n, _ = phi.shape
    if n > 8:
        raise ValueError("matrix factorization is supported for n <= 8")
    scale = float(np.max(np.abs(phi))) if phi.size else 0.0
    if residual_target is None:
        residual_target = 1e-9 * (1.0 + scale)
    min_eig = _min_eigenvalue(phi)
    if min_eig < -1e-10 * max(scale, 1.0):
        raise ValueError("input field is not positive semidefinite")
    dets = np.linalg.det(phi).real
    if not log_diagnostic(np.maximum(dets, 0.0)).finite:
        raise ExtremeTypeError(
            "log det of the defect field is not integrable; no outer factor"
        )
    regularization = 0.0
    work = phi
    if min_eig < eps_floor:
        regularization = eps_floor
        work = phi + eps_floor * np.eye(n)[None]

    phi_t = np.transpose(work, (0, 2, 1))  # psi psi* = Phi^T  <=>  A*A = Phi
    psi, iterations = _wilson(phi_t, max_iter, tol)
    coeffs = _gauge_fix(_analytic_coeffs(np.transpose(psi, (0, 2, 1))))
    symbol = MatrixSymbol(coeffs)
    residual = factor_residual(symbol, phi)
    method = "wilson"

    if residual > residual_target and n == 1:
        alt = _scalar_roots_factor(work[:, 0, 0].real)
        if alt is not None:
            alt_symbol = MatrixSymbol(_gauge_fix(alt))
            alt_residual = factor_residual(alt_symbol, phi)
            if alt_residual < residual:
                symbol, residual, method = alt_symbol, alt_residual, "roots"

    if residual > residual_target:
        alt = _bauer_factor(work)
        alt_symbol = MatrixSymbol(_gauge_fix(_analytic_coeffs(
            MatrixSymbol(alt).samples(n_grid))))
        alt_residual = factor_residual(alt_symbol, phi)
        if alt_residual < residual:
            symbol, residual, method = alt_symbol, alt_residual, "bauer"

    if residual > residual_target:
        raise ConvergenceError(
            f"spectral factorization stalled at residual {residual:.3e} "
            f"(target {residual_target:.3e})",
            residual=residual,
        )
    symbol = MatrixSymbol(trim_blocks(symbol.coeffs))
    return FactorizationReport(symbol, residual, method, iterations, regularization)


def trim_blocks(coeffs: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    mags = np.max(np.abs(coeffs), axis=(1, 2))
    scale = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > tol * scale)[0]
    last = int(keep[-1]) + 1 if keep.size else 1
    return coeffs[:last].copy()
