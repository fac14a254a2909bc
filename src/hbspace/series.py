"""Coefficient-level operations on truncated Taylor series.

All functions treat a 1-d complex ndarray ``c`` as the polynomial
``c[0] + c[1] z + ... + c[d] z**d``.  Everything here is exact coefficient
algebra; no grids are involved.
"""

import numpy as np
from scipy.linalg.lapack import ztbtrs


def as_coeffs(c) -> np.ndarray:
    a = np.atleast_1d(np.asarray(c, dtype=complex))
    if a.ndim != 1:
        raise ValueError("coefficient array must be one-dimensional")
    return a


def finite_coeffs(c) -> np.ndarray:
    """``as_coeffs`` for public entry points: refuses NaN and infinities."""
    a = as_coeffs(c)
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    return a


def trim(c, tol=0.0) -> np.ndarray:
    """Drop trailing coefficients with magnitude <= tol (keeps at least one)."""
    a = as_coeffs(c)
    keep = np.nonzero(np.abs(a) > tol)[0]
    if keep.size == 0:
        return a[:1] * 0
    return a[: keep[-1] + 1]


def horner(c, z):
    """Evaluate the polynomial at scalar or array argument z."""
    a = as_coeffs(c)
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for ck in a[::-1]:
        out = out * z + ck
    return out if out.ndim else complex(out)


def shift_up(c) -> np.ndarray:
    """Multiply by z."""
    a = as_coeffs(c)
    return np.concatenate([[0.0 + 0.0j], a])


def shift_down(c) -> np.ndarray:
    """Backward shift (f - f(0)) / z."""
    a = as_coeffs(c)
    if a.size <= 1:
        return np.zeros(1, dtype=complex)
    return a[1:].copy()


def divided_difference(c, lam) -> np.ndarray:
    """Coefficients of (f(z) - f(lam)) / (z - lam).

    This is the resolvent-type shift L applied at the point lam; for a
    degree-d input the output has degree d - 1.
    """
    a = as_coeffs(c)
    if a.size <= 1:
        return np.zeros(1, dtype=complex)
    q = np.empty(a.size - 1, dtype=complex)
    acc = 0.0 + 0.0j
    for k in range(a.size - 1, 0, -1):
        acc = a[k] + lam * acc
        q[k - 1] = acc
    return q


def geometric_divide(c, lam_bar, degree) -> np.ndarray:
    """Coefficients of f(z) / (1 - conj(lam) z) truncated at ``degree``;
    ``lam_bar`` is conj(lam), and for |lam| < 1 the truncation error is
    O(|lam|**degree)."""
    return series_divide(c, [1.0, -lam_bar], degree)


def series_divide(num, den, degree) -> np.ndarray:
    """Power-series quotient num/den truncated at ``degree``; den[0] != 0.

    The recurrence den[0] q[k] = num[k] - sum_{m >= 1} den[m] q[k - m],
    scaled by 1/den[0], is a unit lower-triangular banded system, solved by
    substitution: unlike a pivoting solver, an overflowing quotient runs to
    inf/nan as the recurrence does instead of raising."""
    a = as_coeffs(num)
    b = as_coeffs(den)
    if abs(b[0]) == 0.0:
        raise ZeroDivisionError("denominator vanishes at z = 0")
    rhs = np.zeros(degree + 1, dtype=complex)
    rhs[:min(a.size, degree + 1)] = a[:degree + 1] / b[0]
    band = np.empty((min(b.size, degree + 1), degree + 1), dtype=complex, order="F")
    band[:] = (b[:band.shape[0]] / b[0])[:, None]  # entries past the matrix are not read
    q, _ = ztbtrs(band, rhs[:, None], uplo="L", diag="U", overwrite_b=1)
    return q[:, 0]


def convolve(a, b) -> np.ndarray:
    """Product of two polynomials."""
    return np.convolve(as_coeffs(a), as_coeffs(b))


def h2_norm_sq(a) -> float:
    a = as_coeffs(a)
    return float(np.vdot(a, a).real)


def szego_taylor(lam, degree) -> np.ndarray:
    """Taylor coefficients of 1 / (1 - conj(lam) z) up to ``degree``."""
    return np.conj(lam) ** np.arange(degree + 1)
