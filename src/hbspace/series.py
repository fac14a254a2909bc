"""Coefficient-level operations on truncated Taylor series.

All functions treat a 1-d complex ndarray ``c`` as the polynomial
``c[0] + c[1] z + ... + c[d] z**d``.  Everything here is exact coefficient
algebra; no grids are involved.
"""

import numpy as np

# blocks per chunk in ``banded_recurrence`` for block size 1; n x n blocks take 32 // n
_CHUNK = 32


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
    O(|lam|**degree).

    In closed form: the head q_k = sum_{j <= k} f_j lam_bar**(k - j) over the
    width w of f is one convolution, and past it q_{w-1+m} = q_{w-1} lam_bar**m."""
    a = as_coeffs(c)[: degree + 1]
    w = a.size
    powers = _powers(lam_bar, max(w, degree + 2 - w))
    head = np.convolve(a, powers[:w])[:w]
    return np.concatenate([head, head[-1] * powers[1: degree + 2 - w]])


def series_divide(num, den, degree) -> np.ndarray:
    """Power-series quotient num/den truncated at ``degree``; den[0] != 0.

    The recurrence den[0] q[k] = num[k] - sum_{m >= 1} den[m] q[k - m],
    scaled by 1/den[0], is run by ``banded_recurrence``: an overflowing
    quotient runs to inf/nan as the recurrence does instead of raising."""
    a = as_coeffs(num)
    b = as_coeffs(den)
    if abs(b[0]) == 0.0:
        raise ZeroDivisionError("denominator vanishes at z = 0")
    steps = (b[1:] / b[0])[:, None, None]
    return banded_recurrence(steps, (a[: degree + 1] / b[0])[:, None], degree + 1)[:, 0]


def banded_recurrence(steps, rhs, size) -> np.ndarray:
    """g_0, ..., g_{size-1} of g_m = r_m - sum_{k=1}^{p} S_k g_{m-k}, shape (size, n).

    ``steps`` holds S_1, ..., S_p, shape (p, n, n); ``rhs`` holds r_0, ...,
    r_{w-1}, shape (w, n), and r_m = 0 for m >= w; g_m = 0 for m < 0.  The
    system is block unit lower-triangular Toeplitz.  One dense solve, refined
    once, gives the first chunk of t = max(32 // n, p, w) blocks and the
    chunk's response Phi to the p blocks before it.  Past the right-hand side
    the recurrence is homogeneous, so chunk j >= 1 is Phi T^(j-1) s, with s
    the last p blocks of the first chunk and T the last p block rows of Phi:
    the states s, T s, T^2 s, ... come by doubling ([x, T x] with T squared
    at each step) and every later chunk from one matmul.  An error in T
    compounds over the chunks (on a symbol touching 1, T has eigenvalues on
    the circle): unrefined, it reached 3e-13 relative at 2048 blocks, and
    the refinement keeps it below 1e-13.  Nothing pivots beyond the first
    chunk, so an overflowing recurrence runs to inf/nan and does not raise.
    """
    rhs = np.asarray(rhs, dtype=complex)[:size]
    n = rhs.shape[1]
    steps = np.asarray(steps, dtype=complex)[: size - 1]  # lags >= size never act
    p = steps.shape[0]
    t = min(max(_CHUNK // n, p, rhs.shape[0]), size)
    # block (m, c) of [coupling | chunk] is S_{m+p-c} = ext[c - m], S_0 = I and
    # ext[p + 1] = 0; the coupling's p block columns act on the previous
    # chunk's last p blocks
    ext = np.concatenate([steps[::-1], np.eye(n, dtype=complex)[None],
                          np.zeros((1, n, n), dtype=complex)])
    offset = np.arange(t + p)[None, :] - np.arange(t)[:, None]
    band = ext[np.where((offset >= 0) & (offset <= p), offset, p + 1)]
    band = band.transpose(0, 2, 1, 3).reshape(t * n, (t + p) * n)
    chunk = band[:, p * n:]
    known = np.zeros((t * n, p * n + 1), dtype=complex)
    known[: rhs.size, 0] = rhs[:t].ravel()
    known[:, 1:] = -band[:, : p * n]
    solved = np.linalg.solve(chunk, known)
    solved += np.linalg.solve(chunk, known - chunk @ solved)
    head, phi = solved[:, 0], solved[:, 1:]
    later = -(-size // t) - 1
    states = head[(t - p) * n:, None]
    power = phi[(t - p) * n:]
    while states.shape[1] < later:
        states = np.concatenate([states, power @ states], axis=1)
        power = power @ power
    tail = (phi @ states[:, :later]).T.reshape(later * t, n)
    return np.concatenate([head.reshape(t, n), tail])[:size]


def _powers(x, count) -> np.ndarray:
    """1, x, ..., x**(count - 1), built by doubling."""
    out = np.ones(count, dtype=complex)
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        out[filled: filled + step] = out[:step] * (out[filled - 1] * x)
        filled += step
    return out


def convolve(a, b) -> np.ndarray:
    """Product of two polynomials."""
    return np.convolve(as_coeffs(a), as_coeffs(b))


def h2_norm_sq(a) -> float:
    a = as_coeffs(a)
    return float(np.vdot(a, a).real)


def szego_taylor(lam, degree) -> np.ndarray:
    """Taylor coefficients of 1 / (1 - conj(lam) z) up to ``degree``."""
    return _powers(np.conj(lam), degree + 1)
