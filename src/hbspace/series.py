"""Coefficient-level operations on truncated Taylor series.

All functions treat a 1-d complex ndarray ``c`` as the polynomial
``c[0] + c[1] z + ... + c[d] z**d``.  ``SzegoSum`` holds a finite sum of
polynomials times Szego kernels exactly, with its H^2 inner product in
closed form.  Everything here is exact coefficient algebra; no grids are
involved.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericalError

# least rows per chunk in ``banded_recurrence``: its dense solves are t x t
_CHUNK = 32
# largest dropped Taylor tail, relative to the kept coefficients, that a cut accepts
TAIL_TOL = 1e-10


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
    degree-d input the output has degree d - 1.  For an array of points the
    result has one column per point, shape (d,) + lam.shape, and ``c`` may
    hold one polynomial column per point, shape (d + 1,) + lam.shape.
    """
    shape = lam.shape if isinstance(lam, np.ndarray) else ()  # a point builds no array
    a = np.asarray(c, dtype=complex) if shape else as_coeffs(c)
    if a.shape[0] <= 1:
        return np.zeros((1,) + shape, dtype=complex)
    q = np.empty((a.shape[0] - 1,) + shape, dtype=complex)
    acc = 0.0 + 0.0j
    for k in range(a.shape[0] - 1, 0, -1):
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
    powers = power_table(lam_bar, max(w, degree + 2 - w))
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
    return banded_recurrence(b[1:] / b[0], (a[: degree + 1] / b[0])[:, None], degree + 1)[:, 0]


def banded_recurrence(steps, rhs, size) -> np.ndarray:
    """g_0, ..., g_{size-1} of g_m = r_m - sum_{k=1}^{p} s_k g_{m-k}, shape (size, c).

    ``steps`` holds the scalars s_1, ..., s_p; ``rhs`` holds r_0, ..., r_{w-1},
    shape (w, c), one column per right-hand side, and r_m = 0 for m >= w;
    g_m = 0 for m < 0.  The system is unit lower-triangular Toeplitz, so g is
    the Taylor series of r / (1 + s_1 z + ... + s_p z^p).  One dense solve,
    refined once, gives the first chunk of t = max(32, p, w) rows and the
    chunk's response Phi to the p rows before it.  Past the right-hand side
    the recurrence is homogeneous, so chunk j >= 1 is Phi T^(j-1) s, with s
    the last p rows of the first chunk and T the last p rows of Phi: the
    states s, T s, T^2 s, ... come by doubling ([x, T x] with T squared at
    each step) and every later chunk from one matmul.  An error in T
    compounds over the chunks (on a symbol touching 1, T has eigenvalues on
    the circle), and the refinement keeps it in check.  Nothing pivots
    beyond the first chunk, so an overflowing recurrence runs to inf/nan and
    does not raise.  When t covers ``size``, the solve carries the
    right-hand sides alone.
    """
    rhs = np.asarray(rhs, dtype=complex)[:size]
    c = rhs.shape[1]
    steps = np.asarray(steps, dtype=complex)[: size - 1]  # lags >= size never act
    p = steps.size
    t = min(max(_CHUNK, p, rhs.shape[0]), size)
    # row m of [coupling | chunk] is the strip [s_p, ..., s_1, 1] moved right
    # by m, one strided view writing all p + 1 diagonals at once; the
    # coupling's p columns act on the previous chunk's last p rows
    band = np.zeros((t, t + p), dtype=complex)
    rows, cols = band.strides
    as_strided(band, (t, p + 1), (rows + cols, cols),
               writeable=True)[:] = np.append(steps[::-1], 1.0)
    chunk = band[:, p:]
    # when the first chunk covers the request, no later chunk needs Phi
    known = np.zeros((t, c if t == size else c + p), dtype=complex)
    known[: rhs.shape[0], :c] = rhs[:t]
    known[:, c:] = -band[:, : known.shape[1] - c]
    solved = np.linalg.solve(chunk, known)
    solved += np.linalg.solve(chunk, known - chunk @ solved)
    head, phi = solved[:, :c], solved[:, c:]
    if t == size:
        return head
    later = -(-size // t) - 1
    states = head[t - p:]  # (p, c) per chunk, chunk-major columns
    power = phi[t - p:]
    while states.shape[1] < later * c:
        states = np.concatenate([states, power @ states], axis=1)
        power = power @ power
    tail = (phi @ states[:, : later * c]).reshape(t, later, c).transpose(1, 0, 2)
    return np.concatenate([head, tail.reshape(later * t, c)])[:size]


def power_table(x, count) -> np.ndarray:
    """x**0, ..., x**(count - 1) for each entry of x, shape x.shape + (count,)."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape + (count,), dtype=complex)
    out[...] = x[..., None]
    out[..., :1] = 1.0
    return out.cumprod(axis=-1, out=out)


def convolve(a, b) -> np.ndarray:
    """Product of two polynomials."""
    return np.convolve(as_coeffs(a), as_coeffs(b))


def h2_norm_sq(a) -> float:
    a = as_coeffs(a)
    return float(np.vdot(a, a).real)


def szego_taylor(lam, degree) -> np.ndarray:
    """Taylor coefficients of 1 / (1 - conj(lam) z) up to ``degree``."""
    return power_table(np.conj(lam), degree + 1)


def _stack_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The terms (..., J, W) of a then of b, zero-padded to the wider width."""
    terms, width = a.shape[-2] + b.shape[-2], max(a.shape[-1], b.shape[-1])
    out = np.zeros(a.shape[:-2] + (terms, width), dtype=complex)
    out[..., : a.shape[-2], : a.shape[-1]] = a
    out[..., a.shape[-2]:, : b.shape[-1]] = b
    return out


class SzegoSum:
    """f = sum_j P_j(z) s_{mu_j}(z) with s_mu = 1 / (1 - conj(mu) z), held exactly.

    ``coeffs`` (..., J, W) holds the polynomials P_j, with leading axes for
    vector-valued sums; ``points`` (J,) holds the mu_j, |mu_j| < 1.  Past its
    polynomial width a term's Taylor coefficients are geometric,
    q_{W-1+m} = q_{W-1} conj(mu)^m, so a term is a head of W coefficients
    plus that tail, and every H^2 inner product is a finite sum:
    <f, g> = <heads> + sum_jk q_{W-1} conj(q'_{W-1}) conj(mu_j) nu_k / (1 - conj(mu_j) nu_k).
    Scalars multiply and sums add (``sum`` of terms works); numpy arrays do
    not mix in.  Only ``taylor`` cuts the series, and it refuses a cut whose
    dropped tail is not negligible.  ``attached`` is None or (key, rows (...,
    J, W')) kept term by term beside the sum (a kernel's companion numerators);
    scalar multiples keep it, sums keep it when the keys are equal.
    """

    __array_ufunc__ = None  # numpy defers to __rmul__ / __radd__
    attached = None

    def __init__(self, coeffs, points):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.points = np.atleast_1d(np.asarray(points, dtype=complex))
        if self.coeffs.ndim < 2 or self.coeffs.shape[-2] != self.points.size:
            raise ValueError("coefficients must have shape (..., terms, width)")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
        if not np.all(np.abs(self.points) < 1.0):
            raise ValueError("Szego points must satisfy |mu| < 1")

    @classmethod
    def trusted(cls, coeffs: np.ndarray, points: np.ndarray) -> "SzegoSum":
        """Wrap complex arrays that already meet the invariants, unchecked."""
        out = cls.__new__(cls)
        out.coeffs, out.points = coeffs, points
        return out

    @classmethod
    def of(cls, c) -> "SzegoSum":
        """``c`` itself, or the polynomial with coefficients c[..., :] as one term at 0."""
        if isinstance(c, cls):
            return c
        return cls.trusted(np.asarray(c, dtype=complex)[..., None, :], np.zeros(1, dtype=complex))

    @property
    def width(self) -> int:
        return self.coeffs.shape[-1]

    def __len__(self) -> int:
        """The length of the leading axis of a vector-valued sum."""
        if self.coeffs.ndim == 2:
            raise TypeError("a scalar Szego sum has no leading axis")
        return self.coeffs.shape[0]

    def __getitem__(self, index) -> "SzegoSum":
        """The entries ``index`` (an integer or a slice) of the leading axis."""
        if self.coeffs.ndim == 2:
            raise TypeError("a scalar Szego sum has no leading axis")
        return SzegoSum.trusted(self.coeffs[index], self.points)

    def __mul__(self, scalar):
        if np.ndim(scalar) != 0:
            return NotImplemented
        if not np.isfinite(scalar):
            raise ValueError("coefficients must be finite")
        out = SzegoSum.trusted(scalar * self.coeffs, self.points)
        if self.attached is not None:
            out.attached = (self.attached[0], scalar * self.attached[1])
        return out

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SzegoSum):
            return self if np.ndim(other) == 0 and other == 0 else NotImplemented
        if self.coeffs.shape[:-2] != other.coeffs.shape[:-2]:
            raise ValueError("Szego sums of different shapes")
        out = SzegoSum.trusted(_stack_terms(self.coeffs, other.coeffs),
                               np.concatenate([self.points, other.points]))
        mine, theirs = self.attached, other.attached
        if mine is not None and theirs is not None and (
                mine[0] is theirs[0] or np.array_equal(mine[0], theirs[0])):
            out.attached = (mine[0], _stack_terms(mine[1], theirs[1]))
        return out

    __radd__ = __add__

    def heads(self, width) -> np.ndarray:
        """Taylor coefficients 0..width-1 of each term, shape (..., J, width),
        width >= W: each P_j convolved with the powers of conj(mu_j), as one
        batched matmul with the sliding windows (a strided view, nothing
        copied) of the powers padded by W - 1 zeros."""
        w = self.width
        padded = np.zeros((self.points.size, w - 1 + width), dtype=complex)
        padded[:, w - 1:] = power_table(np.conj(self.points), width)
        step = padded.strides[1]
        windows = np.ndarray((self.points.size, w, width), complex, padded, 0,
                             (padded.strides[0], step, step))  # [j, i, k] = padded[j, i + k]
        return (self.coeffs[..., None, ::-1] @ windows)[..., 0, :]

    def coefficients(self, count) -> np.ndarray:
        """The first ``count`` Taylor coefficients, exact, shape (..., count)."""
        return self.heads(max(count, self.width)).sum(axis=-2)[..., :count]

    def taylor(self, degree, tol=TAIL_TOL) -> np.ndarray:
        """Taylor coefficients 0..degree; raises NumericalError when the l1
        norm of the dropped ones exceeds ``tol`` times the largest kept one."""
        heads = self.heads(max(degree + 1, self.width))
        kept = heads.sum(axis=-2)[..., : degree + 1]
        ratio = np.abs(self.points)
        dropped = (np.sum(np.abs(heads[..., degree + 1:]))
                   + np.sum(np.abs(heads[..., -1]) * ratio / (1.0 - ratio)))
        scale = float(np.max(np.abs(kept), initial=0.0))
        if dropped > tol * scale:
            raise NumericalError(
                f"Taylor cut at degree {degree} drops a tail of {dropped:.2e} against "
                f"coefficients of size {scale:.2e}; largest |mu| = {np.max(ratio):.6g}")
        return kept

    def roundoff_degree(self) -> int:
        """The smallest degree d >= W - 1 at which the l1 norm of the dropped
        geometric tails, sum_j |q_{W-1}| |mu_j|^(d-W+2) / (1 - |mu_j|), is at most
        eps times the largest head coefficient (1/J of it per term), in closed
        form from the heads: a ``taylor`` cut there drops only roundoff."""
        heads = self.heads(self.width)
        last = np.abs(heads[..., -1]).reshape(-1, self.points.size).sum(axis=0)
        ratio = np.abs(self.points)
        live = (last > 0.0) & (ratio > 0.0)
        room = (np.finfo(float).eps * np.max(np.abs(heads)) * (1.0 - ratio[live])
                / (self.points.size * last[live]))
        steps = np.log(room) / np.log(ratio[live])  # m at which the tail from m fits
        return self.width - 2 + max(1, int(np.ceil(np.max(steps, initial=1.0))))

    def inner(self, other: "SzegoSum") -> complex:
        """H^2 inner product <self, other>, summed over the leading axes."""
        width = max(self.width, other.width)
        ha, hb = self.heads(width), other.heads(width)
        rho = np.conj(self.points)[:, None] * other.points
        tail = np.sum((ha[..., -1] @ (rho / (1.0 - rho))) * np.conj(hb[..., -1]))
        return complex(np.vdot(hb.sum(axis=-2), ha.sum(axis=-2)) + tail)

    def term_gram(self, other: "SzegoSum") -> np.ndarray:
        """G[j, l] = <term j of self, term l of other>, summed over the leading
        axes (which must agree): the heads' dot products plus the geometric
        tails, shape (J, L)."""
        width = max(self.width, other.width)
        ha = self.heads(width).reshape(-1, self.points.size, width)
        hb = (ha if other is self else
              other.heads(width).reshape(-1, other.points.size, width)).conj()
        rho = np.conj(self.points)[:, None] * other.points
        tails = np.einsum("rj,rl->jl", ha[..., -1], hb[..., -1])
        return np.einsum("rjw,rlw->jl", ha, hb) + tails * (rho / (1.0 - rho))

    def backward(self) -> "SzegoSum":
        """The backward shift L, termwise: L(P s_mu) = (L P) s_mu + P(0) conj(mu) s_mu."""
        coeffs = np.zeros(self.coeffs.shape[:-1] + (max(self.width - 1, 1),), dtype=complex)
        coeffs[..., : self.width - 1] = self.coeffs[..., 1:]
        coeffs[..., 0] += self.coeffs[..., 0] * np.conj(self.points)
        return SzegoSum.trusted(coeffs, self.points)

    def norms_sq(self) -> np.ndarray:
        """Squared H^2 norm of each entry of a vector-valued sum, shape coeffs.shape[:-2]."""
        heads = self.heads(self.width)
        rho = np.conj(self.points)[:, None] * self.points
        tail = np.sum((heads[..., -1] @ (rho / (1.0 - rho))) * np.conj(heads[..., -1]), axis=-1)
        return np.sum(np.abs(heads.sum(axis=-2)) ** 2, axis=-1) + tail.real

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.norms_sq()))
