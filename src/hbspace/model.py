"""The isometric model embedding f -> (f, f_1).

A member f of the space attached to a row symbol B has a unique companion
vector f_1 in the Hardy space of C^k making B* f + A* f_1 strictly
co-analytic, where A is the outer defect factor with A*A + B*B = I, taken
exactly from the polynomial symbol by ``spectral.row_defect_factor`` and
bounded over the whole circle from Laurent coefficients.  The squared space
norm is ||f||_2^2 + ||f_1||_2^2.  The companion count k is n; it is 0 for the
Hardy space (n = 0) and for a scalar inner b (d = 0), where A has no rows.

For polynomial data the model is finite and exact.  The factor comes from
the paraunitary completion [[B, a_rev], [A, C]] of the lossless row
(B, a_rev), so B* a_rev + A* C = 0 on the circle, and the Taylor
coefficients g_m (in conj(zeta)) of A*^{-1} B* are those of a quotient
with the scalar denominator conj(a), a the outer factor of the scalar
defect.  A handle computes them once by one scalar recurrence with n
right-hand sides (one dense solve for a first chunk, the rest by matmuls
with repeated squaring) and grows them on demand by doubling (a has no
zeros in the open disk, so the recurrence is stable; zeros on the circle
make g grow at most polynomially).  The companion of a polynomial is then
the correlation f_1[j] = -sum_{k >= j} g_{k-j} f_k, the monomial Gram is
I + T*T with T the block Toeplitz matrix of those companions, and the
Szego kernel s_w has the companion -A(w)^{-*} B(w)* s_w.  The residual of
a pair is the norm of the nonnegative Laurent coefficients of
B* f + A* f_1, a finite sum; its negative coefficients are the co-analytic
data that the forward shift and the resolvent read.  No circle grid enters the embedding.  A
handle caches the spectra of its constants [B*, A*] and g per FFT size, so a
warm embed transforms only its input; regrowing g drops the g spectra.

A ``ModelPair`` is one block of rows [f; f_1], shape (1 + k, W), which every
computation on it reads whole, and the Laurent block of u = B* f + A* f_1 on
the orders -P, ..., W - 1 (P the symbol degree) that the handle computed
with it by one Laurent product of the rows with [B*, A*].  The residual is
the norm of the block's orders >= 0, and the norm and the inner product are
H^2 products of the rows.  The backward shift drops the rows' first column
and the forward shift moves them up a column and sets the companions'
constant term; both update the block in closed form, with no second
product, and the resolvent reads its negative orders.  Each producer hands
over the rows it builds, with their block, residual and norm; a pair built
elsewhere gets its block computed once, when a shift action first reads it.

Kernel functions are exact: k_lam = N_lam s_lam with the polynomial
N_lam = 1 - sum_i conj(b_i(lam)) b_i, a ``series.SzegoSum``.  The pair of a
term P s_lam is (P s_lam, (f_1 - c e_0) s_lam), with f_1 the companion of
the polynomial P and c = A(lam)^{-*} U(conj(lam)), U the co-analytic part of
B* P + A* f_1.  The nonnegative part of B* f + A* f_1 is then
(X + U(conj(lam)) - A(lam)* c) s_lam, X the polynomial pair's own, so the
residual is the H^2 norm of a Szego sum: finite, with no Taylor cut.  A
kernel's companion is -A(z) B(lam)* s_lam in closed form; ``kernel_taylor``
attaches these numerators to its sum, combinations keep them, and ``embed``
takes them with no correlation and no solve by A(lam)*, its residual still
computed from the rows by the Laurent product with [B*, A*].  The exact pair
holds its rows as a ``SzegoSum`` with the leading axis 1 + k.
"""

import numpy as np

from .errors import ExtremeTypeError, NumericalError
from .harmonic import DEFAULT_GRID
from .series import (
    SzegoSum,
    banded_recurrence,
    finite_coeffs,
    h2_norm_sq,
    power_table,
)
from .spectral import MatrixSymbol, row_defect_factor
from .symbols import (
    MembershipReport,
    ModelPair,
    RowSymbol,
    _check_strict_interior,
    gram_matrix,
    kernel_diagonal,
    kernel_eval,
    pair_inner,
    row_values,
)


def _fft_size(length: int) -> int:
    return 1 << max(length - 1, 1).bit_length()


def _coefficient_pair(pair: ModelPair) -> ModelPair:
    """``pair``, refused when exact: the shift actions read coefficient arrays."""
    if pair.exact:
        raise ValueError("shift actions take coefficient pairs; embed a .taylor(d) cut")
    return pair


class SpaceHandle:
    """A ready-to-compute space: symbol, defect factor, caches.

    ``k`` is the companion count, the rows of the defect factor A.  ``mode``
    is ``inner`` for n >= 1 with k = 0 (the space sits isometrically in the
    Hardy space and only backward-shift operations apply) and ``analytic``
    otherwise.  A build reads the symbol's defect split, so it splits no roots
    of its own; it fails with ExtremeTypeError for rows of rank >= 2 whose
    defect vanishes identically.
    """

    # the kernel is closed-form, so it is resolved at every radius
    kernel_radius = 1.0

    def __init__(self, symbol: RowSymbol, n_grid: int = DEFAULT_GRID,
                 degree: int | None = None, tol_membership: float = 1e-7,
                 tol_solve: float = 1e-10):
        self.symbol = symbol
        self.n_grid = n_grid
        self.degree = n_grid // 4 if degree is None else degree
        self.tol_membership = tol_membership
        self.tol_solve = tol_solve
        self._factorization = None
        self._g = np.zeros((symbol.n, 0), dtype=complex)
        self._gram: np.ndarray | None = None
        self._spectra: dict[tuple[str, int], np.ndarray] = {}

        rows, a = symbol.rows, np.zeros((1, 0, symbol.n))  # A with no rows
        inner = symbol.n == 1 and symbol.defect.outer is None  # d = 0: b is inner
        if symbol.n and not inner:
            self._factorization = row_defect_factor(rows, symbol.defect)
            a = self._factorization.symbol.coeffs
        self.k = a.shape[1]
        self.mode = "inner" if inner else "analytic"
        # w[t] = [B_t*, A_t*], the Taylor blocks in conj(zeta) of [B*, A*]
        self._w = np.zeros((max(a.shape[0], rows.shape[1]), symbol.n, 1 + self.k), dtype=complex)
        self._w[: rows.shape[1], :, 0] = rows.T.conj()
        self._w[: a.shape[0], :, 1:] = np.conj(np.transpose(a, (0, 2, 1)))
        self._a_transpose = np.conj(self._w[:, :, 1:])  # [t, i, j] = A_t[j, i]
        self._depth = self._w.shape[0] - 1  # P: u = B* f + A* f_1 has no order below -P

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.symbol.n

    @property
    def mz_invariant(self) -> bool:
        return self.k == self.n

    @property
    def truncated(self) -> bool:
        return self.symbol.truncated

    @property
    def factorization(self):
        """The build's ``FactorizationReport`` (None without a factor),
        read-only so that its certificate describes the factor embed uses."""
        return self._factorization

    @property
    def factor(self) -> MatrixSymbol | None:
        """The outer defect factor A that the embedding uses."""
        return None if self._factorization is None else self._factorization.symbol

    def defect_identity_residual(self) -> float:
        """Bound on sup over the whole circle of || A*A + B*B - I ||, from
        the Laurent coefficients of the factor and the symbol: the bound
        ``row_defect_factor`` certified at the build."""
        return 0.0 if self._factorization is None else self._factorization.residual

    def kernel(self, z, lam):
        return kernel_eval(self.symbol, z, lam)

    def gram(self, points) -> np.ndarray:
        return gram_matrix(self.symbol, points)

    def kernel_diagonal(self, points) -> np.ndarray:
        return kernel_diagonal(self.symbol, points)

    def kernel_taylor(self, lam) -> SzegoSum:
        """The kernel function at lam, exactly: N_lam s_lam with the polynomial
        N_lam = 1 - sum_i conj(b_i(lam)) b_i.  ``.taylor(d)`` cuts it.  It carries
        its companion numerators -A(z) B(lam)*, keyed by [B*, A*]."""
        _check_strict_interior(lam)
        conj_b = np.conj(row_values(self.symbol.rows, lam))
        num = -conj_b @ self.symbol.rows
        num[0] += 1.0
        out = SzegoSum.trusted(num[None], np.array([lam], dtype=complex))
        if self.n:  # A_t conj(b) = conj(b w[t, :, 1:]) = conj(b) conj(w[t, :, 1:])
            out.attached = (self._w, -(conj_b @ self._a_transpose).T[:, None])
        return out

    def szego_density(self, points) -> np.ndarray:
        """(1 - |w|^2) ||s_w||^2 for the Szego kernel s_w = 1 / (1 - conj(w) z).

        The companion of s_w is -A(w)^{-*} B(w)* s_w, so the value is
        1 + ||A(w)^{-*} B(w)*||^2, exact at every interior point.
        """
        if not self.mz_invariant:
            raise ExtremeTypeError("the Szego density needs the analytic model")
        pts = np.asarray(points, dtype=complex)
        _check_strict_interior(pts)
        if not self.k:
            return np.ones(pts.shape)
        rows = row_values(self.symbol.rows, pts)
        v = np.linalg.solve(self._factor_adjoint(pts), np.conj(rows)[..., None])[..., 0]
        return 1.0 + np.sum(np.abs(v) ** 2, axis=-1)

    def _factor_adjoint(self, points) -> np.ndarray:
        """A(w)* at each point, shape points.shape + (n, n)."""
        powers = power_table(points, self.factor.coeffs.shape[0])
        return np.conj(np.einsum("...k,kji->...ij", powers, self.factor.coeffs))

    # -- the embedding -----------------------------------------------------

    def _correlation(self, length: int) -> np.ndarray:
        """g_0, ..., g_{length-1} as columns, grown by doubling on demand.

        The completion [[B, a_rev], [A, C]] (``factorization.column`` is C)
        has orthonormal columns on the circle, so B* a_rev + A* C = 0 there.
        With a_rev(zeta) = zeta^p conj(a(zeta)), that makes A*^{-1} B* =
        -C_rev(w) / conj(a)(w) in w = conj(zeta), where C_rev is C reversed
        over its p + 1 blocks and conj(a) has the conjugate coefficients of
        the defect's outer factor a.  The zeros of conj(a) are the conjugates
        of those of a, so none lies in the open disk, and g is the Taylor
        series of that quotient: one scalar recurrence with n right-hand
        sides, run by ``series.banded_recurrence``.
        """
        if self._g.shape[1] < length:
            size = max(length, 2 * self._g.shape[1])
            den = np.conj(self.symbol.defect.outer)
            rhs = self._factorization.column[::-1] / -den[0]
            self._g = banded_recurrence(den[1:] / den[0], rhs, size).T.copy()
            self._spectra = {key: v for key, v in self._spectra.items() if key[0] == "w"}
        return self._g[:, :length]

    def _companions(self, c: np.ndarray) -> np.ndarray:
        """The correlation f_1[j] = -sum_{k >= j} g_{k-j} f_k, one FFT product;
        batched over leading axes of ``c`` (..., L), shape (..., k, L).  The cached
        spectrum of g_0..g_{size/2-1} serves every L: lags k >= L reach only outputs past L - 1."""
        length = c.shape[-1]
        if not self.k:
            return np.zeros(c.shape[:-1] + (0, length), dtype=complex)
        size = _fft_size(2 * length - 1)
        g_hat = self._spectra.get(("g", size))
        if g_hat is None:  # _correlation may regrow g, dropping the g spectra
            g_hat = -np.fft.fft(self._correlation(size // 2), size, axis=1)
            self._spectra["g", size] = g_hat  # of -g, so the product needs no negation
        spectrum = g_hat * np.fft.fft(c[..., None, ::-1], size)
        return np.fft.ifft(spectrum, axis=-1)[..., length - 1::-1]

    def _laurent(self, rows: np.ndarray) -> np.ndarray:
        """The Laurent block of the rows [f; f_1]: the coefficients of
        u = B* f + A* f_1 on the orders -P, ..., L - 1, order m at index P + m.

        Batched over leading axes of ``rows`` (..., 1 + k, L), shape
        (..., n, P + L).  zeta^P u is a polynomial of degree below P + L, so
        one FFT product at padded length gives all of u exactly.  Its orders
        >= 0 give the residual, its negative orders the co-analytic data that
        the forward shift and the resolvent read.  Its callers answer the
        Hardy space (n = 0) themselves.
        """
        width, length = self._w.shape[0], rows.shape[-1]
        size = _fft_size(width + length - 1)
        w_hat = self._spectra.get(("w", size))
        if w_hat is None:
            w_hat = self._spectra["w", size] = np.fft.fft(self._w[::-1], size, axis=0)
        u_hat = np.einsum("tij,...jt->...it", w_hat, np.fft.fft(rows, size, axis=-1))
        return np.fft.ifft(u_hat, axis=-1)[..., : width - 1 + length]

    def _pair(self, rows: np.ndarray, block: np.ndarray | None = None) -> ModelPair:
        """The pair of the rows [f; f_1] (1 + k, L) carrying their Laurent block,
        by one FFT product unless given; the residual is the norm of its orders >= 0."""
        if block is None:  # the Hardy space's u has no rows and needs no product
            block = (self._laurent(rows) if self.n else
                     np.zeros((0, self._depth + rows.shape[1]), dtype=complex))
        plus = block[:, self._depth:]
        return ModelPair(rows, float(np.sqrt(np.vdot(plus, plus).real)),
                         float(np.vdot(rows, rows).real), (self._w, block))

    def _carried(self, pair: ModelPair) -> np.ndarray:
        """The Laurent block of a coefficient pair, computed once for a pair
        that carries none keyed by this handle."""
        if pair.laurent is None or pair.laurent[0] is not self._w:
            pair.laurent = self._pair(_coefficient_pair(pair).rows).laurent
        return pair.laurent[1]

    def embed(self, coeffs) -> ModelPair:
        """Compute the model pair of f; the residual certifies the pair.  A
        ``SzegoSum`` gets its exact pair, with Szego-sum rows."""
        if isinstance(coeffs, SzegoSum):
            return self._exact_pair(coeffs)
        c = self._within_budget(finite_coeffs(coeffs))
        rows = np.empty((1 + self.k, c.size), dtype=complex)
        rows[0], rows[1:] = c, self._companions(c)
        return self._pair(rows)

    def _within_budget(self, c: np.ndarray) -> np.ndarray:
        if c.shape[-1] - 1 > self.degree:
            raise ValueError(
                f"input degree {c.shape[-1] - 1} exceeds the handle's budget {self.degree}"
            )
        return c

    def _term_rows(self, f: SzegoSum) -> tuple[np.ndarray, int]:
        """Rows f, f_1 and residual of each term of sum_j P_j s_{lam_j}, shape
        (1 + k + n, J, W), and the companion count k.  Term j has the companion
        (f_1 - c_j e_0) s_{lam_j}, f_1 that of the polynomial P_j, and the
        residual row (X_j + U_j - A(lam_j)* c_j) s_{lam_j}; a sum carrying
        companion numerators keyed by this model's [B*, A*] keeps them, c_j = 0."""
        if f.coeffs.ndim != 2:
            raise ValueError("embed takes a scalar Szego sum")
        p, lam = self._within_budget(f.coeffs), f.points
        k, attached = self.k, f.attached
        closed = attached is not None and (attached[0] is self._w
                                           or np.array_equal(attached[0], self._w))
        width = max(p.shape[1], attached[1].shape[-1]) if closed else p.shape[1]
        rows = np.zeros((1 + k + self.n, p.shape[0], width), dtype=complex)
        rows[0, :, : p.shape[1]] = p
        if not self.n:  # the Hardy space: no companion and no residual rows
            return rows, k
        if closed:
            rows[1: 1 + k, :, : attached[1].shape[-1]] = attached[1]
        else:
            rows[1: 1 + k] = np.swapaxes(self._companions(p), 0, 1)
        block = self._laurent(np.swapaxes(rows[: 1 + k], 0, 1))
        plus, u = block[..., self._depth:], self._coanalytic_at(block, lam)
        if k and not closed:
            a_h = self._factor_adjoint(lam)
            c = np.linalg.solve(a_h, u[..., None])
            rows[1: 1 + k, :, 0] -= c[..., 0].T
            u -= (a_h @ c)[..., 0]
        plus[:, :, 0] += u
        rows[1 + k:] = np.swapaxes(plus, 0, 1)
        return rows, k

    def embed_terms(self, f: SzegoSum) -> tuple[SzegoSum, SzegoSum]:
        """The exact pair of each term of ``f`` with the term axis kept: its
        rows (f, then the companions) and its residual rows, whose norm
        certifies the term's pair."""
        rows, k = self._term_rows(f)
        return (SzegoSum.trusted(rows[: 1 + k], f.points),
                SzegoSum.trusted(rows[1 + k:], f.points))

    def _exact_pair(self, f: SzegoSum) -> ModelPair:
        """The pair of a Szego sum: its terms' rows summed, with the norms of
        the rows f, f_1 and residual taken in one pass."""
        rows, k = self._term_rows(f)
        norms = SzegoSum.trusted(rows, f.points).norms_sq()
        return ModelPair(SzegoSum.trusted(rows[: 1 + k], f.points),
                         float(np.sqrt(np.sum(norms[1 + k:]))), float(np.sum(norms[: 1 + k])))

    def _coanalytic_at(self, block: np.ndarray, points) -> np.ndarray:
        """U(conj(lam)) = sum_{m >= 1} u_{-m} conj(lam)**m from the orders
        -1, ..., -P of the Laurent block (..., n, P + L), one point per leading index."""
        powers = power_table(np.conj(points), self._depth + 1)[..., 1:]
        return np.einsum("...m,...im->...i", powers, block[..., : self._depth][..., ::-1])

    def pair_from_parts(self, coeffs, companions) -> ModelPair:
        """Assemble a pair from explicit parts, recertifying the residual: f
        and its k companion rows, zero-padded to one row block.  A handle with
        k = 0 takes ``None`` or an empty array; non-finite parts and any other
        companion row count raise ValueError."""
        c = finite_coeffs(coeffs)
        comp = np.atleast_2d(np.asarray([] if companions is None else companions, dtype=complex))
        comp = comp if comp.size else comp.reshape(0, 0)
        if comp.ndim != 2 or comp.shape[0] != self.k:
            raise ValueError(f"{comp.shape[0]} companion rows given; the handle has k = {self.k}")
        finite_coeffs(comp.ravel())
        rows = np.zeros((1 + self.k, max(c.size, comp.shape[1])), dtype=complex)
        rows[0, : c.size] = c
        rows[1:, : comp.shape[1]] = comp
        return self._pair(rows)

    def norm(self, coeffs) -> float:
        return self.embed(coeffs).norm

    def inner(self, pair_a: ModelPair, pair_b: ModelPair) -> complex:
        """Space inner product through the embedding."""
        return pair_inner(pair_a, pair_b)

    # -- polynomial norms via the monomial Gram -----------------------------

    def monomial_companions(self, degree: int) -> np.ndarray:
        """The companion matrix C, shape (k, degree + 1, degree + 1), k the
        companion count: C[i, j, m] = -g_{m-j}, coefficient j of companion i
        of z^m (0 for j > m).  Refused on an inner handle, whose monomials may
        not be members."""
        if not self.mz_invariant:
            raise NumericalError("monomial Gram undefined: monomials may not be members")
        g = self._correlation(degree + 1) if self.k else np.zeros((0, degree + 1))
        index = np.arange(degree + 1)
        lag = index[None, :] - index[:, None]  # m - j
        return np.where(lag >= 0, -g[:, np.maximum(lag, 0)], 0.0)

    def monomial_gram(self, degree: int) -> np.ndarray:
        """Gram G[j, k] = <z^k, z^j> of monomials in the space norm, I + C*C."""
        if self._gram is None or self._gram.shape[0] <= degree:
            comp = self.monomial_companions(degree).reshape(-1, degree + 1)
            g = np.eye(degree + 1, dtype=complex) + comp.conj().T @ comp
            self._gram = 0.5 * (g + g.conj().T)
        return self._gram[: degree + 1, : degree + 1]

    def poly_norm_sq(self, coeffs) -> float:
        """Squared space norm of a polynomial member: the Hardy norm when
        k = 0 (the space embeds isometrically), else the cached monomial Gram.
        """
        c = finite_coeffs(coeffs)
        if not self.k:
            return h2_norm_sq(c)
        g = self.monomial_gram(c.size - 1)
        return float(np.real(np.vdot(c, g @ c)))

    def companions_at(self, coeffs, lam) -> np.ndarray:
        """f_1(lam) with no pair built; a ``SzegoSum`` through its exact pair."""
        if isinstance(coeffs, SzegoSum):
            return self.embed(coeffs).companion_at(lam)
        c = self._within_budget(finite_coeffs(coeffs))
        return self._companions(c) @ power_table(lam, c.size)

    # -- shift actions -------------------------------------------------------

    def backward(self, pair: ModelPair) -> ModelPair:
        """The backward shift acts coordinatewise on a model pair: it drops
        the first column of the rows (a constant maps to 0).  Its Laurent
        block is (u - [B*, A*] r_0) / zeta, r_0 that column: u'_m = u_{m+1}
        - w[-m-1] r_0 for m < 0 and u_{m+1} above."""
        block, rows, depth = self._carried(pair), pair.rows, self._depth
        moved = np.zeros((self.n, depth + max(rows.shape[1] - 1, 1)), dtype=complex)
        moved[:, : block.shape[1] - 1] = block[:, 1:]
        moved[:, :depth] -= (self._w[:depth][::-1] @ rows[:, 0]).T
        return self._pair(rows[:, 1:] if rows.shape[1] > 1 else np.zeros_like(rows), moved)

    def forward_constant(self, pair: ModelPair) -> np.ndarray:
        """The constant companion correction of the forward shift."""
        if not self.mz_invariant:
            raise ExtremeTypeError("forward shift unsupported for inner-type spaces")
        if not self.k:
            return np.zeros(0, dtype=complex)
        v = self._carried(pair)[:, self._depth - 1]  # order -1, the constant mode of zeta * u
        a0h = self.factor.at_zero().conj().T
        return -np.linalg.solve(a0h, v)

    def forward(self, pair: ModelPair) -> ModelPair:
        """Model pair of z f: the rows shifted up, the companions' constant
        term the correction c_0.  Its Laurent block is zeta u + A* c_0:
        u'_m = u_{m-1} + w[-m][:, 1:] c_0 for m <= 0 and u_{m-1} above, so its
        order 0, u_{-1} + A_0* c_0, is what c_0 is solved to cancel."""
        block, rows = self._carried(pair), pair.rows
        c0 = self.forward_constant(pair)
        out = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=complex)
        out[:, 1:] = rows
        out[1:, 0] = c0
        moved = np.zeros((self.n, block.shape[1] + 1), dtype=complex)
        moved[:, 1:] = block
        moved[:, : self._depth + 1] += (self._w[::-1, :, 1:] @ c0).T
        return self._pair(out, moved)

    def resolvent_correction(self, pair: ModelPair, lam) -> np.ndarray:
        """The co-analytic correction vector at lam: solve A(lam)* c = u(lam)."""
        if not self.mz_invariant:
            raise ExtremeTypeError("resolvent correction needs the analytic model")
        if not self.k:
            return np.zeros(0, dtype=complex)
        if abs(lam) >= 1.0:
            raise ValueError("evaluation point must satisfy |lam| < 1")
        u = self._coanalytic_at(self._carried(pair), lam)
        return np.linalg.solve(self._factor_adjoint(lam), u)

    def resolvent_divide(self, pair: ModelPair, lam) -> ModelPair:
        """Model pair of f / (1 - conj(lam) z), cut where its tail falls below
        roundoff (at most at the handle degree, where a cut dropping more than
        ``tol_solve`` raises NumericalError) and zero-padded to the degree."""
        if abs(lam) >= 1.0:
            raise ValueError("evaluation point must satisfy |lam| < 1")
        if not self.mz_invariant:
            raise ExtremeTypeError("resolvent division needs the analytic model")
        rows = _coefficient_pair(pair).rows.copy()  # f, then the numerators f_1 - c e_0
        rows[1:, 0] -= self.resolvent_correction(pair, lam)
        out = SzegoSum.trusted(rows[:, None], np.array([lam], dtype=complex))
        cut = min(self.degree, out.roundoff_degree())
        short = self._pair(out.taylor(cut, self.tol_solve))
        # trailing zeros leave B* f + A* f_1 and the norm unchanged, so both certify
        padded = np.zeros((len(rows), self.degree + 1), dtype=complex)
        padded[:, : cut + 1] = short.rows
        block = np.zeros((self.n, self._depth + self.degree + 1), dtype=complex)
        block[:, : self._depth + cut + 1] = short.laurent[1]
        return self._pair(padded, block)

    # -- membership ----------------------------------------------------------

    def membership(self, coeffs) -> MembershipReport:
        """Membership verdict by residual size; the verdict (not an
        exception) is the result.  With k = n every polynomial is a member
        and the residual is roundoff; on an inner handle the residual is the
        part of f beyond the model space.  Non-finite coefficients raise
        ValueError."""
        pair = self.embed(coeffs)
        member = pair.residual <= self.tol_membership * (1.0 + pair.norm)
        return MembershipReport(member, pair.norm if member else None, {},
                                residual=pair.residual)
