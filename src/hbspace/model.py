"""The isometric model embedding f -> (f, f_1).

A member f of the space attached to a row symbol B has a unique companion
vector f_1 in the Hardy space of C^n making B* f + A* f_1 strictly
co-analytic, where A is the outer defect factor with A*A + B*B = I, taken
exactly from the polynomial symbol by ``spectral.row_defect_factor`` and
bounded over the whole circle from Laurent coefficients.  The squared space
norm is ||f||_2^2 + ||f_1||_2^2.

The analytic-part condition is solved in one of two ways: by pointwise
multiplication with the A*^{-1} grid samples, computed once per handle,
followed by an analytic projection (fast, for factors bounded away from
zero), or by one banded LAPACK solve of the upper-triangular block-Toeplitz
coefficient system (stable when A degenerates on the boundary).  Either way
the returned residual is measured directly on the grid, so it certifies the
solve.
"""

import warnings

import numpy as np
from scipy.linalg import solve_banded

from .errors import ExtremeTypeError, NumericalError
from .harmonic import DEFAULT_GRID
from .series import (
    as_coeffs,
    finite_coeffs,
    geometric_divide,
    h2_norm_sq,
    shift_down,
    shift_up,
    szego_taylor,
)
from .spectral import MatrixSymbol, defect_identity_bound, row_defect_factor
from .symbols import (
    MembershipReport,
    ModelPair,
    RowSymbol,
    _check_strict_interior,
    gram_matrix,
    kernel_eval,
    pair_inner,
)

_INNER_TOL = 1e-10
_FFT_PATH_FLOOR = 1e-2
_GRAM_BLOCK = 16


class SpaceHandle:
    """A ready-to-compute space: symbol, defect factor, caches.

    Modes: ``analytic`` (the defect factor exists; forward shift available)
    and ``inner`` (unimodular scalar symbol; the space sits isometrically in
    the Hardy space and only backward-shift operations apply).  Construction
    fails with ExtremeTypeError for symbols whose log-defect is not
    integrable and that are not inner.
    """

    def __init__(self, symbol: RowSymbol, n_grid: int = DEFAULT_GRID,
                 degree: int | None = None, tol_membership: float = 1e-7,
                 tol_solve: float = 1e-10):
        self.symbol = symbol
        self.n_grid = n_grid
        self.degree = n_grid // 4 if degree is None else degree
        self.tol_membership = tol_membership
        self.tol_solve = tol_solve
        self.factor: MatrixSymbol | None = None
        self.factorization = None
        self._gram: np.ndarray | None = None
        self._monomial_pairs: list[ModelPair] = []
        # A* and, on the FFT route, A*^{-1} sampled on the grid
        self._ah_samples: np.ndarray | None = None
        self._ah_inv: np.ndarray | None = None
        # triangular-route band matrix, see _triangular_band
        self._band: np.ndarray | None = None

        n = symbol.n
        if n == 0:
            self.mode = "analytic"
            self._rows = np.zeros((n_grid, 0), dtype=complex)
            self._use_fft_path = True
            return
        self._rows = symbol.boundary_rows(n_grid)
        defect = 1.0 - np.sum(np.abs(self._rows) ** 2, axis=1)
        if n == 1 and float(np.max(np.abs(defect))) <= _INNER_TOL:
            self.mode = "inner"
            self._use_fft_path = False
            return
        report = row_defect_factor(symbol.coefficient_matrix())
        self.mode = "analytic"
        self.factor = report.symbol
        self.factorization = report
        a_samples = report.symbol.samples(n_grid)
        # A*A = I - B*B has eigenvalues 1 (n - 1 times) and 1 - |B|^2, so the
        # smallest singular value of A is read off the defect, up to the
        # certified residual
        smin = float(np.sqrt(max(float(np.min(defect)), 0.0)))
        self._use_fft_path = smin > _FFT_PATH_FLOOR
        self._ah_samples = np.conj(np.transpose(a_samples, (0, 2, 1)))
        if self._use_fft_path:
            self._ah_inv = np.linalg.inv(self._ah_samples)

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.symbol.n

    @property
    def mz_invariant(self) -> bool:
        return self.mode == "analytic"

    @property
    def truncated(self) -> bool:
        return self.symbol.truncated

    def defect_identity_residual(self) -> float:
        """Bound on sup over the whole circle of || A*A + B*B - I ||, from
        the Laurent coefficients of the factor and the symbol."""
        if self.mode != "analytic" or self.n == 0:
            return 0.0
        return defect_identity_bound(self.factor.coeffs, self.symbol.coefficient_matrix())

    def kernel(self, z, lam) -> complex:
        return kernel_eval(self.symbol, z, lam)

    def gram(self, points) -> np.ndarray:
        return gram_matrix(self.symbol, points)

    def kernel_taylor(self, lam, degree: int | None = None) -> np.ndarray:
        """Taylor coefficients of the kernel function at lam."""
        _check_strict_interior(lam)
        degree = self.degree if degree is None else degree
        width = max([c.taylor.size for c in self.symbol.components], default=1)
        num = np.zeros(width, dtype=complex)
        num[0] = 1.0
        if self.n:
            blam = np.conj(self.symbol.row_at(lam))
            for coef, comp in zip(blam, self.symbol.components):
                num[: comp.taylor.size] -= coef * comp.taylor
        return geometric_divide(num, np.conj(lam), degree)

    # -- the embedding -----------------------------------------------------

    def _boundary_values(self, coeffs) -> np.ndarray:
        c = as_coeffs(coeffs)
        if c.size > self.n_grid // 2:
            raise ValueError("degree exceeds what the grid resolves")
        padded = np.zeros(self.n_grid, dtype=complex)
        padded[: c.size] = c
        return np.fft.ifft(padded) * self.n_grid

    def _companion_boundary(self, companions: np.ndarray) -> np.ndarray:
        padded = np.zeros((self.n_grid, self.n), dtype=complex)
        width = companions.shape[1]
        padded[:width] = companions.T
        return np.fft.ifft(padded, axis=0) * self.n_grid

    def _residual_field(self, coeffs, companions: np.ndarray) -> tuple[float, np.ndarray]:
        """Grid residual of the co-analyticity condition.

        Returns (analytic-part norm, full order spectrum of B*f + A*f_1),
        the spectrum in FFT layout for later co-analytic reads.
        """
        if self.n == 0:
            return 0.0, np.zeros((self.n_grid, 0), dtype=complex)
        fsamp = self._boundary_values(coeffs)
        r = self._rows.conj() * fsamp[:, None]
        if self.mode == "analytic" and companions.size:
            f1samp = self._companion_boundary(companions)
            r = r + np.einsum("jik,jk->ji", self._ah_samples, f1samp)
        rhat = np.fft.fft(r, axis=0) / self.n_grid
        plus = rhat[: self.n_grid // 2]
        return float(np.sqrt(np.sum(np.abs(plus) ** 2))), rhat

    def _u_plus_coeffs(self, coeffs) -> np.ndarray:
        """Analytic-part coefficients of B* f, shape (N/2, n)."""
        fsamp = self._boundary_values(coeffs)
        u = self._rows.conj() * fsamp[:, None]
        uhat = np.fft.fft(u, axis=0) / self.n_grid
        return uhat[: self.n_grid // 2]

    def _solve_fft(self, u_plus: np.ndarray, degree: int) -> np.ndarray:
        # ifft's 1/N is the whole normalization of the sample-multiply-project round trip
        u_samp = np.fft.ifft(u_plus, n=self.n_grid, axis=0)
        w = np.einsum("jik,jk->ji", self._ah_inv, u_samp)
        what = np.fft.fft(w, axis=0)
        return -what[: degree + 1].T.copy()

    def _triangular_band(self, degree: int) -> tuple[tuple[int, int], np.ndarray]:
        """LAPACK band storage of the system sum_m A_m* x[k + m] = -u[k].

        Unknowns are ordered x[0], x[1], ..., x[degree] with n entries each,
        so the block upper-triangular Toeplitz matrix with A_m* on block
        diagonal m has lower bandwidth n - 1 and upper bandwidth n (p + 1) - 1.
        Band rows are constant along block columns; LAPACK reads none of the
        band entries that fall outside the matrix, so one band, built per
        handle at the widest degree asked for, serves every smaller degree.
        """
        n = self.n
        blocks = self.factor.coeffs
        lower, upper = n - 1, n * blocks.shape[0] - 1
        if self._band is None or self._band.shape[1] < (degree + 1) * n:
            # entry (k n + i, (k + m) n + j) = conj(A_m[j, i]) sits in band row
            # upper + i - j - m n of column (k + m) n + j
            m, i, j = np.indices(blocks.shape)
            pattern = np.zeros((lower + upper + 1, n), dtype=complex)
            pattern[upper + i - j - m * n, j] = np.conj(blocks[m, j, i])
            self._band = np.tile(pattern, max(degree + 1, self.n_grid // 2))
        return (lower, upper), self._band[:, : (degree + 1) * n]

    def _solve_triangular(self, u_plus: np.ndarray, degree: int) -> np.ndarray:
        widths, band = self._triangular_band(degree)
        rhs = np.zeros((degree + 1, self.n), dtype=complex)
        top = min(degree + 1, u_plus.shape[0])
        rhs[:top] = -u_plus[:top]
        x = solve_banded(widths, band, rhs.ravel(), check_finite=False)
        return x.reshape(degree + 1, self.n).T.copy()

    def _solve(self, u_plus: np.ndarray, degree: int) -> np.ndarray:
        if self._use_fft_path:
            return self._solve_fft(u_plus, degree)
        return self._solve_triangular(u_plus, degree)

    def embed(self, coeffs) -> ModelPair:
        """Compute the model pair of f; the residual certifies the solve."""
        c = finite_coeffs(coeffs)
        if c.size - 1 > self.degree:
            raise ValueError(
                f"input degree {c.size - 1} exceeds the handle's budget {self.degree}"
            )
        if self.n == 0:
            return ModelPair(c, np.zeros((0, c.size), dtype=complex), 0.0)
        if self.mode == "inner":
            residual, _ = self._residual_field(c, np.zeros((0, 0)))
            return ModelPair(c, np.zeros((0, c.size), dtype=complex), residual)
        companions = self._solve(self._u_plus_coeffs(c), self.degree)
        residual, _ = self._residual_field(c, companions)
        return ModelPair(c, companions, residual)

    def pair_from_parts(self, coeffs, companions) -> ModelPair:
        """Assemble a pair from explicit parts, recertifying the residual."""
        c = as_coeffs(coeffs)
        comp = np.atleast_2d(np.asarray(companions, dtype=complex))
        if self.n == 0 or self.mode == "inner":
            comp = np.zeros((0, c.size), dtype=complex)
        residual, _ = self._residual_field(c, comp)
        return ModelPair(c, comp, residual)

    def norm(self, coeffs) -> float:
        return self.embed(coeffs).norm

    def inner(self, pair_a: ModelPair, pair_b: ModelPair) -> complex:
        """Space inner product through the embedding."""
        return pair_inner(pair_a, pair_b)

    # -- fast polynomial norms via the monomial Gram ------------------------

    def monomial_pairs(self, degree: int) -> list[ModelPair]:
        """Model pairs of 1, z, ..., z^degree, each embedded once per handle."""
        if self.mode == "inner":
            raise NumericalError("monomial Gram undefined: monomials may not be members")
        while len(self._monomial_pairs) <= degree:
            k = len(self._monomial_pairs)
            e = np.zeros(k + 1, dtype=complex)
            e[k] = 1.0
            self._monomial_pairs.append(self.embed(e))
        return self._monomial_pairs[: degree + 1]

    def monomial_gram(self, degree: int) -> np.ndarray:
        """Gram G[j, k] = <z^k, z^j> of monomials in the space norm."""
        self.monomial_pairs(degree)
        if self._gram is None or self._gram.shape[0] <= degree:
            self._gram = self._extend_gram(degree + 1)
        return self._gram[: degree + 1, : degree + 1]

    def _companion_rows(self, start: int, stop: int) -> np.ndarray:
        """Flattened companions of the stored monomials z^start..z^(stop-1)."""
        return np.stack([p.companions.ravel() for p in self._monomial_pairs[start:stop]])

    def _extend_gram(self, size: int) -> np.ndarray:
        """The monomial Gram grown to ``size``: I plus the companion products.

        Every monomial pair carries companions of the handle's width, so each
        block of new columns is a product of stacked companions.  Blocks of
        ``_GRAM_BLOCK`` monomials keep the stacked copies small; each block
        above the diagonal is mirrored below it, so the Gram is exactly
        Hermitian.
        """
        old = 0 if self._gram is None else self._gram.shape[0]
        g = np.empty((size, size), dtype=complex)
        g[:old, :old] = self._gram
        for k0 in range(old, size, _GRAM_BLOCK):
            k1 = min(k0 + _GRAM_BLOCK, size)
            cols = self._companion_rows(k0, k1)
            for j0 in range(0, k0, _GRAM_BLOCK):
                j1 = min(j0 + _GRAM_BLOCK, k0)
                block = self._companion_rows(j0, j1).conj() @ cols.T
                g[j0:j1, k0:k1] = block
                g[k0:k1, j0:j1] = block.conj().T
            square = np.triu(cols.conj() @ cols.T, 1)
            square += square.conj().T + np.diag(1.0 + np.sum(np.abs(cols) ** 2, axis=1))
            g[k0:k1, k0:k1] = square
        return g

    def poly_norm_sq(self, coeffs) -> float:
        """Squared space norm of a polynomial member.

        Inner mode uses the Hardy norm (the space embeds isometrically);
        analytic mode uses the cached monomial Gram.
        """
        c = finite_coeffs(coeffs)
        if self.mode == "inner" or self.n == 0:
            return h2_norm_sq(c)
        g = self.monomial_gram(c.size - 1)
        return float(np.real(np.vdot(c, g @ c)))

    def companions_at(self, coeffs, lam) -> np.ndarray:
        return self.embed(coeffs).companion_at(lam)

    # -- shift actions -------------------------------------------------------

    def backward(self, pair: ModelPair) -> ModelPair:
        """The backward shift acts coordinatewise on a model pair."""
        f = shift_down(pair.f)
        if pair.n:
            comp = np.array([shift_down(row) for row in pair.companions])
        else:
            comp = np.zeros((0, f.size), dtype=complex)
        return self.pair_from_parts(f, comp)

    def _coanalytic_spectrum(self, pair: ModelPair) -> np.ndarray:
        _, rhat = self._residual_field(pair.f, pair.companions)
        return rhat

    def forward_constant(self, pair: ModelPair) -> np.ndarray:
        """The constant companion correction of the forward shift."""
        if self.mode != "analytic":
            raise ExtremeTypeError("forward shift unsupported for inner-type spaces")
        if self.n == 0:
            return np.zeros(0, dtype=complex)
        rhat = self._coanalytic_spectrum(pair)
        v = rhat[-1]  # coefficient of zeta**(-1), the constant mode of zeta * u
        a0h = self.factor.at_zero().conj().T
        return -np.linalg.solve(a0h, v)

    def forward(self, pair: ModelPair) -> ModelPair:
        """Model pair of z f: companion is z f_1 plus a constant correction."""
        c = self.forward_constant(pair)
        f = shift_up(pair.f)
        if self.n:
            comp = np.zeros((self.n, pair.companions.shape[1] + 1), dtype=complex)
            comp[:, 0] = c
            comp[:, 1:] = pair.companions
        else:
            comp = np.zeros((0, f.size), dtype=complex)
        return self.pair_from_parts(f, comp)

    def resolvent_correction(self, pair: ModelPair, lam) -> np.ndarray:
        """The co-analytic correction vector at lam: solve A(lam)* c = u(lam)."""
        if self.mode != "analytic":
            raise ExtremeTypeError("resolvent correction needs the analytic model")
        if self.n == 0:
            return np.zeros(0, dtype=complex)
        if abs(lam) >= 1.0:
            raise ValueError("evaluation point must satisfy |lam| < 1")
        rhat = self._coanalytic_spectrum(pair)
        # u(lam) = sum_{m = 1}^{N/2} rhat[N - m] conj(lam)**m
        half = self.n_grid // 2
        u = szego_taylor(lam, half)[1:] @ rhat[::-1][:half]
        a_lam_h = self.factor.at(lam).conj().T
        cond = np.linalg.cond(a_lam_h)
        if cond > 1e8:
            warnings.warn(f"defect factor nearly singular at lam={lam}: cond={cond:.2e}")
        return np.linalg.solve(a_lam_h, u)

    def resolvent_divide(self, pair: ModelPair, lam) -> ModelPair:
        """Model pair of f / (1 - conj(lam) z)."""
        if abs(lam) >= 1.0:
            raise ValueError("evaluation point must satisfy |lam| < 1")
        if self.mode != "analytic":
            raise ExtremeTypeError("resolvent division needs the analytic model")
        lam_bar = np.conj(lam)
        f = geometric_divide(pair.f, lam_bar, self.degree)
        if self.n:
            c = self.resolvent_correction(pair, lam)
            comp = []
            for i in range(self.n):
                num = pair.companions[i].copy()
                num[0] -= c[i]
                comp.append(geometric_divide(num, lam_bar, self.degree))
            comp = np.array(comp)
        else:
            comp = np.zeros((0, f.size), dtype=complex)
        return self.pair_from_parts(f, comp)

    # -- membership ----------------------------------------------------------

    def membership(self, coeffs) -> MembershipReport:
        """Membership verdict by residual size and stability under a degree
        doubling; the verdict (not an exception) is the result.  Non-finite
        coefficients raise ValueError."""
        c = finite_coeffs(coeffs)
        pair = self.embed(c)
        scale = 1.0 + pair.norm
        evidence = {"residual": pair.residual, "degree": self.degree}
        if self.n == 0:
            return MembershipReport(True, 0.0, pair.norm, evidence)
        if self.mode == "inner":
            member = pair.residual <= self.tol_membership * scale
            return MembershipReport(member, pair.residual,
                                    pair.norm if member else None, evidence)
        degree2 = min(2 * self.degree, self.n_grid // 2 - 1)
        comp2 = self._solve(self._u_plus_coeffs(c), degree2)
        res2, _ = self._residual_field(c, comp2)
        norm1 = pair.norm
        norm2 = float(np.sqrt(h2_norm_sq(c) + np.sum(np.abs(comp2) ** 2)))
        drift = abs(norm2 - norm1) / max(norm1, 1e-30)
        evidence.update({"residual_doubled": res2, "norm_drift": drift})
        member = (pair.residual <= self.tol_membership * scale
                  and res2 <= pair.residual * 1.5 + self.tol_solve
                  and drift < 0.01)
        return MembershipReport(member, pair.residual,
                                norm2 if member else None, evidence)
