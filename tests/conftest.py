import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hbspace
from hbspace.catalog import (
    cusp_symbol,
    dirichlet_half,
    dirichlet_origin,
    dirichlet_pair,
    h2_symbol,
    inner_symbol,
    rank1_half_symbol,
)
from hbspace.harmonic import DiskFunction
from hbspace.model import SpaceHandle
from hbspace.spectral import defect_split
from hbspace.symbols import RowSymbol, weighted_space_symbol

N_GRID = 1024
RANK2_EXAMPLE = [[0.0, 0.4, 0.4, 0.0, 0.0], [0.0, 0.0, 0.0, 0.3, 0.3]]
# b = 1.1 z (1 + z) / 2: the defect 0.395 - 0.605 cos(theta) changes sign at
# two simple circle roots, cos(theta) = 0.395 / 0.605
ODD_ROOT_ROW = [[0.0, 0.55, 0.55]]


def run_fresh(*args) -> str:
    """stdout of ``python *args`` in a fresh interpreter that imports hbspace
    from the tree under test; a nonzero exit fails the test with its stderr."""
    src = str(Path(hbspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, *args], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


@pytest.fixture(scope="session")
def h2():
    return SpaceHandle(h2_symbol(), n_grid=N_GRID)


@pytest.fixture(scope="session")
def rank1_half():
    return SpaceHandle(rank1_half_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def cusp():
    return SpaceHandle(cusp_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def two_term():
    """Rank-2 symbol (z / sqrt(2), z^2 / 2)."""
    return SpaceHandle(RowSymbol([
        DiskFunction([0.0, 1.0 / np.sqrt(2.0)], n_boundary=N_GRID),
        DiskFunction([0.0, 0.0, 0.5], n_boundary=N_GRID),
    ]), n_grid=N_GRID)


@pytest.fixture(scope="session")
def weighted():
    """Weighted Hardy space with weights (1, 2, 2.5, 3, 3, ...), a rank-3 symbol."""
    return SpaceHandle(weighted_space_symbol([1.0, 2.0, 2.5, 3.0], n_boundary=N_GRID),
                       n_grid=N_GRID)


def ddelta_taylor():
    """Sarason's D(delta_1) = H(b), b = (1 - tau) z / (1 - tau z), to degree 40."""
    tau = (3.0 - np.sqrt(5.0)) / 2.0
    b = np.zeros(41)
    b[1:] = (1.0 - tau) * tau ** np.arange(40)
    return b


@pytest.fixture(scope="session")
def ddelta():
    return SpaceHandle(RowSymbol([DiskFunction(ddelta_taylor(), n_boundary=N_GRID)]),
                       n_grid=N_GRID)


@pytest.fixture(scope="session")
def inner_space():
    return SpaceHandle(inner_symbol(N_GRID), n_grid=N_GRID)


@pytest.fixture(scope="session")
def d_origin():
    return dirichlet_origin()


@pytest.fixture(scope="session")
def d_pair():
    return dirichlet_pair()


@pytest.fixture(scope="session")
def d_half():
    return dirichlet_half()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_interior(rng, count, radius=0.85):
    return rng.uniform(0.05, radius, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))


def scaled_row(rng, rank, sup):
    """Random row coefficients with B(0) = 0 and rank components of degree
    rank..6, scaled so that max sum |b_i|^2 over the whole circle is sup.
    The grid maximum is refined by Newton steps on the trigonometric
    polynomial, so sup = 1 touches 1 without crossing it."""
    degree = int(rng.integers(rank, 7))
    rows = np.zeros((rank, degree + 1), dtype=complex)
    rows[:, 1:] = rng.normal(size=(rank, degree)) + 1j * rng.normal(size=(rank, degree))
    lags = sum(np.convolve(r, np.conj(r[::-1])) for r in rows)  # orders -degree..degree
    orders = np.arange(-degree, degree + 1)

    def energy(theta, derivative=0):
        waves = np.exp(1j * np.outer(np.atleast_1d(theta), orders))
        return np.real(waves @ (lags * (1j * orders) ** derivative))

    theta = 2.0 * np.pi * np.arange(4096) / 4096
    t = theta[np.argmax(energy(theta))]
    for _ in range(6):
        curvature = energy(t, 2)[0]
        if curvature < 0.0:  # zero only for a single monomial, whose energy is constant
            t -= energy(t, 1)[0] / curvature
    return rows * np.sqrt(sup / energy(t)[0])


def seeded_rows(seed):
    """72 seeded rows, eight for each rank 1..3 and sup 0.5, 0.9, 1.0 (a
    touching monomial, whose defect vanishes, is drawn again)."""
    rng = np.random.default_rng(seed)
    rows = []
    for rank in (1, 2, 3):
        for sup in (0.5, 0.9, 1.0):
            drawn = []
            while len(drawn) < 8:
                row = scaled_row(rng, rank, sup)
                if defect_split(row).outer is not None:
                    drawn.append(row)
            rows += drawn
    return rows


def noncontractive_row():
    """A rank-3 row whose max sum |b_i|^2 is 1 on 8192 points, while between
    them its defect 1 - sum |b_i|^2 dips to -1.77e-8."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        rows = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    rows[:, 0] = 0.0
    samples = np.fft.ifft(rows, n=8192, axis=1) * 8192
    return rows / np.sqrt(np.max(np.sum(np.abs(samples) ** 2, axis=0)))


# -- reference oracles for the defect factor ------------------------------------


def gauge_fix(coeffs):
    """Left-multiply by the constant unitary making A(0) lower triangular
    with positive diagonal."""
    a0 = coeffs[0]
    # a0 J = Q R with J the reversal, so u = J Q* gives u a0 = J R J, lower triangular
    q, _ = np.linalg.qr(a0[:, ::-1])
    u = q.conj().T[::-1]
    phases = np.diagonal(u @ a0).copy()
    phases = np.where(np.abs(phases) < 1e-300, 1.0, phases / np.abs(phases))
    return np.einsum("ij,kjl->kil", np.diag(np.conj(phases)) @ u, coeffs)


def peel_completion(h):
    """The rows completing a lossless row polynomial to a paraunitary matrix,
    by the degree-one lattice (Vaidyanathan, Multirate Systems and Filter
    Banks, 1993, ch. 14), not gauged.

    ``h[k]`` is the row coefficient of z^k, with h h* = 1 on the circle.  Each
    peel writes h = h' V(z), V(z) = I - v v* + z v v*, v = h_top* / |h_top|;
    h' = h V* has no z^(-1) term because h_0 h_top* = 0 (the top Laurent
    coefficient of h h* = 1).  With W a constant unitary whose first row is
    the constant row left, U = W V_p ... V_1 is paraunitary with first row h.
    """
    vs = []
    while h.shape[0] > 1:
        v = h[-1].conj() / np.linalg.norm(h[-1])
        h = h[:-1] + np.outer(h[1:] @ v - h[:-1] @ v, v.conj())
        vs.append(v)
    q, _ = np.linalg.qr(h[0].conj()[:, None], mode="complete")
    u = q.conj().T[None, 1:]  # the rows of W orthogonal to h[0]
    for v in reversed(vs):
        uv = (u @ v)[:, :, None] * v.conj()
        grown = np.zeros((u.shape[0] + 1,) + u.shape[1:], dtype=complex)
        grown[:-1] = u - uv
        grown[1:] += uv
        u = grown
    return u


def lossless_row(rows, split):
    """The lossless row h = (B, a_rev) of ``row_defect_factor``, shape (p + 1, n + 1)."""
    b = np.atleast_2d(np.asarray(rows, dtype=complex))
    h = np.zeros((b.shape[1], b.shape[0] + 1), dtype=complex)
    h[:, :-1] = b.T
    h[b.shape[1] - split.outer.size:, -1] = np.conj(split.outer[::-1])
    return h
