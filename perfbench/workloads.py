"""The in-process workloads: ``queries``, ``sweeps`` and ``factor``.

Every library call goes through the ``hbspace`` package or module namespace
at call time (``hb.poly_density_residual``, ``hb.subspaces....``), so that the
tracer's patched names are the ones called.  Inputs come only from
``np.random.default_rng([seed, round])``; each round issues the same list of
op kinds in the same order, so per-round costs and failure sets do not depend
on how many rounds a run completes.
"""

import math

import numpy as np

import hbspace as hb
import hbspace.subspaces
from ops import Op

TAU = (3.0 - math.sqrt(5.0)) / 2.0
TWO_TERM = [[0.0, 1.0 / math.sqrt(2.0)], [0.0, 0.0, 0.5]]
RANK2_EXAMPLE = [[0.0, 0.4, 0.4], [0.0, 0.0, 0.0, 0.3, 0.3]]
WEIGHTS = [1.0, 2.0, 2.5, 3.0]
GRIDS = (1024, 4096)
GRAM_DEGREE = 20


def ddelta_components(degree: int = 40):
    """b = (1 - tau) z / (1 - tau z), the symbol of Sarason's D(delta_1) = H(b);
    coefficients past degree 40 are below 1e-16."""
    c = np.zeros(degree + 1)
    c[1:] = (1.0 - TAU) * TAU ** np.arange(degree)
    return [c.tolist()]


# -- exact Gram oracles, G[j, k] = <z^k, z^j> --------------------------------

def diag_gram(weights, degree):
    w = list(weights) + [weights[-1]] * max(0, degree + 1 - len(weights))
    return np.diag(np.asarray(w[: degree + 1], dtype=complex))


def dirichlet_gram(atoms, degree):
    """Closed form of the local Dirichlet Gram of a finite atomic measure:
    G = I + sum_i c_i conj(a_i)^(j-m) a_i^(k-m) sum_{t<m} |a_i|^(2t), m = min(j, k)."""
    j = np.arange(degree + 1)[:, None]
    k = np.arange(degree + 1)[None, :]
    m = np.minimum(j, k)
    g = np.eye(degree + 1, dtype=complex)
    for a, c in atoms:
        a = complex(a)
        rho = abs(a) ** 2
        if abs(rho - 1.0) < 1e-15:
            geo = m.astype(float)
        else:
            geo = (1.0 - rho ** m) / (1.0 - rho)
        g += c * np.conj(a) ** (j - m) * a ** (k - m) * geo
    return g


def cusp_diag(degree):
    k = np.arange(degree + 1)
    return np.where(k == 0, 1.0, 4.0 * k - 2.0)


# -- the fixed catalog ------------------------------------------------------

class Entry:
    """A catalog space with its label, how to rebuild it and its oracles."""

    def __init__(self, label, build, handle=True, gram=None, diag=None,
                 rank=None, admits=None):
        self.label = label
        self.build = build
        self.space = build()
        self.handle = handle
        self.gram = gram        # degree -> exact Gram, or None
        self.diag = diag        # degree -> exact Gram diagonal, or None
        self.rank = rank
        self.admits = admits


def catalog_entries(grids, names):
    out = []
    for n in grids:
        specs = {
            "h2": dict(build=lambda n=n: hb.named_space("h2", n_grid=n),
                       gram=lambda d: np.eye(d + 1, dtype=complex), rank=0, admits=True),
            "rank1-half": dict(build=lambda n=n: hb.named_space("rank1-half", n_grid=n),
                               gram=lambda d: diag_gram([1.0, 2.0], d), rank=1, admits=True),
            "cusp": dict(build=lambda n=n: hb.named_space("cusp", n_grid=n),
                         diag=cusp_diag, rank=1, admits=False),
            "two-term": dict(build=lambda n=n: hb.space_from_json(
                {"kind": "explicit", "components": TWO_TERM}, n_grid=n), rank=2, admits=True),
            "weighted": dict(build=lambda n=n: hb.space_from_json(
                {"kind": "weighted", "weights": WEIGHTS}, n_grid=n),
                gram=lambda d: diag_gram(WEIGHTS, d), rank=3, admits=True),
            "ddelta": dict(build=lambda n=n: hb.space_from_json(
                {"kind": "explicit", "components": ddelta_components()}, n_grid=n),
                gram=lambda d: dirichlet_gram([(1.0, 1.0)], d), rank=1, admits=False),
        }
        for name in names:
            if name in specs:
                out.append(Entry(f"{name}@{n}", **specs[name]))
    dirichlet = {
        "dirichlet-origin": [(0.0, 1.0)],
        "dirichlet-pair": [(0.5, 1.0), (-0.5, 1.0)],
    }
    for name in names:
        if name in dirichlet:
            atoms = dirichlet[name]
            out.append(Entry(name, lambda name=name: hb.named_space(name), handle=False,
                             gram=lambda d, atoms=atoms: dirichlet_gram(atoms, d),
                             rank=len(atoms), admits=True))
    return out


# -- seeded inputs ----------------------------------------------------------

def _points(rng, count, lo=0.05, hi=0.9):
    return rng.uniform(lo, hi, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))


def _poly(rng, degree):
    return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


def _quad(c, g):
    return float(np.real(np.vdot(c, g[: c.size, : c.size] @ c)))


# -- shared op bodies -------------------------------------------------------

def isometry_call(space, handle, pts, coef):
    """Kernel-combination embed: its norm must equal the closed-form c* G c."""
    g = space.gram(pts)
    combo = sum(c * space.kernel_taylor(lam) for c, lam in zip(coef, pts))
    target = float(np.real(np.vdot(coef, g @ coef)))
    if handle:
        pair = space.embed(combo)
        return target, pair.norm_sq, pair.residual, space.tol_solve
    return target, space.poly_norm_sq(combo), 0.0, 0.0


def isometry_check(out, ck):
    target, value, residual, tol = out
    ck.oracle("kernel-combination isometry", value, target, 1e-6)
    ck.certify("embed residual", residual, max(tol, 1e-300) * max(1.0, math.sqrt(abs(value))))


def gram_check(entry, degree):
    def check(g, ck):
        if entry.gram is not None:
            ck.oracle(f"Gram to degree {degree}", g, entry.gram(degree), 1e-10)
        elif entry.diag is not None:
            d = np.real(np.diagonal(g))
            ref = entry.diag(degree)
            ck.oracle(f"||z^k||^2 relative, k <= {degree}", d / ref, np.ones_like(ref), 1e-10)
        else:
            _psd_check(g, ck)
    return check


def _psd_check(g, ck):
    herm = float(np.max(np.abs(g - g.conj().T)))
    ck.certify("Gram Hermitian defect", herm, 1e-12 * max(1.0, float(np.max(np.abs(g)))))
    low = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])
    ck.certify("Gram negative eigenvalue", -low, 1e-10 * float(np.trace(g).real))


# -- queries ----------------------------------------------------------------

class Queries:
    """Warm notebook session: small ops on a fixed catalog with cached Grams."""

    NAMES = ("h2", "rank1-half", "cusp", "two-term", "weighted", "ddelta",
             "dirichlet-origin", "dirichlet-pair")

    def __init__(self, seed):
        self.seed = seed
        self.entries = catalog_entries(GRIDS, self.NAMES)
        for e in self.entries:  # the Gram and kernel caches queries read
            e.space.monomial_gram(GRAM_DEGREE)
            e.space.kernel(0.0, 0.0)

    def make_round(self, index):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for e in self.entries:
            ops.extend(self._ops(e, rng))
        return ops

    def _ops(self, e, rng):
        s = e.space
        name = f"queries.{e.label}."
        ops = []
        pts = _points(rng, 6)
        ops.append(Op(name + "gram_psd", lambda: s.gram(pts), lambda g, ck: _psd_check(g, ck)))

        kp, kc = _points(rng, 4), _poly(rng, 3)
        ops.append(Op(name + "isometry", lambda: isometry_call(s, e.handle, kp, kc),
                      isometry_check))

        c6 = _poly(rng, 6)
        if e.handle:
            def membership_check(out, ck):
                report, gram_norm_sq = out
                ck.expect("membership verdict", bool(report.member), True)
                ck.oracle("membership norm vs Gram form", report.norm ** 2, gram_norm_sq, 1e-10)
                if e.gram is not None:
                    ck.oracle("membership norm vs exact Gram", report.norm ** 2,
                              _quad(c6, e.gram(6)), 1e-10)
            ops.append(Op(name + "membership",
                          lambda: (s.membership(c6), s.poly_norm_sq(c6)), membership_check))
        else:
            def norm_check(out, ck):
                embedded, quadrature = out
                ck.oracle("dirichlet_norm vs embedded norm", embedded, quadrature, 1e-10)
                ck.oracle("embedded norm vs exact Gram", embedded ** 2,
                          _quad(c6, e.gram(6)), 1e-10)
            measure = s.measure
            ops.append(Op(name + "norm",
                          lambda: (s.norm(c6), hb.dirichlet_norm(c6, measure)), norm_check))

        if e.diag is not None:
            k = int(rng.integers(1, GRAM_DEGREE + 1))
            zk = np.zeros(k + 1, dtype=complex)
            zk[k] = 1.0
            ref = float(e.diag(k)[k])
            ops.append(Op(name + "poly_norm_sq", lambda: s.poly_norm_sq(zk),
                          lambda v, ck: ck.oracle(f"||z^{k}||^2", v, ref, 1e-10)))
        else:
            c8 = _poly(rng, 8)
            if e.gram is not None:
                ref = _quad(c8, e.gram(8))
                ops.append(Op(name + "poly_norm_sq", lambda: s.poly_norm_sq(c8),
                              lambda v, ck: ck.oracle("norm^2 vs exact Gram", v, ref, 1e-10)))
            else:
                ops.append(Op(name + "poly_norm_sq",
                              lambda: (s.poly_norm_sq(c8), s.embed(c8).norm_sq),
                              lambda v, ck: ck.oracle("Gram form vs embed", v[0], v[1], 1e-10)))

        if e.handle:
            def roundtrip_check(out, ck):
                pair, back = out
                ck.oracle("L M_z f = f", back.f[: c6.size], c6, 1e-10)
                if pair.companions.size:
                    w = min(back.companions.shape[1], pair.companions.shape[1])
                    ck.oracle("L M_z companions", back.companions[:, :w],
                              pair.companions[:, :w], 1e-10, scale=max(1.0, pair.norm))

            def roundtrip():
                pair = s.embed(c6)
                return pair, s.backward(s.forward(pair))
            ops.append(Op(name + "roundtrip", roundtrip, roundtrip_check))

            lam_r = complex(_points(rng, 1, 0.05, 0.7)[0])

            def resolvent():
                return s.resolvent_divide(s.embed(c6), lam_r)

            def resolvent_check(rd, ck):
                back = rd.f[: c6.size].copy()
                back[1:] -= np.conj(lam_r) * rd.f[: c6.size - 1]
                ck.oracle("(1 - conj(lam) z) f/(1 - conj(lam) z) = f", back, c6, 1e-12)
                ck.certify("resolvent pair residual", rd.residual, 1e-9 * (1.0 + rd.norm))
            ops.append(Op(name + "resolvent_divide", resolvent, resolvent_check))

        lam_p = complex(_points(rng, 1, 0.05, 0.8)[0])

        def pointwise_check(out, ck):
            lhs, rhs = out
            ck.oracle("pointwise defect identity", lhs, rhs, 1e-8,
                      scale=1.0 + abs(lhs) + abs(rhs))
        ops.append(Op(name + "pointwise_defect",
                      lambda: hb.pointwise_defect(s, c6, lam_p), pointwise_check))

        if e.gram is not None or e.diag is not None:
            ops.append(Op(name + f"gram{GRAM_DEGREE}",
                          lambda: s.monomial_gram(GRAM_DEGREE), gram_check(e, GRAM_DEGREE)))
        return ops


# -- sweeps -----------------------------------------------------------------

class Sweeps:
    """Heavy identity and subspace ops that each run hundreds of embeds."""

    NAMES = ("rank1-half", "cusp", "two-term", "weighted", "dirichlet-pair")
    NEARLY_INVARIANT = ("rank1-half", "two-term", "weighted")
    POOL = 3  # untouched handles per space; one run uses three rounds

    def __init__(self, seed):
        self.seed = seed
        self.entries = catalog_entries((1024,), self.NAMES)
        self.pool = {e.label: [] for e in self.entries}
        self.z_norm = {}
        for e in self.entries:
            e.space.monomial_gram(GRAM_DEGREE)
            e.space.kernel(0.0, 0.0)
            self.z_norm[e.label] = math.sqrt(e.space.poly_norm_sq(np.array([0.0, 1.0])))
            for _ in range(self.POOL):
                self.pool[e.label].append(e.build())

    def refill(self, _index):
        """Untouched handles for the next round; built outside every op."""
        for e in self.entries:
            if not self.pool[e.label]:
                self.pool[e.label].append(e.build())

    def make_round(self, index):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for e in self.entries:
            ops.extend(self._ops(e, rng))
        return ops

    def _ops(self, e, rng):
        s = e.space
        name = f"sweeps.{e.label.split('@')[0]}."
        ops = []

        fresh = self.pool[e.label].pop()
        d = int(rng.integers(44, 49))  # Gram cost grows like d^2; a narrow band keeps p50 steady

        def gram_rank_check(out, ck):
            g, rank = out
            ck.expect("estimate_rank", rank, e.rank)
            gram_check(e, d)(g, ck)
        def gram_rank():
            g = fresh.monomial_gram(d)
            return g, hb.estimate_rank(g)
        ops.append(Op(name + "monomial_gram_rank", gram_rank, gram_rank_check))

        lam = complex(_points(rng, 1, 0.3, 0.6)[0])

        def poly_density():
            return hb.poly_density_residual(s, s.kernel_taylor(lam), range(0, 25, 2))

        def poly_density_check(r, ck):
            res = np.asarray(r.residuals)
            ck.expect("residuals finite", bool(np.all(np.isfinite(res))), True)
            ck.certify("largest residual increase", float(np.max(np.diff(res))), 0.0)
        ops.append(Op(name + "poly_density", poly_density, poly_density_check))

        def carleson_check(rc, ck):
            ck.expect("reverse-Carleson verdict", rc.admits, e.admits)
            if rc.g is not None:
                ok = np.isfinite(rc.g) & (rc.g <= 20.0)
                rel = float(np.max(np.abs(rc.h2[ok] - rc.g[ok]) / rc.g[ok]))
                ck.certify("h2 vs minimal density g (deep radius)", rel, 1e-3)
        ops.append(Op(name + "reverse_carleson", lambda: hb.reverse_carleson(s),
                      carleson_check))

        c4 = _poly(rng, 4)

        def norm_limit():
            return (hb.norm_limit_estimate(s, c4), hb.wandering_norm(s, c4), s.poly_norm_sq(c4))

        def norm_limit_check(out, ck):
            est, wand, direct = out
            ck.certify("radial norm estimate gap", abs(est.final - direct) / direct, 1e-2)
            ck.certify("wandering norm / norm^2", abs(wand.final) / direct, 1e-2)
        ops.append(Op(name + "norm_limit", norm_limit, norm_limit_check))

        if e.label.split("@")[0] in self.NEARLY_INVARIANT:
            phi = np.array([0.0, 1.0 / self.z_norm[e.label]])
            f = np.convolve([0.0, 1.0], _poly(rng, 2))

            def nearly_check(out, ck):
                r, direct = out
                ck.certify("nearly-invariant norm gap", abs(r.final - direct) / direct, 2e-2)
            ops.append(Op(name + "nearly_invariant",
                          lambda: (hb.nearly_invariant_norm(s, phi, f), s.poly_norm_sq(f)),
                          nearly_check))

        zeros = _points(rng, 2, 0.2, 0.6)
        theta = hb.BlaschkeProduct(list(zeros))

        # On the handle whose Gram the first op built to degree d: the
        # residual's norms extend that Gram to degree 255 in every round,
        # where the shared handle would pay it in the first round only.
        def intersect():
            basis = hb.intersect_model_space(fresh, theta)
            return basis, hb.subspaces.backward_invariance_residual(fresh, basis)

        def intersect_check(out, ck):
            basis, res = out
            ck.expect("intersection dimension", basis.dim, theta.degree)
            ck.certify("backward-invariance residual", res, 1e-6)
        ops.append(Op(name + "intersect", intersect, intersect_check))

        a = complex(_points(rng, 1, 0.05, 0.5)[0])
        b = complex(_points(rng, 1, 0.88, 0.95)[0])
        p = _poly(rng, 2)

        def quotient():
            member = hb.shift_subspace_membership(s, [1.0, a], np.convolve([1.0, a], p))
            pole = hb.shift_subspace_membership(s, [-b, 1.0], [1.0])
            return member.member, pole.member
        ops.append(Op(name + "quotient", quotient,
                      lambda out, ck: ck.expect("quotient verdicts", out, (True, False))))

        if e.handle:
            ops.append(Op(name + "mz_test", lambda: hb.mz_test(s.symbol),
                          lambda r, ck: ck.expect("mz verdict", bool(r.invariant), True)))
        return ops


# -- factor -----------------------------------------------------------------

SCALES = ((0.5, "half"), (0.9, "s0.9"), (1.0, "touch"))
# TOUCH_NOTE: random rank-2 and rank-3 rows touching 1 run on the coarse grid
# only.  The Wilson/Bauer factorization stalls on them after anywhere from
# 0.4 s to 2 s at N = 4096, and two such draws per round made ops_per_s
# depend on the seed more than on the code.  The fixed rank-2 example, which
# also touches 1, runs on both grids.


def scaled_row(rng, rank, sup):
    """Random polynomial row with B(0) = 0, rank components of degree
    rank..6, scaled so that sup_theta sum |b_i|^2 equals ``sup``; for sup = 1
    the maximum is refined off the grid so the row touches 1 exactly."""
    from scipy.optimize import minimize_scalar  # imported on first use, outside set-up

    degree = int(rng.integers(rank, 7))
    coeffs = np.zeros((rank, degree + 1), dtype=complex)
    coeffs[:, 1:] = rng.normal(size=(rank, degree)) + 1j * rng.normal(size=(rank, degree))
    fine = 1 << 14
    theta = 2.0 * np.pi * np.arange(fine) / fine

    def energy(t):
        z = np.exp(1j * np.asarray(t, dtype=float))
        return np.sum(np.abs(np.polynomial.polynomial.polyval(z, coeffs.T)) ** 2, axis=0)

    vals = energy(theta)
    j = int(np.argmax(vals))
    step = 2.0 * np.pi / fine
    best = minimize_scalar(lambda t: -float(energy(t)), bounds=(theta[j] - step, theta[j] + step),
                           method="bounded", options={"xatol": 1e-13})
    peak = max(float(vals[j]), -float(best.fun))
    coeffs *= math.sqrt(sup / peak)
    return [row.tolist() for row in coeffs]


class Factor:
    """Cold handle construction and certification from generated symbols."""

    def __init__(self, seed):
        self.seed = seed

    def make_round(self, index):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for n in GRIDS:
            for rank in (1, 2, 3):
                for sup, tag in SCALES:
                    if tag == "touch" and rank > 1 and n != GRIDS[0]:
                        continue  # see TOUCH_NOTE
                    rows = scaled_row(rng, rank, sup)
                    ops.append(self._op(f"factor.rank{rank}-{tag}@{n}", rows, n, rng))
            ops.append(self._op(f"factor.cusp@{n}", [[0.0, 0.5, 0.5]], n, rng))
            ops.append(self._op(f"factor.ddelta@{n}", ddelta_components(), n, rng))
            ops.append(self._op(f"factor.rank2-example@{n}", RANK2_EXAMPLE, n, rng))
            ops.append(self._op(f"factor.weighted@{n}", None, n, rng))
        return ops

    @staticmethod
    def _op(name, rows, n, rng):
        pts, coef = _points(rng, 3), _poly(rng, 2)

        def build():
            if rows is None:
                symbol = hb.weighted_space_symbol(WEIGHTS, n_boundary=n)
            else:
                symbol = hb.RowSymbol([hb.DiskFunction(r, n_boundary=n) for r in rows])
            space = hb.SpaceHandle(symbol, n_grid=n)
            return space.defect_identity_residual(), isometry_call(space, True, pts, coef)

        def check(out, ck):
            residual, iso = out
            ck.certify("defect identity residual", residual, 1e-8)
            isometry_check(iso, ck)
        return Op(name, build, check)


WORKLOADS = {"queries": Queries, "sweeps": Sweeps, "factor": Factor}


def run_anchors(tracer):
    """The ROADMAP count anchors, each traced in a phase of its own."""
    tracer.phase = "anchor.build"
    rank1 = hb.named_space("rank1-half")
    kernel = rank1.kernel_taylor(0.5)
    cusp = hb.named_space("cusp")
    tracer.phase = "anchor.poly_density"
    hb.poly_density_residual(rank1, kernel, range(0, 25, 2))
    tracer.phase = "anchor.carleson_cusp"
    hb.reverse_carleson(cusp)
