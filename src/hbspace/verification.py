"""Per-space invariant battery behind the ``verify`` subcommand.

Each check returns (name, passed, detail); the set adapts to what the space
supports (factored symbol handles vs embedded Dirichlet spaces vs inner-type
handles).  On the first two, ``defect-form`` checks the paper's hypothesis
||Lf||^2 <= ||f||^2 - |f(0)|^2 exactly on the polynomials of degree below 48
(``symbols.defect_form``) and the form's rank against the declared n."""

from dataclasses import dataclass

import numpy as np

from .model import SpaceHandle
from .symbols import DirichletSpace, defect_form, dirichlet_norm


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _random_interior(rng, count, radius=0.85):
    return rng.uniform(0.05, radius, count) * np.exp(2j * np.pi * rng.uniform(0, 1, count))


def _check_kernel_normalization(space, rng):
    pts = _random_interior(rng, 20)
    worst = float(np.max(np.abs(space.kernel(pts, 0.0) - 1.0)))
    return CheckResult("kernel-normalization", worst <= 1e-14,
                       f"max |k(z,0) - 1| = {worst:.2e}")


def _check_gram_psd(space, rng):
    pts = _random_interior(rng, 50)
    g = space.gram(pts)
    low = float(np.linalg.eigvalsh(g)[0])
    floor = -1e-10 * float(np.trace(g).real)
    return CheckResult("gram-psd", low >= floor,
                       f"min eigenvalue {low:.2e} (floor {floor:.2e})")


def _check_defect_identity(space, rng):
    res = space.defect_identity_residual()
    return CheckResult("defect-identity", res <= 1e-8, f"bound over the circle {res:.2e}")


def _check_embed_constant(space, rng):
    pair = space.embed(np.array([1.0]))
    worst = max(pair.residual, float(np.max(np.abs(pair.companions), initial=0.0)))
    return CheckResult("embed-constant", worst <= 1e-12,
                       f"companions of 1 bounded by {worst:.2e}")


def _check_isometry(space, rng):
    pts = _random_interior(rng, 6)
    coeff = rng.normal(size=6) + 1j * rng.normal(size=6)
    g = space.gram(pts)
    target = float(np.real(np.vdot(coeff, g @ coeff)))
    combo = sum(c * space.kernel_taylor(lam) for c, lam in zip(coeff, pts))
    value = space.embed(combo).norm_sq
    rel = abs(value - target) / target
    return CheckResult("model-isometry", rel <= 1e-12, f"relative error {rel:.2e}")


def _check_roundtrip_shift(space, rng):
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    pair = space.embed(c)
    shifted = space.forward(pair)
    back = space.backward(shifted)
    err = float(np.max(np.abs(back.rows - pair.rows)))  # both rows have the width of c
    # the residuals the shifts carry in closed form, against ones recomputed from the rows
    gap = max(abs(p.residual - space.pair_from_parts(p.f, p.companions).residual)
              for p in (shifted, back))
    return CheckResult("shift-roundtrip", err <= 1e-10 and gap <= 1e-12 * (1.0 + pair.norm),
                       f"max coefficient error {err:.2e}, carried residuals off by {gap:.2e}")


def _check_membership_constant(space, rng):
    report = space.membership(np.array([1.0]))
    return CheckResult("membership-constant", bool(report.member),
                       f"residual {report.residual:.2e}")


def _check_dirichlet_norms(space, rng):
    worst = 0.0
    for _ in range(10):
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        direct = dirichlet_norm(c, space.measure)
        embedded = space.norm(c)
        worst = max(worst, abs(direct - embedded) / embedded)
    return CheckResult("dirichlet-norm-agreement", worst <= 1e-6,
                       f"max relative gap {worst:.2e}")


def _check_defect_form(space, rng):
    _, evals, bound = defect_form(space.monomial_gram(47))
    rank = int(np.sum(evals > bound))
    detail = f"least eigenvalue {evals[0]:.2e} (bound {bound:.2e}), rank {rank}, declared {space.n}"
    return CheckResult("defect-form", evals[0] >= -bound and rank == space.n, detail)


def verify_space(space, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks = [_check_kernel_normalization, _check_gram_psd]
    if isinstance(space, SpaceHandle):
        if space.mode == "analytic":
            checks += [_check_defect_identity, _check_embed_constant,
                       _check_isometry, _check_defect_form,
                       _check_roundtrip_shift, _check_membership_constant]
        else:
            checks += [_check_embed_constant, _check_membership_constant]
    elif isinstance(space, DirichletSpace):
        checks += [_check_defect_form, _check_dirichlet_norms]
    return [fn(space, rng) for fn in checks]
