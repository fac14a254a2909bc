"""Command-line front end.

Subcommands: kernel, embed, norm, norm-formula, carleson, mz-test,
poly-density, factor, rank, dual, verify, suite.  Exit codes: 0 success,
1 invariant failure, 2 configuration error, 3 numerical failure.  ``--quick``
(reduced schedules) belongs to kernel, norm-formula, poly-density and suite,
the subcommands that read it.  ``kernel`` evaluates its whole table in
one broadcast kernel call, so outputs are byte-identical for identical
(config, seed).

Every subcommand reports through one emitter: it prints a non-empty
``note`` of the result, and its ``--json`` object (also written to
``report.json`` under ``--out``) holds the subcommand's own fields plus
``command``, ``conclusive`` and ``note``, and ``residual`` where the result
carries one (see ``hbspace.report.Report``).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .acceptance import run_all
from .analysis import (
    LimitSchedule,
    MzReport,
    cauchy_dual,
    mz_test,
    norm_limit_estimate,
    reverse_carleson,
)
from .catalog import named_space, space_from_json
from .errors import ConfigError, HBSpaceError, InvariantViolation, NumericalError
from .report import Report
from .reporting import heatmap, line_plot, write_csv
from .series import SzegoSum
from .subspaces import poly_density_residual

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_space(args):
    if args.space and args.named:
        raise ConfigError("give either --space FILE or --named NAME, not both")
    if args.space:
        return space_from_json(args.space)
    if args.named:
        return named_space(args.named)
    raise ConfigError("a space is required: --space FILE or --named NAME")


def _finite(values, text: str):
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"non-finite value in {text!r}")
    return values


def _complex(text: str) -> complex:
    """complex() of one token, with a trailing i read as the imaginary unit
    (so that inf and nan keep their meaning)."""
    text = text.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
    return complex(text)


def _parse_coeffs(text) -> np.ndarray:
    try:
        values = np.array([_complex(tok) for tok in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise ConfigError(f"cannot parse coefficient list {text!r}: {exc}")
    return _finite(values, text)


def _input_function(args, space, cut=False):
    """The --coeffs array, or the kernel at --kernel-at: exact on a handle
    unless ``cut``, which takes its Taylor coefficients to the handle degree
    (refused with NumericalError when the dropped tail is not negligible)."""
    if args.coeffs and args.kernel_at is not None:
        raise ConfigError("give either --coeffs or --kernel-at, not both")
    if args.coeffs:
        return _parse_coeffs(args.coeffs)
    if args.kernel_at is not None:
        lam = _complex(args.kernel_at)
        f = space.kernel_taylor(_finite(lam, args.kernel_at))
        return f.taylor(space.degree) if cut and isinstance(f, SzegoSum) else f
    raise ConfigError("an input function is required: --coeffs or --kernel-at")


def _out_path(args, name) -> str:
    return os.path.join(args.out, name)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    return value


def _emit(args, command, report: Report | None = None, **fields) -> None:
    """Print the report's note when it has one, and write the JSON payload
    (to stdout under --json, to report.json under --out): the subcommand's
    fields with ``command``, the report's ``conclusive`` and ``note``, and
    its ``residual`` when it has one."""
    if report is None:  # not ``report or``: a negative verdict is falsy
        report = Report()
    if report.note:
        print(report.note)
    payload = {**fields, "command": command, "conclusive": report.conclusive,
               "note": report.note}
    if report.residual is not None:
        payload["residual"] = report.residual
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if args.json:
        print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(_out_path(args, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_kernel(args) -> int:
    space = _load_space(args)
    if args.pairs:
        pts = []
        for chunk in args.pairs.split(";"):
            z_text, _, lam_text = chunk.partition(":")
            try:
                pts.append((_complex(z_text), _complex(lam_text)))
            except ValueError as exc:
                raise ConfigError(f"cannot parse evaluation pair {chunk!r}: {exc}")
        pts = np.array(pts)
        count = len(pts)
    else:
        count = 16 if args.quick else 64
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0.05, 0.9, (count, 2)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, (count, 2)))
    rows = list(zip(pts[:, 0], pts[:, 1], space.kernel(pts[:, 0], pts[:, 1])))
    meta = {"command": "kernel", "seed": args.seed}
    if args.out:
        write_csv(_out_path(args, "kernel.csv"), ["z", "lam", "k"], rows, meta)
        torus = 0.9 * np.exp(2j * np.pi * (np.arange(24) / 24))
        heatmap(_out_path(args, "kernel.svg"), space.kernel(torus[:, None], torus[None, :]).real,
                title="Re k on the 0.9-radius torus grid")
    for z, lam, k in rows[: 5 if not args.json else 0]:
        print(f"k({z:.4f}, {lam:.4f}) = {k:.12g}")
    _emit(args, "kernel", seed=args.seed, count=count,
          rows=[[str(z), str(lam), str(k)] for z, lam, k in rows])
    return EXIT_OK


def cmd_embed(args) -> int:
    space = _load_space(args)
    f = _input_function(args, space)
    pair = space.embed(f)
    residual, norm, n = pair.residual, pair.norm, pair.n
    print(f"residual: {residual:.6e}")
    print(f"norm: {norm:.12g}")
    if args.out:
        columns = np.vstack(pair.parts(space.degree + 1)).T
        rows = [(k, *column) for k, column in enumerate(columns)]
        cols = ["k", "f"] + [f"f1_{i + 1}" for i in range(n)]
        write_csv(_out_path(args, "embed.csv"), cols, rows,
                  {"command": "embed", "seed": args.seed})
    _emit(args, "embed", residual=residual, norm=norm, n=n)
    return EXIT_OK


def cmd_norm(args) -> int:
    space = _load_space(args)
    f = _input_function(args, space)
    report = space.membership(f)
    print(f"member: {report.member}  residual: {report.residual:.6e}")
    if report.member:
        print(f"norm: {report.norm:.12g}")
    _emit(args, "norm", report, member=bool(report.member), norm=report.norm)
    return EXIT_OK


def cmd_norm_formula(args) -> int:
    space = _load_space(args)
    f = _input_function(args, space, cut=True)
    k_max = 8 if args.quick else args.k_max
    schedule = LimitSchedule(args.k_min, k_max)
    est = norm_limit_estimate(space, f, schedule)
    direct = space.poly_norm_sq(f)
    print(f"direct norm^2: {direct:.12g}")
    for r, v in est.rows:
        print(f"r = {r:.10f}  estimate = {v:.12g}")
    print(f"limit (r = 1): {est.final:.12g}")
    if args.out:
        write_csv(_out_path(args, "norm_formula.csv"), ["r", "estimate"], est.rows,
                  {"command": "norm-formula", "seed": args.seed, "direct": direct})
        line_plot(_out_path(args, "norm_formula.svg"), [r for r, _ in est.rows],
                  {"estimate": [v for _, v in est.rows],
                   "direct": [direct] * len(est.rows)},
                  title="radial norm estimates", xlabel="r", ylabel="estimate")
    rel = abs(est.final - direct) / max(direct, 1e-30)
    _emit(args, "norm-formula", est, direct=direct, final=est.final, relative_gap=rel)
    return EXIT_OK


def cmd_carleson(args) -> int:
    space = _load_space(args)
    report = reverse_carleson(space)
    if not report.applicable:
        _emit(args, "carleson", report, applicable=False)
        return EXIT_OK
    print(f"admits reverse Carleson measure: {report.admits}")
    print(f"reverse-Carleson constant: {report.constant:.16g}")
    print(f"h2 radius: {report.radius_h2}")
    if args.out:
        g = report.g if report.g is not None else [""] * report.lam.size
        write_csv(_out_path(args, "carleson.csv"), ["lam", "h2", "g"],
                  list(zip(report.lam, report.h2, g)),
                  {"command": "carleson", "seed": args.seed})
    # no measure: null, since JSON has no infinity
    constant = report.constant if report.admits else None
    _emit(args, "carleson", report, admits=report.admits, constant=constant,
          radius_h2=report.radius_h2)
    return EXIT_OK


def cmd_mz_test(args) -> int:
    space = _load_space(args)
    symbol = getattr(space, "symbol", None)
    # a Dirichlet-type space is forward-shift invariant, with no symbol to test
    report = MzReport(True, None) if symbol is None else mz_test(symbol)
    print(f"invariant: {report.invariant}  conclusive: {report.conclusive}")
    if report.log_estimate is not None:
        print(f"log-defect integral: {report.log_estimate:.10g}")
    _emit(args, "mz-test", report, invariant=report.invariant,
          log_estimate=report.log_estimate)
    return EXIT_OK


def cmd_poly_density(args) -> int:
    space = _load_space(args)
    f = _input_function(args, space)
    degrees = list(range(0, (12 if args.quick else args.max_degree) + 1, args.step))
    result = poly_density_residual(space, f, degrees)
    rows = list(zip(result.degrees, result.residuals))
    for d, r in rows:
        print(f"degree {d:3d}  residual {r:.6e}")
    if args.out:
        write_csv(_out_path(args, "poly_density.csv"), ["degree", "residual"], rows,
                  {"command": "poly-density", "seed": args.seed})
        line_plot(_out_path(args, "poly_density.svg"), result.degrees,
                  {"residual": result.residuals}, title="polynomial approximation",
                  xlabel="degree", ylabel="residual")
    _emit(args, "poly-density", result, degrees=[int(d) for d in result.degrees],
          residuals=[float(r) for r in result.residuals])
    return EXIT_OK


def cmd_factor(args) -> int:
    space = _load_space(args)
    report = space.factorization
    if report is None:
        raise ConfigError("factor output needs an analytic-model symbol space")
    coeffs = report.symbol.coeffs
    degree = coeffs.shape[0] - 1
    print(f"residual: {report.residual:.6e}  degree: {degree}")
    if args.out:
        rows = [(k, i, j, coeffs[k, i, j]) for k, i, j in np.ndindex(coeffs.shape)]
        write_csv(_out_path(args, "factor.csv"), ["power", "row", "col", "value"], rows,
                  {"command": "factor", "seed": args.seed, "residual": report.residual,
                   "degree": degree})
    _emit(args, "factor", report, degree=degree)
    return EXIT_OK


def cmd_rank(args) -> int:
    space = _load_space(args)
    if not space.mz_invariant:
        raise NumericalError("defect rank undefined: the space is not forward-shift invariant")
    print(f"defect rank: {space.n}")
    note = "truncated symbol: the defect rank is a lower bound only" if space.truncated else ""
    _emit(args, "rank", Report(conclusive=not space.truncated, note=note), rank=space.n,
          truncated=bool(space.truncated))
    return EXIT_OK


def cmd_dual(args) -> int:
    if not args.weights:
        raise ConfigError("--weights is required for dual")
    w = [float(tok) for tok in args.weights.split(",")]
    dual = cauchy_dual(np.diag(w))
    dual_w = np.diagonal(dual).real
    rows = list(zip(range(len(w)), w, dual_w))
    for k, a, b in rows:
        print(f"k={k}  w={a:.12g}  dual={b:.12g}")
    if args.out:
        write_csv(_out_path(args, "dual.csv"), ["k", "weight", "dual_weight"], rows,
                  {"command": "dual", "seed": args.seed})
    _emit(args, "dual", weights=w, dual_weights=[float(x) for x in dual_w])
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import verify_space

    space = _load_space(args)
    checks = verify_space(space, seed=args.seed)
    for c in checks:
        print(c.line())
    passed = all(c.passed for c in checks)
    _emit(args, "verify", passed=passed,
          checks=[{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks])
    return EXIT_OK if passed else EXIT_INVARIANT


def cmd_suite(args) -> int:
    start = time.perf_counter()
    results = run_all(quick=args.quick, echo=None if args.json else print)
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in results)
    if not args.json:
        print(f"total runtime: {elapsed:.2f}s  "
              f"({sum(r.passed for r in results)}/{len(results)} criteria passed)")
    _emit(args, "suite", tool="hbspace", version=__version__, seed=args.seed,
          quick=bool(args.quick), elapsed_seconds=elapsed, passed=passed,
          results=[{"id": r.cid, "name": r.name, "passed": r.passed,
                    "detail": r.detail, "elapsed_seconds": r.elapsed} for r in results])
    return EXIT_OK if passed else EXIT_INVARIANT


def _add_space_args(p):
    p.add_argument("--space", help="path to a space-definition JSON file")
    p.add_argument("--named", help="named example space (h2, rank1-half, ...)")


def _add_common(p):
    p.add_argument("--out", help="directory for CSV/SVG outputs")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized point sets")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_function_args(p):
    p.add_argument("--coeffs", help="Taylor coefficients, comma separated")
    p.add_argument("--kernel-at", help="use the kernel function at this point (exact on "
                   "symbol spaces; norm-formula cuts it at the handle degree and "
                   "refuses a cut that drops a non-negligible tail)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbspace",
        description="Numerics for Hilbert spaces of disk-analytic functions "
                    "with a contractive backward shift.")
    parser.add_argument("--version", action="version", version=f"hbspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("kernel", cmd_kernel, "tabulate reproducing-kernel values", True, False),
        ("embed", cmd_embed, "model companion of a function", True, True),
        ("norm", cmd_norm, "space norm and membership verdict", True, True),
        ("norm-formula", cmd_norm_formula, "radial norm-formula estimates", True, True),
        ("carleson", cmd_carleson, "reverse-Carleson diagnostics", True, False),
        ("mz-test", cmd_mz_test, "forward-shift invariance test", True, False),
        ("poly-density", cmd_poly_density, "polynomial approximation residuals", True, True),
        ("factor", cmd_factor, "outer defect factor", True, False),
        ("rank", cmd_rank, "defect rank of a forward-shift-invariant space", True, False),
        ("dual", cmd_dual, "Cauchy dual of diagonal weights", False, False),
        ("verify", cmd_verify, "run the invariant battery on a space", True, False),
        ("suite", cmd_suite, "run all acceptance criteria", False, False),
    ]
    for name, fn, help_text, needs_space, needs_function in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if needs_space:
            _add_space_args(p)
        if needs_function:
            _add_function_args(p)
        if name in ("kernel", "norm-formula", "poly-density", "suite"):
            p.add_argument("--quick", action="store_true", help="reduced schedules")
        if name == "kernel":
            p.add_argument("--pairs", help="explicit z:lam pairs, ';' separated")
        if name == "norm-formula":
            p.add_argument("--k-min", type=int, default=4)
            p.add_argument("--k-max", type=int, default=10)
        if name == "poly-density":
            p.add_argument("--max-degree", type=int, default=24)
            p.add_argument("--step", type=int, default=2)
        if name == "dual":
            p.add_argument("--weights", help="diagonal Gram weights, comma separated")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HBSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, NotImplementedError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
