#!/usr/bin/env python3
"""hbspace benchmark: one client in a closed loop, outputs checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload queries --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: queries, sweeps, factor, cli (``all`` runs the four in turn).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced, then a fixed number of rounds with the tracer installed, then
the two ROADMAP count anchors, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, spans and temporary files
go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

_perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("queries", "sweeps", "factor", "cli")
SCRIPTS = ("radial_norm_sweep.py", "carleson_densities.py", "rank_scan.py")

# Library and BLAS threads, pinned so that runs are comparable on a 2-core box.
THREADS = 1
THREAD_VARS = ("HBSPACE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is measured this many extra times in fresh processes; setup_s is the
# median over these and the in-process set-up.
SETUP_PROBES = {"queries": 2, "sweeps": 2, "factor": 4}
CLI_IMPORTS = 5
# A run is a fixed number of whole rounds: --seconds divided by a nominal
# round time.  Fixing the work, not the wall time, keeps the sample count and
# so the tail percentile the same from run to run and from commit to commit.
# At --seconds 15 the counts (queries 17, sweeps 3, factor 6, cli 1) put the
# tail sample x_(n-10) inside a class of like ops, not on the edge between
# two: for queries it is the 7th of the 17 samples of the slowest op kind.
NOMINAL_ROUND_S = {"queries": 0.88, "sweeps": 5.0, "factor": 2.5, "cli": 15.0}
# Rounds run under the tracer; fixed so that per-layer counts repeat exactly.
TRACED_ROUNDS = {"queries": 3, "sweeps": 1, "factor": 2}
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("failed_frac", "fraction"),
    ("accuracy_digits_min", "digits"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (metric, unit, layer whose span totals it reads, field).
_COUNTED = ("spectral.factor", "spectral.residual", "symbols.validate",
            "harmonic.log_diagnostic", "model.handle", "model.embed.fft",
            "model.embed.triangular", "harmonic.fft", "model.inner", "model.monomial_gram",
            "model.membership", "model.shift", "symbols.kernel", "symbols.dirichlet",
            "symbols.rank", "series")
_SELF_ONLY = ("analysis.norm_limit", "analysis.carleson", "analysis.mz_test",
              "analysis.pointwise", "subspaces.poly_density", "subspaces.intersect",
              "subspaces.nearly_invariant", "subspaces.quotient", "catalog.build",
              "acceptance.suite", "verification.verify")
EMBED_ROUTES = ("model.embed.fft", "model.embed.triangular", "model.embed.direct",
                "model.embed.unknown")
ANCHORS = {"anchor.poly_density.embed_fft_calls": 702,
           "anchor.carleson_cusp.embed_triangular_calls": 256}


def per_layer_units():
    units = {}
    for layer in _COUNTED:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "spectral.factor.wilson_iters": "count",
        "spectral.factor.first_route_ratio": "ratio",
        "spectral.factor.regularized": "count",
        "spectral.factor.failed": "count",
        "model.embeds_per_op": "embeds/op",
    })
    for layer in _SELF_ONLY:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.import_s": "s",
        "cli.process_s": "s",
        "trace.ops": "count",
        "trace.overhead_frac": "fraction",
        "anchor.poly_density.embed_fft_calls": "count",
        "anchor.carleson_cusp.embed_triangular_calls": "count",
        "anchor.carleson_cusp.embed_triangular_ms": "ms",
    })
    return units


# -- environment ---------------------------------------------------------

def checkout_problem(workload):
    if not os.path.isfile(os.path.join(SRC, "hbspace", "__init__.py")):
        return f"no hbspace sources at {os.path.relpath(SRC, os.getcwd())}/hbspace"
    if workload in ("cli", "all"):
        for name in SCRIPTS:
            if not os.path.isfile(os.path.join(ROOT, "scripts", name)):
                return f"missing scripts/{name}"
    return None


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if unreadable."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# -- in-process workloads ----------------------------------------------------

def in_process_setup(workload, seed, tracer=None):
    """From before ``import hbspace`` to a workload ready for its first op."""
    start = _perf()
    sys.path.insert(0, SRC)
    import hbspace

    if not os.path.abspath(hbspace.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hbspace imported from {hbspace.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    import workloads

    built = workloads.WORKLOADS[workload](seed)
    return _perf() - start, built


def setup_probes(workload, seed, count):
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def rounds_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def run_in_process(args):
    from ops import Recorder, run_closed_loop

    setups = setup_probes(args.workload, args.seed, SETUP_PROBES[args.workload])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup_s, wl = in_process_setup(args.workload, args.seed, tracer)
    setups.append(setup_s)
    refill = getattr(wl, "refill", None)
    rec = Recorder()
    if not args.trace:
        run_closed_loop(wl.make_round, rec, rounds_for(args.workload, args.seconds),
                        before_round=refill)
        return {"recorders": [rec], "setups": setups,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    import workloads

    tracer.uninstall()
    run_closed_loop(wl.make_round, rec, rounds_for(args.workload, args.seconds / 2.0),
                    before_round=refill)
    traced = Recorder(tracer)

    def traced_refill(index):
        tracer.phase = "setup"
        if refill is not None:
            refill(index)
        tracer.phase = "ops"

    tracer.install()
    run_closed_loop(wl.make_round, traced, TRACED_ROUNDS[args.workload],
                    before_round=traced_refill)
    workloads.run_anchors(tracer)
    tracer.uninstall()
    return {"recorders": [rec, traced], "setups": setups, "tracer": tracer,
            "untraced": rec, "traced": traced}


# -- cli workload ---------------------------------------------------------------

def run_cli(args):
    sys.path.insert(0, SRC)
    import cli_bench
    from ops import Recorder, run_closed_loop

    env = child_env()
    setups = cli_bench.cold_imports(ROOT, env, CLI_IMPORTS)
    work_dir = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        plain = cli_bench.CliPass(ROOT, env, os.path.join(work_dir, "out"))
        rec = Recorder()
        if not args.trace:
            run_closed_loop(lambda _: plain.ops(), rec, rounds_for("cli", args.seconds))
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            return {"recorders": [rec], "setups": setups, "rss_mb": rss}
        run_closed_loop(lambda _: plain.ops(), rec, 1)
        trace_dir = os.path.join(work_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        traced_pass = cli_bench.CliPass(ROOT, env, os.path.join(work_dir, "out"), trace_dir)
        traced = Recorder()
        run_closed_loop(lambda _: traced_pass.ops(), traced, 1)

        import workloads
        from tracer import Tracer

        tracer = Tracer()
        for op_id, (_, _, data) in enumerate(traced_pass.children):
            if data:
                tracer.merge(data["trace"], op_id)
        tracer.install()
        workloads.run_anchors(tracer)
        tracer.uninstall()
        import_s, process_s = cli_bench.launcher_totals(traced_pass.children)
        return {"recorders": [rec, traced], "setups": setups, "tracer": tracer,
                "untraced": rec, "traced": traced,
                "cli": {"import_s": import_s, "process_s": process_s}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# -- metrics ------------------------------------------------------------------

def end_to_end_metrics(run):
    from ops import median, tail

    rec = run["recorders"][0]
    lat_ms = [t * 1e3 for t in rec.latencies]
    p, tail_ms, beyond = tail(lat_ms)
    digits = rec.accuracy_digits()
    n = len(lat_ms)
    return {
        "setup_s": (median(run["setups"]), f"median of {len(run['setups'])} set-ups"),
        "ops_per_s": (median(rec.round_rates),
                      f"median of {len(rec.round_rates)} rounds, {n} ops"),
        "latency_p50_ms": (median(lat_ms), f"n={n}"),
        "latency_tail_ms": (tail_ms, f"p{p:g}, n={n}, {beyond} beyond"),
        "failed_frac": (rec.total_failed / max(rec.total_attempted, 1),
                        f"{rec.total_failed} of {rec.total_attempted}"),
        # no oracle comparison at all (every op raised) verifies no digit
        "accuracy_digits_min": (digits if digits is not None else 0.0,
                                f"over {len(rec.errors)} oracle comparisons"),
        "peak_rss_mb": (run["rss_mb"], "ru_maxrss"),
    }


def per_layer_metrics(run):
    from ops import median

    tracer = run["tracer"]
    totals = tracer.layer_totals(("setup", "ops"))
    facts = tracer.fact_totals(("setup", "ops"))
    ops_totals = tracer.layer_totals(("ops",))
    traced = run["traced"]
    m = {}
    for layer in _COUNTED:
        calls, _, self_s = totals.get(layer, (0, 0.0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
    for layer in _SELF_ONLY:
        m[f"{layer}.self_s"] = totals.get(layer, (0, 0.0, 0.0))[2]
    factor_calls = m["spectral.factor.calls"]
    m["spectral.factor.wilson_iters"] = facts.get("spectral.factor.wilson_iters", 0)
    m["spectral.factor.first_route_ratio"] = (
        facts.get("spectral.factor.wilson_settled", 0) / factor_calls if factor_calls else 0.0)
    m["spectral.factor.regularized"] = facts.get("spectral.factor.regularized", 0)
    m["spectral.factor.failed"] = facts.get("spectral.factor.failed", 0)
    embeds = sum(ops_totals.get(r, (0, 0.0, 0.0))[0] for r in EMBED_ROUTES)
    m["model.embeds_per_op"] = embeds / max(traced.total_attempted, 1)
    cli = run.get("cli", {})
    m["cli.import_s"] = cli.get("import_s", 0.0)
    m["cli.process_s"] = cli.get("process_s", 0.0)
    m["trace.ops"] = traced.total_attempted
    m["trace.overhead_frac"] = (median(traced.round_rates)
                                / median(run["untraced"].round_rates) - 1.0)
    fft = tracer.layer_totals(("anchor.poly_density",)).get("model.embed.fft", (0, 0.0, 0.0))
    tri = tracer.layer_totals(("anchor.carleson_cusp",)).get(
        "model.embed.triangular", (0, 0.0, 0.0))
    m["anchor.poly_density.embed_fft_calls"] = fft[0]
    m["anchor.carleson_cusp.embed_triangular_calls"] = tri[0]
    m["anchor.carleson_cusp.embed_triangular_ms"] = 1e3 * tri[1] / tri[0] if tri[0] else 0.0
    return m


def expected_failures():
    with open(os.path.join(HERE, "expected_failures.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- reporting ----------------------------------------------------------------

def report(args, run, facts):
    recorders = run["recorders"]
    attempted = sum(r.total_attempted for r in recorders)
    failed = sum(r.total_failed for r in recorders)
    failed_names = {}  # name -> [failed, attempted, first reason]
    for r in recorders:
        for name, count in r.failed.items():
            failed_names.setdefault(name, [0, 0, r.reasons[name]])[0] += count
    for name, entry in failed_names.items():
        entry[1] = sum(r.attempted.get(name, 0) for r in recorders)
    known = expected_failures()
    unexpected = sorted(set(failed_names) - set(known))
    correct = attempted >= 1 and not unexpected

    kinds = Counter()
    for r in recorders:
        for name, count in r.attempted.items():
            kinds[name.rsplit(".", 1)[-1]] += count
    facts["ops_attempted"] = attempted
    facts["ops_by_kind"] = kinds

    print(f"hbspace benchmark · workload {args.workload} · seed {args.seed} · "
          f"{args.seconds:g} s · trace {args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    lines = {}
    if args.trace:
        metrics = per_layer_metrics(run)
        units = per_layer_units()
        for name in units:
            value = metrics[name]
            lines[name] = {"value": value, "unit": units[name]}
            print(f"  {name:46s} {value:>14.6g} {units[name]}")
        for name, baseline in ANCHORS.items():
            status = "matches" if metrics[name] == baseline else "differs from"
            print(f"  anchor {name} = {metrics[name]} {status} the ROADMAP baseline {baseline}")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        from tracer import write_spans

        write_spans(spans, run["tracer"].spans, run["tracer"].dropped)
        print(f"  spans: {len(run['tracer'].spans)} written to {os.path.relpath(spans, ROOT)}"
              + (f" ({run['tracer'].dropped} dropped)" if run["tracer"].dropped else ""))
    else:
        metrics = end_to_end_metrics(run)
        for name, unit in END_TO_END:
            value, note = metrics[name]
            lines[name] = {"value": value, "unit": unit}
            print(f"  {name:22s} {value:>14.6g} {unit:9s} ({note})")
    print(f"ops attempted {attempted}, failed {failed}"
          + ("" if failed_names else ", none failed"))
    for name in sorted(failed_names):
        count, tried, reason = failed_names[name]
        mark = "known" if name in known else "NEW  "
        print(f"  {mark} {name}: {count}/{tried} failed; {reason}")
    if unexpected:
        print(f"correct: false ({len(unexpected)} op kinds failed outside the seed-state "
              f"set in expected_failures.json)")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "metrics": lines,
                   "failed_ops": {k: {"failed": v[0], "attempted": v[1], "reason": v[2]}
                                  for k, v in failed_names.items()},
                   "ops_by_name": sum((r.attempted for r in recorders), Counter())},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": lines}))
    return 0


def run_all(args):
    """Run the four workloads one after another, each in its own process."""
    summary = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT * 4)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(out[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        summary.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    problem = checkout_problem(args.workload)
    if problem:
        print(f"perfbench: {problem}; run from the root of an hbspace checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS in this process
        os.environ[var] = str(THREADS)
    if args.probe_setup:
        setup_s, _ = in_process_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    run = run_cli(args) if args.workload == "cli" else run_in_process(args)
    return report(args, run, machine_facts(args.seed))


if __name__ == "__main__":
    sys.exit(main())
