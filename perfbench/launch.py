"""Traced CLI child: installs the tracer, then runs ``hbspace.cli.main(argv)``
or a script, and writes its import time, in-process main time, exit code and
trace aggregates to the ``--report`` file.

Usage: python perfbench/launch.py --report FILE [--script PATH] -- ARGS...
"""

import json
import os
import runpy
import sys
import time

_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, rest = argv[:split], argv[split + 1:]
    report = opts[opts.index("--report") + 1]
    script = opts[opts.index("--script") + 1] if "--script" in opts else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hbspace.cli

    import_s = time.perf_counter() - _start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.phase = "ops"
    start = time.perf_counter()
    try:
        if script is None:
            code = hbspace.cli.main(rest)
        else:
            sys.argv = [script, *rest]
            code = 0
            try:
                runpy.run_path(script, run_name="__main__")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        sys.stdout.flush()
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "code": code,
                   "trace": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
