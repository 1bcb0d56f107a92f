"""Traced stand-in for ``python -m rvar.cli``, one child per invocation.

Usage: ``cli_launcher.py TRACE_JSON ARG...``.  Times ``import rvar.cli``,
installs the layer wrappers, calls ``rvar.cli.main(ARG...)`` and exits with
its code; stdout and stderr are the CLI's own.  The trace summary, import
and body times and the spans go to TRACE_JSON.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import rvar.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.start_task(0)
    code = 1
    t1 = time.perf_counter()
    try:
        code = rvar.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        body_s = time.perf_counter() - t1
        tracer.end_task()
        tracer.uninstall()
        summary = tracer.summary()
        summary.update(import_s=import_s, body_s=body_s, spans=list(tracer.span_rows()))
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
