"""One measured finiteshape invocation in a fresh Python process.

Usage: python3 child.py RESULT_JSON setup|pipeline TRACE [CLI ARGS...]

Run from the repository root with ``src`` on PYTHONPATH.  ``setup`` times
importing finiteshape (and numpy with it) plus building the CLI parser and
stops.  ``pipeline`` then calls ``finiteshape.cli.main(args)`` once with its
output captured, and records the exit code, any escaping exception, the call's
wall time and the process's peak RSS.  With TRACE = 1 the tracer in
``tracing.py`` is installed before the call and its spans and counts are
added to the result; with TRACE = 0 nothing is installed.
"""

import time

_T0 = time.perf_counter()  # before anything imports numpy

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv: list[str]) -> int:
    result_path, mode, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[3:]

    import finiteshape.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "finiteshape_file": os.path.abspath(cli.__file__)}

    if mode == "pipeline":
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            root = tracer.open(tracing.ROOT_SPAN)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cli_args))
        except Exception:  # an escaping exception is a failed run, recorded with its traceback
            error = traceback.format_exc()
        pipeline_s = time.perf_counter() - t_start
        if tracer:
            tracer.close(root)
        result.update(
            pipeline_s=pipeline_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB -> MB
            rc=rc,
            error=error,
            stdout=out.getvalue(),
            stderr=err.getvalue()[-4000:],
        )
        if tracer:
            result["trace"] = tracer.report()

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
