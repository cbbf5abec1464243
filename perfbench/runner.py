"""Traced stand-in for `python -m cavityrad` in one fresh interpreter.

    python -X importtime perfbench/runner.py SPANS_PATH T_SPAWN JOB -- ARGV...

Imports cavityrad, wraps its public functions (tracer.install), runs
cavityrad.cli.main(ARGV) and exits with its status, so stdout, stderr and
the exit code are those of the real command line. T_SPAWN is the parent's
perf_counter just before it started this process; the span from it to the
first line here is interpreter start, which belongs to the import layer.
The spans are written to SPANS_PATH once, at exit.
"""

import time

T_ENTER = time.perf_counter()

import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402


def main():
    spans_path, t_spawn, job = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    rec = tracer.Tracer(job)
    rec.spans.append([0, None, job, tracer.IMPORT, "interpreter start", t_spawn, T_ENTER,
                      0, 0, None])
    code = 1
    try:
        with rec.span(tracer.IMPORT, "import cavityrad"):
            import cavityrad.cli
            import cavityrad.figures  # noqa: F401  (imported lazily by the CLI)
        tracer.install(rec)
        try:
            code = cavityrad.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    finally:
        rec.dump(spans_path)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
