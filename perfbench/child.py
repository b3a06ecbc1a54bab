"""One execution of an mlclt CLI command in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON MODE ARG...

MODE is ``setup`` (import ``mlclt.cli`` and parse the arguments, then
stop), ``run`` (then call ``mlclt.cli.main(args)``) or ``trace`` (the same
with the `tracer` wrappers installed after set-up).  The result file holds
``setup_end`` on the ``time.monotonic`` clock, which the parent compares
with the moment it started this process, and for an execution its wall
time, exit code and peak resident memory; a traced execution adds its
spans.  `mlclt` is imported from ``PYTHONPATH``.
"""
import json
import resource
import sys
import time
import traceback


def main() -> None:
    result_path, mode, *argv = sys.argv[1:]
    import mlclt.cli as cli
    cli.config_from_args(cli.build_parser().parse_args(argv))
    result = {"setup_end": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["wrapped"] = tracer.wrapped
            result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
