"""One benchmark invocation in a fresh interpreter.

Usage: python child.py SPEC.json

SPEC holds ``argv`` (passed to ``tirex.cli.run``), ``result`` (where this
process writes its report), ``trace`` (wrap the layers and write ``spans``)
and ``describe`` (add library versions and BLAS build information).  The
report carries the monotonic clock reading right after ``import tirex.cli``;
on Linux that clock is shared by all processes, so the parent turns it into
the interpreter-start-plus-import time.
"""

import json
import resource
import sys
import time
import traceback


def describe():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import tirex.cli

    ready = time.monotonic()
    report = {"ready": ready, "rc": None, "error": None}
    if spec["trace"]:
        import tracer

        recorder = tracer.Recorder()
        patches = tracer.install(recorder)
    t0 = time.perf_counter()
    try:
        report["rc"] = tirex.cli.run(spec["argv"])
    except Exception:
        report["error"] = traceback.format_exc()
    report["wall_s"] = time.perf_counter() - t0
    if spec["trace"]:
        tracer.uninstall(patches)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["describe"]:
        report["versions"] = describe()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if report["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
