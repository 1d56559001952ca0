"""One fresh benchmark process: set up the package, serve requests, report.

Usage (``run.py`` starts it; the job arrives as JSON on stdin):

    python3 perfbench/child.py <checkout root>

Job fields: ``mode`` is ``setup`` (set up and stop), ``plain`` (time each
request), ``traced`` (spans and counters from ``tracing.py``) or ``profiled``
(cProfile around each request); ``requests`` is the list to serve in order;
``spans_path``, if set, is where a traced run writes its spans.  One JSON object goes
to stdout.
"""

import sys
import time


def setup(root: str):
    """Import the package from ``root/src`` and build the CLI parser."""
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    import polybernoulli
    from polybernoulli import cli

    t1 = time.perf_counter()
    cli.build_parser()
    t2 = time.perf_counter()
    return polybernoulli, cli, t2 - t0, t2 - t1


def serve_one(polybernoulli, cli, request, profiler=None):
    """Run one request; returns (seconds, status, output text)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    status = "ok"
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            if "argv" in request:
                rc = cli.main(list(request["argv"]))
                if rc != 0:
                    status = f"exit {rc}"
            else:
                result = getattr(polybernoulli, request["call"])(*request["args"])
        except SystemExit as exc:
            status = f"exit {exc.code}"
        except Exception as exc:  # the op fails; the next one still runs
            status = f"raised {type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
        seconds = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    return seconds, status, out.getvalue() if result is None else result


def main() -> int:
    root = sys.argv[1]
    polybernoulli, cli, setup_s, parser_s = setup(root)

    import json
    import resource
    from pathlib import Path

    import tracing
    import workloads

    package_dir = Path(polybernoulli.__file__).resolve().parent
    if package_dir != Path(root, "src", "polybernoulli").resolve():
        print(f"polybernoulli imported from {package_dir}, not the checkout", file=sys.stderr)
        return 2

    job = json.load(sys.stdin)
    mode = job["mode"]
    report = {"setup_s": setup_s, "parser_s": parser_s, "ops": []}
    recorder = profiler = None
    if mode == "traced":
        recorder = tracing.Recorder()
        caches = tracing.install(recorder)
    elif mode == "profiled":
        import cProfile

        profiler = cProfile.Profile()

    for i, request in enumerate(job["requests"] if mode != "setup" else ()):
        if recorder is not None:
            recorder.request = i
            seconds, status, output = recorder.call(
                "op", serve_one, (polybernoulli, cli, request), {}
            )
        else:
            seconds, status, output = serve_one(polybernoulli, cli, request, profiler)
        text = output if isinstance(output, str) else workloads.series_text(output)
        report["ops"].append([seconds, status, workloads.digest(text), len(text)])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if recorder is not None:
        import gzip

        report["counts"] = dict(recorder.counts)
        report["caches"] = tracing.cache_counts(caches)
        report["spans"] = tracing.by_name(recorder.spans)
        if job["spans_path"]:
            own = tracing.self_times(recorder.spans)
            with gzip.open(job["spans_path"], "wt") as f:
                json.dump(
                    {
                        "fields": list(tracing.SPAN_FIELDS) + ["self"],
                        "spans": [[*s, own[s[0]]] for s in recorder.spans],
                    },
                    f,
                    separators=(",", ":"),
                )
    if profiler is not None:
        import fractions
        import pstats

        fractions_file = Path(fractions.__file__).resolve()
        layers: dict[str, str | None] = {}

        def layer_of(filename: str):
            if filename not in layers:
                path = Path(filename).resolve()
                if path == fractions_file:
                    layers[filename] = "fractions"
                else:
                    layers[filename] = path.stem if path.parent == package_dir else None
            return layers[filename]

        report["profile_self_s"], report["fraction_ops"] = tracing.profile_rollup(
            pstats.Stats(profiler).stats, layer_of
        )
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
