"""One benchmark repetition: a fresh interpreter running prefield CLI calls.

run.py starts it as ``python3 child.py '<job json>'`` with PYTHONPATH set to
the checkout's ``src``.  The job lists the CLI argument vectors to run in
order, the mode (``count`` for timed runs, ``trace`` for the traced run) and
where to write spans.  The last line of standard output is one JSON object:
the monotonic time at which ``prefield.cli`` was imported (run.py subtracts
its own spawn time to get the set-up time), one record per invocation and
the peak RSS of this process.
"""

import time

import prefield.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  -- everything below is outside the measured set-up
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def run_invocation(argv: list[str]) -> tuple[int | None, str | None]:
    """Exit status of one `prefield.cli.main` call, or the exception it raised."""
    try:
        return prefield.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        return None, error


def main() -> int:
    job = json.loads(sys.argv[1])
    source = Path(prefield.cli.__file__).resolve()
    if not source.is_relative_to(Path(job["src"]).resolve()):
        print(f"prefield imported from {source}, not from {job['src']}", file=sys.stderr)
        return 2
    tracing = job["mode"] == "trace"
    counts = spans.Counts(with_accepted=tracing)
    tracer = spans.Tracer() if tracing else None
    spans.install(counts, tracer)
    records = []
    for argv in job["invocations"]:
        counts.reset()
        start = time.perf_counter()
        rc, error = run_invocation(argv)
        wall = time.perf_counter() - start
        records.append({"rc": rc, "error": error, "wall_s": wall, "counts": counts.values})
    if tracer is not None:
        Path(job["spans_path"]).write_text(json.dumps({"spans": tracer.spans}))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": READY, "invocations": records, "peak_rss_mb": peak_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
