"""One measured process of the benchmark: import permwords, run a workload's jobs, report.

Started by run.py with `PYTHONPATH=<checkout>/src`.  It records the
monotonic time at which `permwords` is imported and ready (run.py
subtracts the spawn time to get set-up time), reads the job spec from
stdin as JSON, runs each job through `permwords.cli.main` with stdout
and stderr captured, checks every output value, and prints one JSON
line: ready time, wall time of the jobs including checking, peak RSS,
CPU time, the checked values attempted and failed, and, when traced,
the spans.  When asked for speed, it times a block of speed.py's probe
just before and just after the jobs and reports the wall time rescaled
to the reference speed.  With no jobs it only reports the ready time (a
set-up probe).
"""

import time
import sys

import permwords.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the ready mark: not part of permwords' set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_jobs(jobs: list, main) -> dict:
    """Run each job through `main`, checking its output; returns the tallies."""
    attempted = failed = 0
    problems: list[str] = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(job["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                code = f"raised {exc!r}"
        bad = workloads.check_job(job, code, out.getvalue())
        attempted += len(job["expect"])
        failed += len(bad)
        where = " ".join(job["argv"])
        problems += [f"{where}: {p}" for p in bad]
        if code != 0:
            problems.append(f"{where}: stderr {err.getvalue()[-500:]!r}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(permwords.cli.__file__).resolve().parent.parent != src:
        print(f"error: imported permwords from {permwords.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    spec = json.loads(sys.stdin.read())
    result: dict = {"ready": READY}
    if spec["jobs"]:
        if spec["trace"]:
            tracer = tracing.Tracer(spec["run_id"])
            with tracing.installed(tracer) as missing:
                cli_main = tracer.wrap("cli.main", permwords.cli.main)
                tally = tracer.call(tracing.ROOT, run_jobs, (spec["jobs"], cli_main), {})
            result["wall_s"] = tracer.stats[tracing.ROOT][2]
            result["layers"] = tracing.layer_metrics(tracer.stats)
            result["stats"] = tracer.stats
            result["spans"] = tracing.span_records(tracer)
            result["untraced_sites"] = missing
        else:
            before = speed.block_s() if spec["speed"] else None
            start = time.perf_counter()
            tally = run_jobs(spec["jobs"], permwords.cli.main)
            result["wall_s"] = time.perf_counter() - start
            if spec["speed"]:
                after = speed.block_s()
                result["probe_s"] = [before, after]
                result["ref_s"] = speed.at_reference(result["wall_s"], before, after)
        result.update(tally)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    result["cpu_user_s"] = usage.ru_utime
    result["cpu_system_s"] = usage.ru_stime
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
