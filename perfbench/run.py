"""The permwords benchmark: the CLI timed end to end, and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Every repetition is a fresh interpreter (perfbench/worker.py) started
without PERMWORDS_THREADS, so counting runs on one worker, and with
PYTHONHASHSEED fixed.  It runs the workload's jobs one after the other
(one client in a closed loop) through `permwords.cli.main` in-process,
parses each JSON report and checks every value against the references
pinned in perfbench/workloads.py.  A fresh process per repetition keeps
the signature-table cache cold, as it is for every CLI user.

`--trace 0` reports the end-to-end metrics:

- wall_ref_s: median over repetitions of the time to run the jobs with
  every output checked, rescaled to the host's reference speed by the
  probe blocks that speed.py times just before and just after the jobs,
  in the same process.  The raw wall time (wall_s) is printed and
  recorded next to it but is not a metric: the host's speed changes
  every few seconds, and over ten 35 s runs of one commit the median
  raw time spread by 8-25% (quartile distance over median), where
  wall_ref_s spread by at most 7.3%;
- setup_s: median, over set-up probes and repetitions, of the time from
  spawning the interpreter until `permwords` is imported;
- peak_rss_mb: median over repetitions of the process's peak RSS.

`--trace 1` runs pairs of one untraced and one traced repetition, in
alternating order, and reports the per-layer metrics (see tracing.py) of
the traced repetition with the median wall time, plus trace.overhead_s,
the median over pairs of traced minus untraced wall time.  The console
line gives the number of pairs next to it.  `--workload all` runs both
passes on every workload and prints every metric; it ignores `--trace`.

A run starts another repetition while that brings its expected length
nearer to `--seconds`, and makes at least one.

The inputs are exhaustive and fixed (every avoider up to a length, every
word pair up to a total length), so `--seed` changes nothing; it is
recorded.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` (checked output values, summed over repetitions; failed /
attempted is the failed ratio printed above it) and `metrics`.  Each
run also writes a record to perfbench/out/: machine, commit, source
LOC, a calibration loop time (diagnostic only), every repetition and
the kept spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 1  # before each repetition and after the last
DEADLINE_S = 170
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE = {"jobs": [], "trace": False, "run_id": -1, "speed": False}


class BenchError(Exception):
    """The benchmark could not measure: no result may be printed."""


def spawn(spec: dict[str, Any], deadline: float) -> dict[str, Any]:
    """Run one worker process on `spec`; returns its report with setup_s added."""
    env = {k: v for k, v in os.environ.items() if k != "PERMWORDS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(WORKER)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a repetition ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    rep = json.loads(out.strip().splitlines()[-1])
    # Both clocks are the system-wide monotonic clock, so the difference
    # spans interpreter start-up and the import of permwords.
    rep["setup_s"] = rep.pop("ready") - start
    return rep


def _spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(
    workload: str,
    *,
    seconds: float,
    trace: bool,
    size: str = "full",
    jobs: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Measure one workload for about `seconds`; returns metrics, tallies and repetitions."""
    jobs = workloads.jobs(workload, size) if jobs is None else jobs
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spawn(PROBE, deadline)  # compiles the bytecode caches; not counted
    setups: list[float] = []
    reps: list[dict[str, Any]] = []
    loop_start = time.monotonic()
    units = 0
    while True:
        # Probes are spread over the run, as the host's speed drifts.
        if not trace:
            setups += [spawn(PROBE, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        order = (False, True) if units % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            spec = {"jobs": jobs, "trace": traced, "run_id": len(reps), "speed": not trace}
            rep = spawn(spec, deadline)
            rep["traced"] = traced
            rep["unit"] = units
            reps.append(rep)
        units += 1
        now = time.monotonic()
        unit_s = (now - loop_start) / units
        if now + unit_s / 2 > start + seconds or now + unit_s > deadline:
            break
    if not trace:
        setups += [spawn(PROBE, deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    untraced = [r for r in reps if not r["traced"]]
    spreads = {"wall_s": _spread([r["wall_s"] for r in untraced])}
    if trace:
        traced = [r for r in reps if r["traced"]]
        spreads["traced_wall_s"] = _spread([r["wall_s"] for r in traced])
        typical = statistics.median_low(r["wall_s"] for r in traced)
        chosen = next(r for r in traced if r["wall_s"] == typical)
        metrics = dict(chosen["layers"])
        walls = {(r["unit"], r["traced"]): r["wall_s"] for r in reps}
        pairs = [walls[u, True] - walls[u, False] for u in range(units)]
        spreads["trace.overhead_s"] = _spread(pairs)
        metrics["trace.overhead_s"] = spreads["trace.overhead_s"]["median"]
        units_of = {m: tracing.unit_of(m) for m in metrics}
    else:
        chosen = None
        spreads["wall_ref_s"] = _spread([r["ref_s"] for r in untraced])
        spreads["setup_s"] = _spread(setups + [r["setup_s"] for r in reps])
        spreads["peak_rss_mb"] = _spread([r["peak_rss_mb"] for r in untraced])
        metrics = {m: spreads[m]["median"] for m in END_TO_END}
        units_of = dict(END_TO_END)
    return {
        "workload": workload,
        "trace": trace,
        "size": size,
        "metrics": metrics,
        "units": units_of,
        "spreads": spreads,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": [{k: v for k, v in r.items() if k not in ("spans", "stats")} for r in reps],
        "traced_rep": chosen,
        "elapsed_s": time.monotonic() - start,
    }


def _commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _source_loc() -> int:
    """Nonblank lines of the package's Python sources."""
    return sum(
        1
        for path in sorted((ROOT / "src" / "permwords").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def _calibration_s() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow commit; never gated."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def environment() -> dict[str, Any]:
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "src_loc": _source_loc(),
        "calibration_s": _calibration_s(),
    }


def _report_lines(res: dict[str, Any], seed: int) -> list[str]:
    n_reps = len(res["reps"])
    lines = [
        f"{res['workload']} trace={int(res['trace'])} seed={seed}: "
        f"{n_reps} repetitions in {res['elapsed_s']:.1f} s"
    ]
    for name, value in res["metrics"].items():
        unit = res["units"][name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        spread = res["spreads"].get(name)
        note = f"  (median of {spread['n']}, quartiles {spread['q1']:.6g}..{spread['q3']:.6g})" if spread else ""
        lines.append(f"  {name:<30} {text:>12} {unit}{note}")
    lines.append(
        f"  {'failed_ratio':<30} {res['failed'] / max(res['attempted'], 1):>12.6g} "
        f"({res['failed']} of {res['attempted']} checked values)"
    )
    problems = [p for r in res["reps"] for p in r["problems"]]
    if not res["trace"]:
        wall = res["spreads"]["wall_s"]
        lines.append(
            f"  {'raw wall_s (not a metric)':<30} {wall['median']:>12.6g} s  "
            f"(quartiles {wall['q1']:.6g}..{wall['q3']:.6g})"
        )
    lines += [f"  FAILED {p}" for p in problems[:10]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permwords" / "cli.py").is_file():
        print(f"error: no permwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (False, True) if args.workload == "all" else (bool(args.trace),)
    env = environment()
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    try:
        for name in names:
            for trace in passes:
                res = measure(name, seconds=args.seconds, trace=trace)
                attempted += res["attempted"]
                failed += res["failed"]
                prefix = f"{name}." if args.workload == "all" else ""
                for metric, value in res["metrics"].items():
                    metrics[prefix + metric] = {"value": value, "unit": res["units"][metric]}
                OUT.mkdir(exist_ok=True)
                path = OUT / f"{name}-seed{args.seed}-trace{int(trace)}.json"
                record = {
                    **res,
                    "seed": args.seed,
                    "seed_note": "inputs are exhaustive and fixed; the seed does not change them",
                    "jobs": [job["argv"] for job in workloads.jobs(name)],
                    "why": workloads.WORKLOADS[name],
                    "environment": env,
                }
                path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                print("\n".join(_report_lines(res, args.seed)))
                print(f"  record {os.path.relpath(path, ROOT)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"commit {env['commit']}, {env['nproc']} cpus ({env['cpu_model']}), Python "
        f"{env['python']}, src LOC {env['src_loc']}, calibration {env['calibration_s']:.4f} s"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
