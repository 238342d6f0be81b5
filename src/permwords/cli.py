"""Command-line interface: count, encode, verify, reproduce.

Exit codes: 0 on success, 1 when a verification assertion fails, 2 on
usage errors.  JSON output is deterministic: keys are sorted and floats
are fixed at 10 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from . import series, wordlang
from .encoder import mark
from .perm_core import Pattern, Permutation, count_avoiders, enumerate_avoiders
from .roots import CertificateError, certified_smallest_root, growth_bound
from .series import expand, verify_functional_equations
from .wordlang import PairRule, brute_count_pairs, verify_lemma_on_avoiders

# Caps on count and reproduce --n, from their cost on a 2-core Xeon VM: the
# 1324 DP takes 1.7 s and 47 MB at n = 18, about doubling per length; the
# generic engine takes about 50 s at n = 10.  verify's caps live in wordlang.
COUNT_CAP_1324 = 18
COUNT_CAP = 11

BOUND_ROWS = (
    # name, series, printed reference value, tolerance
    ("bound-baseline", series.NOCB_WORD_SERIES, 13.928203230, 1e-9),
    ("bound-cab", series.PAIR_SERIES_CAB, 13.7595074, 1e-6),
    ("bound-cabb", series.PAIR_SERIES_CABB, 13.73977, 1e-4),
    ("bound-cab-run", series.PAIR_SERIES_CAB_RUN, 13.73718, 1e-4),
)


def _round10(v: float) -> float:
    return float(f"{v:.10g}")


def _jsonify(value: Any) -> Any:
    if isinstance(value, float):
        return _round10(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass
class CheckRow:
    name: str
    passed: bool
    detail: str


@dataclass
class ReportDocument:
    command: str
    inputs: dict[str, Any]
    checks: list[CheckRow] = field(default_factory=list)
    tables: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckRow(name, passed, detail))

    def to_dict(self) -> dict[str, Any]:
        return _jsonify(
            {
                "command": self.command,
                "inputs": self.inputs,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in self.checks
                ],
                "tables": self.tables,
                "timings": self.timings,
                "counters": self.counters,
                "ok": self.ok,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_plain(self) -> str:
        lines = []
        for title, rows in self.tables.items():
            lines.append(f"[{title}]")
            for row in rows:
                lines.append("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        if self.checks:
            n_bad = sum(1 for c in self.checks if not c.passed)
            lines.append(
                f"{len(self.checks) - n_bad}/{len(self.checks)} checks passed"
            )
        return "\n".join(lines)

    def render_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        for title, rows in self.tables.items():
            if rows:
                writer.writerow([f"#{title}"])
                writer.writerow(list(rows[0].keys()))
                for row in rows:
                    writer.writerow([_fmt(v) for v in row.values()])
        if self.checks:
            writer.writerow(["name", "passed", "detail"])
            for c in self.checks:
                writer.writerow([c.name, c.passed, c.detail])
        return buf.getvalue().rstrip("\n")


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{_round10(v):.10g}"
    return str(v)


def _emit(report: ReportDocument, fmt: str, out: str | None) -> None:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.render_csv())
    else:
        print(report.render_plain())
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")


def _over_cap(flag: str, value: int, cap: int) -> bool:
    if value <= cap:
        return False
    print(f"error: {flag} capped at {cap}, got {value}", file=sys.stderr)
    return True


def cmd_count(args: argparse.Namespace) -> int:
    try:
        pattern = Pattern.parse(args.pattern)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cap = COUNT_CAP_1324 if pattern.entries == (1, 3, 2, 4) else COUNT_CAP
    if _over_cap("--n", args.n, cap):
        return 2
    report = ReportDocument("count", {"pattern": str(pattern), "n": args.n})
    t0 = time.perf_counter()
    rows = []
    for n in range(args.n + 1):
        rows.append({"n": n, "avoiders": count_avoiders(n, pattern)})
    report.tables["avoider-counts"] = rows
    report.timings["count"] = time.perf_counter() - t0
    _emit(report, args.format, args.out)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    try:
        perm = Permutation.parse(args.perm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    marked = mark(perm, mode=args.mode)
    w, z = marked.word_pair()
    if args.format == "json":
        doc = {
            "entries": list(perm.entries),
            "colors": marked.colors,
            "letters": marked.letters,
            "mode": args.mode,
            "w": w,
            "z": z,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"p      {perm}")
        print(f"colors {marked.colors}")
        print(f"w      {w}")
        print(f"z      {z}")
    return 0


def _suite_injectivity(report: ReportDocument, n_max: int) -> None:
    t0 = time.perf_counter()
    for mode in ("plain", "rule4prime"):
        seen: set[tuple[str, str]] = set()
        total = 0
        collision = None
        for n in range(1, n_max + 1):
            for p in enumerate_avoiders(n, (1, 3, 2, 4)):
                pair = mark(p, mode=mode).word_pair()
                if pair in seen:
                    collision = (str(p), *pair)
                seen.add(pair)
                total += 1
        report.add(
            f"injectivity-{mode}",
            collision is None,
            f"{total} avoiders with n<={n_max} map to distinct pairs"
            if collision is None
            else f"collision at {collision}",
        )
    report.timings["injectivity"] = time.perf_counter() - t0


def _suite_lemmas(report: ReportDocument, n_max: int) -> None:
    t0 = time.perf_counter()
    for which in ("cab", "cab_k"):
        checked = 0
        bad: list[str] = []
        for n in range(1, n_max + 1):
            r = verify_lemma_on_avoiders(n, which)
            checked += r.checked
            bad.extend(f"n={n}:{v}" for v in r.violations)
        report.add(
            f"avoider-pairs-{which.replace('_', '-')}",
            not bad,
            f"{checked} avoiders checked for n<={n_max}, "
            + (f"violations: {bad[:3]}" if bad else "0 violations"),
        )
    report.timings["lemmas"] = time.perf_counter() - t0


def _suite_gf(report: ReportDocument, cap: int) -> None:
    t0 = time.perf_counter()
    for check in verify_functional_equations(pair_cap=cap):
        if check.status == "exact":
            report.add(
                f"{check.name}-identity",
                check.ok,
                f"exact identity, residual numerator {list(check.residual_num or ())}",
            )
        else:
            lo, hi = check.oracle_range or (0, 0)
            report.add(
                f"{check.name}-identity",
                check.ok,
                f"{check.status}; {check.note} ({lo}..{hi})",
            )
    rules = {
        "cab": (series.PAIR_SERIES_CAB, PairRule.CAB_NEEDS_B),
        "cabb": (series.PAIR_SERIES_CABB, PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB),
        "cab-run": (series.PAIR_SERIES_CAB_RUN, PairRule.RUN_NEEDS_MATCH),
    }
    for name, (gf, rule) in rules.items():
        coeffs = expand(gf, cap)
        ok = all(
            coeffs[n] == brute_count_pairs(n, rule, cap=cap) for n in range(2, cap + 1)
        )
        report.add(
            f"pairs-{name}-vs-exhaustive",
            ok,
            f"series coefficients equal exhaustive pair counts for 2<=n<={cap}",
        )
    report.counters["signature_keys"] = wordlang.signature_key_count(cap - 1)
    seg_ok = all(
        expand(series.SEGMENT_SERIES, 12)[n] == wordlang.count_segments_nocb(n)
        for n in range(13)
    )
    report.add("segment-series-vs-count", seg_ok, "coefficients 0..12 agree")
    nocb_ok = all(
        expand(series.NOCB_WORD_SERIES, 12)[n] == wordlang.count_nocb_words(n)
        for n in range(13)
    )
    report.add("nocb-series-vs-count", nocb_ok, "coefficients 0..12 agree")
    report.timings["gf"] = time.perf_counter() - t0


def _check_bounds(report: ReportDocument, tol: float) -> list[dict[str, Any]]:
    """Add one check per row of BOUND_ROWS; returns the certified rows."""
    rows = []
    for name, gf, reference, tolerance in BOUND_ROWS:
        try:
            bound = growth_bound(gf, tol=tol)
        except CertificateError as exc:
            report.add(name, False, f"certificate failed: {exc}")
            continue
        delta = abs(bound - reference)
        rows.append(
            {"name": name, "computed": bound, "reference": reference, "delta": delta}
        )
        report.add(
            name,
            delta <= tolerance,
            f"computed {bound:.10f}, reference {reference}, |delta| "
            f"{delta:.3g} <= {tolerance:g}",
        )
    return rows


def _suite_roots(report: ReportDocument, tol: float) -> None:
    t0 = time.perf_counter()
    _check_bounds(report, tol)
    est = certified_smallest_root(series.PAIR_SERIES_CAB.den, tol=tol)
    report.add(
        "alpha-digits",
        abs(est.value - 0.2695867676) <= 1e-9,
        f"alpha = {est.value:.12f} +- {est.radius:.2g}, "
        f"unique smallest (gap {est.modulus_gap:.4f})",
    )
    report.add(
        "beta-digits",
        abs(1 / est.value - 3.709381) <= 1e-6,
        f"1/alpha = {1 / est.value:.10f} against printed 3.709381",
    )
    report.timings["roots"] = time.perf_counter() - t0


def cmd_verify(args: argparse.Namespace) -> int:
    if _over_cap("--n", args.n, wordlang.LEMMA_CAP) or _over_cap(
        "--cap-pairs", args.cap_pairs, wordlang.DEFAULT_PAIR_CAP
    ):
        return 2
    report = ReportDocument(
        "verify",
        {
            "suite": args.suite,
            "n": args.n,
            "cap_pairs": args.cap_pairs,
            "tol_alpha": args.tol_alpha,
        },
    )
    if args.suite in ("injectivity", "all"):
        _suite_injectivity(report, args.n)
    if args.suite in ("lemmas", "all"):
        _suite_lemmas(report, args.n)
    if args.suite in ("gf", "all"):
        _suite_gf(report, args.cap_pairs)
    if args.suite in ("roots", "all"):
        _suite_roots(report, args.tol_alpha)
    _emit(report, args.format, args.out)
    return 0 if report.ok else 1


def cmd_reproduce(args: argparse.Namespace) -> int:
    if _over_cap("--n", args.n, COUNT_CAP_1324):
        return 2
    report = ReportDocument("reproduce", {"n": args.n, "cap_pairs": args.cap_pairs})
    t0 = time.perf_counter()
    report.tables["bounds"] = _check_bounds(report, args.tol_alpha)
    report.timings["bounds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cap = max(args.cap_pairs, 2 * args.n)
    h = expand(series.PAIR_SERIES_CAB, cap)
    k = expand(series.PAIR_SERIES_CABB, cap)
    t = expand(series.PAIR_SERIES_CAB_RUN, cap)
    chain_rows = []
    chain_ok = True
    for n in range(1, args.n + 1):
        s_n = count_avoiders(n, (1, 3, 2, 4))
        ok = s_n <= t[2 * n] <= k[2 * n] <= h[2 * n]
        chain_ok = chain_ok and ok
        chain_rows.append(
            {
                "n": n,
                "avoiders": s_n,
                "pairs_cab_run": t[2 * n],
                "pairs_cabb": k[2 * n],
                "pairs_cab": h[2 * n],
                "chain_holds": ok,
            }
        )
    report.tables["chain"] = chain_rows
    report.add(
        "avoiders-within-pair-counts",
        chain_ok,
        f"avoider count <= run <= cabb <= cab pair counts at every n<={args.n}",
    )
    report.timings["chain"] = time.perf_counter() - t0
    _emit(report, args.format, args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permwords",
        description="1324-avoidance word encodings, exact series, growth bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count pattern-avoiding permutations")
    p_count.add_argument("--pattern", default="1324")
    p_count.add_argument("--n", type=int, default=8, help="max length (capped per engine)")
    p_count.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_count.add_argument("--out", default=None, help="also write the JSON report here")
    p_count.set_defaults(func=cmd_count)

    p_encode = sub.add_parser("encode", help="encode one permutation")
    p_encode.add_argument("perm", help="e.g. 3612745 or 10,2,3,...")
    p_encode.add_argument("--mode", choices=("plain", "rule4prime"), default="rule4prime")
    p_encode.add_argument("--format", choices=("plain", "json"), default="plain")
    p_encode.set_defaults(func=cmd_encode)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=("injectivity", "lemmas", "gf", "roots", "all"),
        default="all",
    )
    p_verify.add_argument("--n", type=int, default=8, help=f"<= {wordlang.LEMMA_CAP}")
    p_verify.add_argument(
        "--cap-pairs", type=int, default=12, help=f"<= {wordlang.DEFAULT_PAIR_CAP}"
    )
    p_verify.add_argument("--tol-alpha", type=float, default=1e-11)
    p_verify.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="reproduce bound table and count chain")
    p_rep.add_argument("--n", type=int, default=10, help=f"chain length (<= {COUNT_CAP_1324})")
    p_rep.add_argument("--cap-pairs", type=int, default=14)
    p_rep.add_argument("--tol-alpha", type=float, default=1e-11)
    p_rep.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 0) < 0:
        print("error: --n must be nonnegative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
