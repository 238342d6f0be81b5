"""Span tracing for the benchmark's traced runs, installed from outside the program.

Wrappers replace the module and class attributes through which callers
reach each layer (`cli.count_avoiders`, `wordlang.encode`,
`encoder.MarkedPermutation.word_pair`, ...), so a span covers exactly
one call into a layer.  Each span has a
name, start, end, parent span and run id.  Per-name totals (calls, items,
inclusive and self time) are kept for every span; individual span
records are kept for the first SPAN_CAP spans of each name, because the
sweep workload makes over a million calls.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans sum to the root span's duration.

Naming: `<layer>.<call>_s` is the inclusive time of that call,
`<layer>.<call>_self_s` its self time, `<layer>.self_s` the self time of
every span of that layer.  The layers are the permwords modules plus
`bench`, the benchmark's own job loop, output parsing and checking.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from typing import Any

SPAN_CAP = 200
LAYERS = ("perm_core", "encoder", "wordlang", "series", "roots", "cli", "bench")
ROOT = "bench"


class Tracer:
    """Collects spans of one process; `call` runs a function inside a span."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.stats: dict[str, list] = {}  # name -> [calls, items, total_s, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, run id)
        self.pair_counted = False
        self._stack: list[list] = []  # open spans: [id, time covered by children]
        self._ids = 0

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        items: Callable[[Any], int] | None = None,
    ) -> Any:
        stack = self._stack
        self._ids += 1
        frame = [self._ids, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0.0, 0.0]
            st[0] += 1
            if done:
                st[1] += 1 if items is None else items(result)
            st[2] += duration
            st[3] += duration - frame[1]
            if st[0] <= SPAN_CAP:
                self.spans.append((frame[0], name, start, end, parent, self.run_id))

    def wrap(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, items)

        return wrapper


def _plain(name: str, items: Callable | None = None) -> Callable:
    return lambda tracer, fn: tracer.wrap(name, fn, items)


def _generator(name: str) -> Callable:
    """One span per `next`, so the consumer's work between items stays outside."""

    def make(tracer: Tracer, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        return wrapper

    return make


def _count(tracer: Tracer, fn: Callable) -> Callable:
    """Splits counting by engine: 1324 has its own, every other pattern the generic one."""
    from permwords import perm_core

    def wrapper(n: int, q: Any, **kwargs: Any) -> Any:
        pattern = perm_core._flatten(perm_core._entries_of(q))
        engine = "1324" if pattern == perm_core._PATTERN_1324 else "generic"
        return tracer.call(f"perm_core.count_{engine}", fn, (n, q), kwargs)

    return wrapper


def _pair_count(tracer: Tracer, fn: Callable) -> Callable:
    """The process's first pair count builds the signature tables; later ones reuse them."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        name = "wordlang.pair_count" if tracer.pair_counted else "wordlang.pair_count_first"
        tracer.pair_counted = True
        return tracer.call(name, fn, args, kwargs)

    return wrapper


# (module, attribute callers look up, wrapper factory).  A dotted
# attribute names a method, wrapped on its class.
SITES = (
    ("permwords.cli", "count_avoiders", _count),
    ("permwords.cli", "enumerate_avoiders", _generator("perm_core.enumerate")),
    ("permwords.wordlang", "enumerate_avoiders", _generator("perm_core.enumerate")),
    ("permwords.cli", "mark", _plain("encoder.mark")),
    ("permwords.encoder", "mark", _plain("encoder.mark")),
    ("permwords.encoder", "MarkedPermutation.word_pair", _plain("encoder.word_pair")),
    ("permwords.wordlang", "encode", _plain("encoder.encode")),
    ("permwords.wordlang", "check_pair", _plain("wordlang.check_pair")),
    ("permwords.cli", "verify_lemma_on_avoiders", _plain("wordlang.lemma")),
    ("permwords.cli", "brute_count_pairs", _pair_count),
    ("permwords.wordlang", "brute_count_pairs", _pair_count),
    ("permwords.wordlang", "count_segments_nocb", _plain("wordlang.count_words")),
    ("permwords.wordlang", "count_nocb_words", _plain("wordlang.count_words")),
    ("permwords.cli", "expand", _plain("series.expand", len)),
    ("permwords.series", "expand", _plain("series.expand", len)),
    ("permwords.cli", "verify_functional_equations", _plain("series.funceq")),
    ("permwords.cli", "growth_bound", _plain("roots.growth_bound")),
    ("permwords.cli", "certified_smallest_root", _plain("roots.certify")),
    ("permwords.roots", "certified_smallest_root", _plain("roots.certify")),
    ("permwords.roots", "all_roots", _plain("roots.all_roots")),
    ("permwords.roots", "refine_real_root", _plain("roots.refine")),
    ("permwords.roots", "is_square_free", _plain("roots.square_free")),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap every site for the duration; yields the sites that were not found."""
    saved = []
    missing = []
    for module_name, path, make in SITES:
        *owners, attr = path.split(".")
        owner = importlib.import_module(module_name)
        for name in owners:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{path}")
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, make(tracer, fn))
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# Per-layer metric -> (stats column, span names summed).  `total` and
# `self` are seconds; `calls` counts spans and `items` the work they
# returned (items yielded, coefficients expanded, bounds certified).
_READS = {
    "perm_core.count_1324_s": ("total", ("perm_core.count_1324",)),
    "perm_core.count_1324_calls": ("calls", ("perm_core.count_1324",)),
    "perm_core.count_generic_s": ("total", ("perm_core.count_generic",)),
    "perm_core.count_generic_calls": ("calls", ("perm_core.count_generic",)),
    "perm_core.enumerate_s": ("total", ("perm_core.enumerate",)),
    "perm_core.perms_enumerated": ("items", ("perm_core.enumerate",)),
    "encoder.mark_s": ("total", ("encoder.mark",)),
    "encoder.perms_marked": ("items", ("encoder.mark",)),
    "wordlang.check_pair_s": ("total", ("wordlang.check_pair",)),
    "wordlang.pairs_checked": ("items", ("wordlang.check_pair",)),
    "wordlang.lemma_self_s": ("self", ("wordlang.lemma",)),
    "wordlang.pair_count_first_s": ("total", ("wordlang.pair_count_first",)),
    "wordlang.pair_count_s": ("total", ("wordlang.pair_count",)),
    "wordlang.pair_count_calls": ("calls", ("wordlang.pair_count_first", "wordlang.pair_count")),
    "series.expand_s": ("total", ("series.expand",)),
    "series.coeffs_expanded": ("items", ("series.expand",)),
    "series.funceq_self_s": ("self", ("series.funceq",)),
    "roots.growth_bound_s": ("total", ("roots.growth_bound",)),
    "roots.bounds_certified": ("items", ("roots.growth_bound",)),
    "roots.all_roots_s": ("total", ("roots.all_roots",)),
    "roots.refine_s": ("total", ("roots.refine",)),
    "roots.square_free_s": ("total", ("roots.square_free",)),
}
_COLUMN = {"calls": 0, "items": 1, "total": 2, "self": 3}


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(stats: dict[str, list]) -> dict[str, float | int]:
    """Per-layer metrics of one traced run, from its per-name stats.

    The `<layer>.self_s` values sum to `trace.wall_s`, the root span.
    """
    out: dict[str, float | int] = {}
    for metric, (column, names) in _READS.items():
        out[metric] = sum(stats[n][_COLUMN[column]] for n in names if n in stats)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st[3] for n, st in stats.items() if _layer(n) == layer)
    out["trace.wall_s"] = stats[ROOT][2]
    return out


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def span_records(tracer: Tracer) -> list[dict[str, Any]]:
    """The kept spans, with times in seconds from the first span's start."""
    if not tracer.spans:
        return []
    t0 = min(s[2] for s in tracer.spans)
    return [
        {"id": i, "name": n, "start": a - t0, "end": b - t0, "parent": p, "run": r}
        for i, n, a, b, p, r in tracer.spans
    ]
