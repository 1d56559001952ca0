"""Spans and counters around the package's public functions, and the
arithmetic that turns them into per-layer numbers.

The wrappers live here, in the benchmark, and are installed into a fresh
process after set-up; the package itself is not changed.  Each span records
(id, name, start, end, parent, request); spans stay in memory and are written
out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")

SUITES = {
    "verify_theorem1": "suite.T1",
    "verify_theorem2": "suite.T2",
    "verify_theorem3": "suite.T3",
    "verify_theorem4": "suite.T4",
    "verify_theorem5": "suite.T5",
    "verify_corollary1": "suite.C1",
    "verify_euler_identities": "suite.euler",
    "verify_pb_closed_form": "suite.oracle",
    "verify_negative_index": "suite.oracle",
    "verify_iterated_integral": "suite.oracle",
    "verify_gen_numbers_anchor": "suite.oracle",
}

# Cached constructions (module.function) whose cache_info() is reported.
CACHES = (
    "generalized.gen_pb_poly",
    "generalized.gen_pb_numbers",
    "euler.euler_poly",
    "euler.gen_euler_poly",
)

# cProfile roll-up: calls to these Fraction internals are `fractions.ops`.
FRACTION_OPS = ("_add", "_mul", "_div", "__new__")


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self._stack = [None]
        self._next = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request))

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, *args)`` runs first."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, *args)
            return self.call(name, fn, args, kwargs)

        return wrapper


def _terms(p) -> int:
    if hasattr(p, "items"):
        return sum(1 for _ in p.items())
    return 1 if p else 0


def _count_poly_mul(counts, a, b):
    if isinstance(b, (int, Fraction)) or hasattr(b, "items"):
        counts["exact.mul_calls"] += 1
        counts["exact.term_products"] += _terms(a) * _terms(b)


def _count_substitute(counts, *_):
    counts["exact.substitute_calls"] += 1


def _count_series_mul(counts, a, b):
    counts["series.mul_calls"] += 1
    if hasattr(b, "coeffs"):
        n = min(a.order, b.order) + 1
        counts["series.coeff_products"] += n * (n + 1) // 2
    elif isinstance(b, (int, Fraction)) or hasattr(b, "items"):
        counts["series.coeff_products"] += a.order + 1


def _count_pb(counts, *_):
    counts["numbers.poly_bernoulli_calls"] += 1


def _rebind(original, wrapper, owners) -> None:
    """Point every name in ``owners`` that is bound to ``original`` at ``wrapper``."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> dict:
    """Wrap the layers' public entry points in the loaded ``polybernoulli``.

    Returns the unwrapped cached constructions named in CACHES.
    """
    from polybernoulli import cli, exact, generalized, numbers, series, verification

    caches = {}
    for name in CACHES:
        module, attr = name.split(".")
        caches[name] = getattr(sys.modules[f"polybernoulli.{module}"], attr)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polybernoulli"]
    wrap = recorder.wrap

    def method(cls, attr, name, count=None):
        original = vars(cls)[attr]
        _rebind(original, wrap(name, original, count), [cls])

    def function(module, attr, name, count=None):
        original = getattr(module, attr)
        _rebind(original, wrap(name, original, count), modules)

    method(exact.MultiPoly, "__mul__", "exact.mul", _count_poly_mul)
    method(exact.MultiPoly, "substitute", "exact.substitute", _count_substitute)
    function(exact, "homogeneous_substitute", "exact.homogeneous_substitute")
    method(series.PowerSeries, "__mul__", "series.mul", _count_series_mul)
    function(series, "ps_div", "series.div")
    function(series, "ps_compose", "series.compose")
    method(numbers.PolyBernoulliCache, "poly_bernoulli", "numbers.poly_bernoulli", _count_pb)
    function(numbers, "poly_bernoulli_poly", "numbers.poly_bernoulli_poly")
    function(generalized, "gen_pb_poly", "generalized.gen_pb_poly")
    function(generalized, "gen_pb_numbers", "generalized.gen_pb_numbers")
    for attr, name in SUITES.items():
        function(verification, attr, name)
    for attr in ("render", "format_rational", "format_series"):
        original = getattr(cli, attr)
        setattr(cli, attr, wrap("cli.render", original))

    build_parser = cli.build_parser

    def timed_build_parser():
        parser = recorder.call("cli.parse", build_parser, (), {})
        parser.parse_args = wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = timed_build_parser
    return caches


def cache_counts(caches: dict) -> dict[str, float]:
    """``.hits``, ``.misses``, ``.hit_ratio`` and ``.currsize`` per cached function."""
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        looked_up = info.hits + info.misses
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
        out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out[f"{name}.currsize"] = info.currsize
    return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children[sid]) for sid, _, start, end, _, _ in spans
    }


def by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time and self time.

    Inclusive time counts only spans with no ancestor of the same name, so a
    name that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own[sid]
        ancestor = parent_of[sid]
        while ancestor is not None and name_of[ancestor] != name:
            ancestor = parent_of[ancestor]
        if ancestor is None:
            row["total_s"] += end - start
    return dict(out)


def profile_rollup(stats: dict, layer_of) -> tuple[dict[str, float], int]:
    """Self time per layer from ``pstats.Stats(...).stats``, and ``fractions.ops``.

    ``layer_of(filename)`` names the layer of a source file, or None.  A
    built-in function's time goes to the layers of its callers, in proportion
    to what each caller spent in it.
    """
    self_s: dict[str, float] = defaultdict(float)
    ops = 0
    for (filename, _, func), (_, calls, tottime, _, callers) in stats.items():
        layer = layer_of(filename)
        if layer == "fractions" and func in FRACTION_OPS:
            ops += calls
        if filename != "~":
            self_s[layer or "other"] += tottime
            continue
        for (caller_file, _, _), caller_stats in callers.items():
            self_s[layer_of(caller_file) or "other"] += caller_stats[2]
    return dict(self_s), ops
