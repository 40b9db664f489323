"""Per-layer tracing for the benchmark, kept outside the package it measures.

The tracer wraps public entry points and operator methods of ``fibluc`` in
place, for one traced run in a fresh process.  Every wrapped call is a span:
its inclusive time is charged to its name, its self time is the inclusive
time minus the time of the wrapped calls it made.  Hot operations are
aggregated into counters plus time per name rather than stored one span
each, so memory stays flat however many polynomial products a run makes.

The wrapper's own bookkeeping is timed and charged to ``bookkeeping_s``
instead of to any span, inclusive or self.  Entering and leaving a wrapper
also costs time outside its timers, which would land in the caller's self
time; that cost is measured once on a no-op (``wrapper_cost``) and moved
from the caller to ``bookkeeping_s`` on every call.  What is left of the
traced wall time after the layers' self times and the bookkeeping is the
harness's own self time.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

#: Products with at least this many term pairs count as big.
BIG_PRODUCT_PAIRS = 1000

#: Span names, in report order.  ``harness`` is the root: time not spent
#: inside any wrapped call.
SPANS = (
    "poly.mul.big",
    "poly.mul.small",
    "poly.add",
    "poly.pow",
    "poly.eq",
    "poly.canonical_text",
    "quadext.mul",
    "quadext.add",
    "sequences.seq",
    "sequences.matrix_pow",
    "seqcache",
    "identities.run_catalog",
    "identities.check_case",
    "identities.lhs",
    "identities.rhs",
    "idlang.parse",
    "idlang.check",
    "report.from_cells",
    "report.render",
)


# The size helpers read the term mapping directly when it is there: the public
# ``terms`` property copies it, which would cost more than a small product.


def term_count(value) -> int:
    """Number of stored terms of a polynomial or extension element."""
    if hasattr(value, "a") and hasattr(value, "b"):
        return term_count(value.a) + term_count(value.b)
    terms = getattr(value, "_terms", None)
    if terms is None:
        terms = value.terms
    return len(terms)


def coeff_bits(value) -> int:
    """Largest bit length of a coefficient's numerator or denominator."""
    if hasattr(value, "a") and hasattr(value, "b"):
        return max(coeff_bits(value.a), coeff_bits(value.b))
    terms = getattr(value, "_terms", None)
    if terms is None:
        terms = value.terms
    bits = 0
    for coeff in terms.values():
        if isinstance(coeff, int):
            bits = max(bits, coeff.bit_length())
        else:
            bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return bits


def wrapper_cost(batch: int = 5000, batches: int = 7) -> float:
    """Seconds per wrapped call spent outside the wrapper's own timers.

    The median over batches of a loop of wrapped no-op calls, less the time
    the wrapper timed and the time of the same loop with no call.
    """
    probe = Tracer(call_cost_s=0.0)
    noop = probe.wrap("poly.eq", lambda _a, _b: None)
    costs = []
    for _ in range(batches):
        timed = probe._stack[0]
        t0 = perf_counter()
        for _ in range(batch):
            noop(1, 2)
        t1 = perf_counter()
        for _ in range(batch):
            pass
        t2 = perf_counter()
        costs.append((t1 - t0) - (probe._stack[0] - timed) - (t2 - t1))
    return max(0.0, statistics.median(costs) / batch)


class Tracer:
    """Span stack plus per-name call counts, inclusive and self times."""

    def __init__(self, call_cost_s: float | None = None) -> None:
        #: untimed cost of entering and leaving one wrapper, charged to bookkeeping
        self.call_cost_s = wrapper_cost() if call_cost_s is None else call_cost_s
        self.calls = dict.fromkeys(SPANS, 0)
        self.incl_s = dict.fromkeys(SPANS, 0.0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.bookkeeping_s = 0.0
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.seqcache_misses = 0
        self.seqcache_fill_s = 0.0
        self.seqcache_top = {}
        # children time of each open span; index 0 is the harness root
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, classify=None, after=None):
        """Traced stand-in for ``fn``.

        ``classify(args)`` may pick the span name per call; ``after(args,
        result, seconds)`` records sizes once the call has returned.  Both run
        as bookkeeping, outside the span.
        """
        stack = self._stack
        calls, incl, self_time = self.calls, self.incl_s, self.self_s
        call_cost = self.call_cost_s

        def traced(*args, **kwargs):
            t_in = perf_counter()
            label = classify(args) if classify else name
            stack.append(0.0)
            nested_from = self.bookkeeping_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                children = stack.pop()
                span_s = t1 - t0 - (self.bookkeeping_s - nested_from)
                calls[label] += 1
                incl[label] += span_s
                self_time[label] += t1 - t0 - children
            if after:
                after(args, result, span_s)
            t2 = perf_counter()
            stack[-1] += t2 - t_in + call_cost
            self.bookkeeping_s += (t0 - t_in) + (t2 - t1) + call_cost
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` once as a span, for calls the harness makes itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, attr, value) -> None:
        for module in modules:
            if hasattr(module, attr):
                self._patch(module, attr, value)

    # -- size and cache records -----------------------------------------------

    def _record_size(self, _args, result, _seconds) -> None:
        """Track the largest ring value produced (scalars are skipped)."""
        try:
            terms = term_count(result)
        except AttributeError:
            return
        if terms > self.max_terms:
            self.max_terms = terms
        # the largest coefficients sit in the larger values; reading the bits
        # of every small product would double the bookkeeping
        if terms >= 8:
            bits = coeff_bits(result)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _cache_span(self, family, fn):
        """Cache lookup span; a call past the highest index so far is a miss."""
        self.seqcache_top[family] = 1  # the tables start with indices 0 and 1

        def after(args, _result, seconds):
            n = args[0]
            if n > self.seqcache_top[family]:
                self.seqcache_top[family] = n
                self.seqcache_misses += 1
                self.seqcache_fill_s += seconds

        return self.wrap("seqcache", fn, after=after)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Patch fibluc's layers, including the names other modules imported."""
        from fibluc import _seqcache, cli, identities, idlang, poly, report, sequences

        users = (identities, idlang, cli)
        bivar, quad = poly.BivarPoly, poly.QuadExtElem

        def mul_size(args):
            left, right = args
            try:
                pairs = term_count(left) * term_count(right)
            except AttributeError:  # a scalar operand
                return "poly.mul.small"
            return "poly.mul.big" if pairs >= BIG_PRODUCT_PAIRS else "poly.mul.small"

        mul = self.wrap("poly.mul", bivar.__dict__["__mul__"], mul_size, self._record_size)
        self._patch(bivar, "__mul__", mul)
        self._patch(bivar, "__rmul__", mul)
        add = self.wrap("poly.add", bivar.__dict__["__add__"])
        self._patch(bivar, "__add__", add)
        self._patch(bivar, "__radd__", add)
        self._patch(bivar, "__pow__", self.wrap("poly.pow", bivar.__dict__["__pow__"]))
        self._patch(bivar, "__eq__", self.wrap("poly.eq", bivar.__dict__["__eq__"]))
        qmul = self.wrap("quadext.mul", quad.__dict__["__mul__"], after=self._record_size)
        self._patch(quad, "__mul__", qmul)
        self._patch(quad, "__rmul__", qmul)
        qadd = self.wrap("quadext.add", quad.__dict__["__add__"])
        self._patch(quad, "__add__", qadd)
        self._patch(quad, "__radd__", qadd)

        text = self.wrap("poly.canonical_text", poly.canonical_text)
        self._patch_everywhere((poly, identities, idlang, cli), "canonical_text", text)
        seq = self.wrap("sequences.seq", sequences.seq, after=self._record_size)
        self._patch_everywhere((sequences,) + users, "seq", seq)
        mpow = self.wrap("sequences.matrix_pow", sequences.matrix_pow)
        self._patch_everywhere((sequences,) + users, "matrix_pow", mpow)
        for family in ("fib_poly", "luc_poly"):
            cached = self._cache_span(family, getattr(_seqcache, family))
            self._patch_everywhere((_seqcache,) + users, family, cached)

        check_case = self.wrap("identities.check_case", identities.check_case)
        self._patch(identities, "check_case", check_case)
        self._patch(idlang, "parse", self.wrap("idlang.parse", idlang.parse))
        self._patch(idlang, "check", self.wrap("idlang.check", idlang.check))
        from_cells = report.CheckReport.__dict__["from_cells"].__func__
        self._patch(
            report.CheckReport,
            "from_cells",
            classmethod(self.wrap("report.from_cells", from_cells)),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def timed_cases(self, cases):
        """Copies of catalog cases whose side evaluators are spans."""
        return [
            dataclasses.replace(
                case,
                lhs=self.wrap("identities.lhs", case.lhs),
                rhs=self.wrap("identities.rhs", case.rhs),
            )
            for case in cases
        ]

    # -- results -------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced run that took ``wall_s`` seconds."""
        s, incl, calls = self.self_s, self.incl_s, self.calls
        seqcache_calls = calls["seqcache"]
        out = {
            "poly.mul.calls": (calls["poly.mul.big"] + calls["poly.mul.small"], "count"),
            "poly.mul.big_calls": (calls["poly.mul.big"], "count"),
            "poly.mul.self_s": (s["poly.mul.big"] + s["poly.mul.small"], "s"),
            "poly.mul.big_self_s": (s["poly.mul.big"], "s"),
            "poly.mul.small_self_s": (s["poly.mul.small"], "s"),
            "poly.add.self_s": (s["poly.add"], "s"),
            "poly.pow.self_s": (s["poly.pow"], "s"),
            "poly.eq.self_s": (s["poly.eq"], "s"),
            "poly.canonical_text.self_s": (s["poly.canonical_text"], "s"),
            "quadext.mul.self_s": (s["quadext.mul"], "s"),
            "quadext.add.self_s": (s["quadext.add"], "s"),
            "poly.max_terms": (self.max_terms, "count"),
            "poly.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "sequences.seq.calls": (calls["sequences.seq"], "count"),
            "sequences.seq.incl_s": (incl["sequences.seq"], "s"),
            "sequences.seq.self_s": (s["sequences.seq"], "s"),
            "sequences.matrix_pow.incl_s": (incl["sequences.matrix_pow"], "s"),
            "sequences.matrix_pow.self_s": (s["sequences.matrix_pow"], "s"),
            "seqcache.calls": (seqcache_calls, "count"),
            "seqcache.misses": (self.seqcache_misses, "count"),
            "seqcache.hit_ratio": (
                1.0 - self.seqcache_misses / seqcache_calls if seqcache_calls else 0.0,
                "ratio",
            ),
            "seqcache.fill_s": (self.seqcache_fill_s, "s"),
            "seqcache.max_index": (max(self.seqcache_top.values(), default=0), "count"),
            "seqcache.self_s": (s["seqcache"], "s"),
            "identities.run_catalog.self_s": (s["identities.run_catalog"], "s"),
            "identities.check_case.self_s": (s["identities.check_case"], "s"),
            "identities.lhs_s": (incl["identities.lhs"], "s"),
            "identities.rhs_s": (incl["identities.rhs"], "s"),
            "identities.lhs.self_s": (s["identities.lhs"], "s"),
            "identities.rhs.self_s": (s["identities.rhs"], "s"),
            "identities.compare_s": (
                incl["identities.check_case"] - incl["identities.lhs"] - incl["identities.rhs"],
                "s",
            ),
            "idlang.parse.self_s": (s["idlang.parse"], "s"),
            "idlang.check.self_s": (s["idlang.check"], "s"),
            "report.from_cells_s": (s["report.from_cells"], "s"),
            "report.render_s": (s["report.render"], "s"),
        }
        layers_s = sum(s.values())
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.layers_self_s"] = (layers_s, "s")
        out["trace.bookkeeping_s"] = (self.bookkeeping_s, "s")
        out["trace.harness_self_s"] = (wall_s - layers_s - self.bookkeeping_s, "s")
        return out
