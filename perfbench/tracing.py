"""Per-layer tracing of rankguard from outside the program.

``Tracer`` replaces each public function and method of the rankguard
modules with a wrapper, in every module namespace that bound it, and puts
the originals back on exit.  Each module is one layer.

Every wrapper adds its call and its self time (its duration minus the time
of wrapped calls made inside it) to a per-function total.  Calls at the
reduction and enumeration level also record a span with its parent span.
Everything below that level (field arithmetic, ``rank_bits``,
``Matrix.__init__``/``rref``, vector helpers) runs millions of times per
pass, so it is only aggregated and the trace fits in memory.

A generator is timed per resume, so time its consumer spends between items
is not charged to it; its span covers creation to exhaustion.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any

LAYERS = ("gf", "linalg", "bitrank", "subspaces", "network", "codes",
          "coset_scheme", "rank_metrics", "security", "decoder")
SPAN_LAYERS = frozenset({"subspaces", "network", "rank_metrics", "security", "decoder"})
NOT_SPANNED = frozenset({"rank_metrics.rank_weight", "rank_metrics.rank_distance"})
MAX_SPANS = 200_000

# per-layer counters: metric -> wrapped functions whose calls (or, for
# "yields:", items yielded) it sums
COUNTS = {
    "gf.add_calls": ["gf.FieldCtx.add", "gf.FieldCtx.sub"],
    "gf.mul_calls": ["gf.FieldCtx.mul"],
    "gf.tables_built": ["gf.FieldCtx.__init__"],
    "linalg.matrices_built": ["linalg.Matrix.__init__"],
    "linalg.rref_calls": ["linalg.Matrix.rref"],
    "linalg.ext_mul_calls": ["linalg.ext_vec_times_base_transpose"],
    "bitrank.rank_bits_calls": ["bitrank.rank_bits"],
    "bitrank.tables_built": ["bitrank.PackedRankTable.__init__"],
    "subspaces.bases_yielded": ["yields:subspaces.enumerate_base_subspaces"],
    "network.errors_yielded": ["yields:network.enumerate_errors"],
    "network.wiretaps_yielded": ["yields:network.enumerate_wiretap"],
    "network.transmits": ["network.transmit"],
    "codes.duals_built": ["codes.LinearCode.dual"],
    "coset_scheme.encodes": ["coset_scheme.NestedScheme.encode"],
    "rank_metrics.rdip_calls": ["rank_metrics.rdip"],
    "security.mi_calls": ["security.JointDistribution.mutual_information"],
    "decoder.decodes": ["decoder.decode_coherent", "decoder.decode_noncoherent"],
}


def _pair_key(c1, c2, family) -> tuple:
    ctx = c1.ctx
    return (ctx.q, ctx.m, ctx.modulus, c1.gen.rows, c2.gen.rows, family)


class Tracer:
    """Context manager: wrappers installed on enter, removed on exit."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self_ns, yields]
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.dropped_spans = 0
        self.rref_hits = 0
        self.rdip_repeats = 0
        self.capability_trials = 0
        self._profiled_pairs: set[tuple] = set()
        self._stack: list[list[int]] = [[0]]  # child time of each open call
        self._span_stack: list[int | None] = [None]
        self._next_span = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- hooks on particular functions ------------------------------------------

    def _before_rref(self, args, kwargs):
        if args[0]._rref_cache is not None:
            self.rref_hits += 1

    def _before_rdip(self, args, kwargs):
        key = _pair_key(args[0], args[1], kwargs.get("family", "qinvariant"))
        if key in self._profiled_pairs:
            self.rdip_repeats += 1
        self._profiled_pairs.add(key)

    def _after_capability(self, result):
        self.capability_trials += result.trials

    # -- wrappers -----------------------------------------------------------------

    def _aggregate(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        perf = time.perf_counter_ns
        before = self._before_rref if name == "linalg.Matrix.rref" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]

        return wrapper

    def _open_span(self) -> tuple[int, int | None]:
        sid = self._next_span
        self._next_span += 1
        return sid, self._span_stack[-1]

    def _close_span(self, sid, parent, name, t0, t1):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, name, t0, t1))
        else:
            self.dropped_spans += 1

    def _spanned(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, span_stack = self._stack, self._span_stack
        perf = time.perf_counter_ns
        before = self._before_rdip if name == "rank_metrics.rdip" else None
        after = self._after_capability if name == "decoder.capability_report" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid, parent = self._open_span()
            span_stack.append(sid)
            frame = [0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stack[-1][0] += t1 - t0
                span_stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                self._close_span(sid, parent, name, t0, t1)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _generator(self, fn, name, spanned):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, span_stack = self._stack, self._span_stack
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stat[0] += 1
            sid, parent = self._open_span() if spanned else (None, None)
            started = perf()
            gen = fn(*args, **kwargs)
            try:
                while True:
                    if spanned:
                        span_stack.append(sid)
                    frame = [0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - t0
                        stack.pop()
                        stack[-1][0] += dt
                        stat[1] += dt - frame[0]
                        if spanned:
                            span_stack.pop()
                    stat[2] += 1
                    yield item
            finally:
                gen.close()
                if spanned:
                    self._close_span(sid, parent, name, started, perf())

        return wrapper

    def _wrap(self, fn, name, layer):
        spanned = layer in SPAN_LAYERS and name not in NOT_SPANNED
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, name, spanned)
        if spanned:
            return self._spanned(fn, name)
        return self._aggregate(fn, name)

    # -- install / remove -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__iter__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue  # properties and class attributes
            self._patch(cls, attr, new)

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, tuple[Any, Any]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rankguard.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rankguard" or mod_name.startswith("rankguard.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------------

    def count(self, names: list[str]) -> int:
        total = 0
        for name in names:
            yields = name.startswith("yields:")
            stat = self.stats.get(name.removeprefix("yields:"))
            if stat is None:
                print(f"tracing: {name} was not wrapped; counted as 0", file=sys.stderr)
                continue
            total += stat[2] if yields else stat[0]
        return total

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mine = [s for name, s in self.stats.items() if name.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (sum(s[0] for s in mine), "count")
            out[f"{layer}.self_s"] = (sum(s[1] for s in mine) / 1e9, "s")
        for metric, names in COUNTS.items():
            out[metric] = (self.count(names), "count")
        rref_calls = out["linalg.rref_calls"][0]
        out["linalg.rref_cache_hit_ratio"] = (
            self.rref_hits / rref_calls if rref_calls else 0.0, "ratio")
        lookups = self.count(["bitrank.packed_rank_table"])
        built = out["bitrank.tables_built"][0]
        out["bitrank.table_hit_ratio"] = ((lookups - built) / lookups if lookups else 0.0, "ratio")
        rdips = out["rank_metrics.rdip_calls"][0]
        out["rank_metrics.rdip_repeat_ratio"] = (self.rdip_repeats / rdips if rdips else 0.0, "ratio")
        out["decoder.trials"] = (self.capability_trials, "count")
        return out
