"""Spans around dtorus's public functions, installed from outside the package.

A traced rep wraps the functions listed in ``TARGETS`` in every namespace
that holds them (``from .x import y`` copies the binding into each importing
module) and adds a ``gc.callbacks`` hook.  Spans are kept in memory as
[name, start, end, parent, negative] and turned into per-layer metrics when
the workload ends.  Untraced reps install none of this.

Tiny hot helpers (``cos_key``, ``CycElt`` arithmetic, ``key_of_tuple``) are
deliberately left unwrapped: a span per call would cost more than the call.
"""

from __future__ import annotations

import gc
import sys
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  ``CycContext.__init__`` is patched on the
# class, so every namespace sees it.
TARGETS = [
    ("dtorus.cyclotomic", "approx_value", "cyclotomic.approx"),
    ("dtorus.spectrum", "cn_spectrum", "spectrum.cn"),
    ("dtorus.spectrum", "convolve", "spectrum.convolve"),
    ("dtorus.spectrum", "torus_spectrum", "spectrum.table"),
    ("dtorus.spectrum", "key_multiplicity", "spectrum.mitm"),
    ("dtorus.spectrum", "membership", "spectrum.mitm"),
    ("dtorus.criteria", "verify_bound24", "criteria.bound24"),
    ("dtorus.criteria", "eigenvalue_growth", "criteria.growth"),
    ("dtorus.vanishing", "find_vanishing_multiset", "vanishing.search"),
    ("dtorus.vanishing", "minimal_vanishing_sums", "vanishing.enum"),
    ("dtorus.zeta", "zeta_discrete", "zeta.discrete"),
    ("dtorus.zeta", "zeta_continuum_partial", "zeta.continuum"),
    ("dtorus.cli", "main", "cli"),
]

END, NEGATIVE = 2, 4  # span fields: [name, start, end, parent, negative]


class Tracer:
    """Spans and counters of one traced rep; ``paused`` hides benchmark work."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._undo: list = []
        self._contexts_before = 0
        self.paused = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from dtorus import cyclotomic

        self._contexts_before = cyclotomic.get_context.cache_info().misses
        for modname, attr, name in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            self._patch_everywhere(orig, self._wrap(orig, name, _AFTER.get(attr)))
        init = cyclotomic.CycContext.__init__
        cyclotomic.CycContext.__init__ = self._wrap(init, "cyclotomic.context", None)
        self._undo.append((cyclotomic.CycContext, "__init__", init))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch_everywhere(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "dtorus" and not modname.startswith("dtorus."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _wrap(self, fn, name, after):
        spans, stack = self.spans, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info) -> None:
        if self.paused:
            self._gc_start = None
        elif phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, wall_s: float, bytes_out: int, stolen) -> dict[str, float]:
        """Per-layer metrics; ``stolen`` holds the sorted (start, end)
        intervals the reference job ran in, taken out of every span."""
        from dtorus import cyclotomic

        starts = [a for a, _ in stolen]
        cum = [0.0]
        for a, b in stolen:
            cum.append(cum[-1] + b - a)
        dur = [
            end - start - (cum[bisect_left(starts, end)] - cum[bisect_left(starts, start)])
            for _, start, end, _, _ in self.spans
        ]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        builds_below = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, _, _, parent, _ = self.spans[i]
            if name in ("spectrum.cn", "spectrum.convolve"):
                builds_below[i] += 1
            if parent >= 0:
                child[parent] += dur[i]
                builds_below[parent] += builds_below[i]
        selft: dict[str, float] = defaultdict(float)
        negative_s = 0.0
        table_hits = 0
        for i, (name, _, _, _, negative) in enumerate(self.spans):
            calls[name] += 1
            total[name] += dur[i]
            selft[name] += dur[i] - child[i]
            if negative:
                negative_s += dur[i]
            if name == "spectrum.table" and builds_below[i] == 0:
                table_hits += 1

        c = self.counts
        pairs = c["convolve_pairs"]
        mitm = calls["spectrum.mitm"]
        approx = calls["cyclotomic.approx"]
        requests = calls["spectrum.table"]
        return {
            "spectrum.convolve_s": total["spectrum.convolve"],
            "spectrum.convolve_pairs": pairs,
            "spectrum.convolve_ns_per_pair": _ratio(total["spectrum.convolve"] * 1e9, pairs),
            "spectrum.convolve_merge_ratio": _ratio(c["convolve_keys_out"], pairs),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
            "cyclotomic.context_builds": cyclotomic.get_context.cache_info().misses
            - self._contexts_before,
            "cyclotomic.context_s": total["cyclotomic.context"],
            "spectrum.cn_s": selft["spectrum.cn"],
            "criteria.bound24_self_s": selft["criteria.bound24"],
            "spectrum.table_requests": requests,
            "spectrum.table_builds": calls["spectrum.cn"] + calls["spectrum.convolve"],
            "spectrum.cache_hit_ratio": _ratio(table_hits, requests),
            "spectrum.mitm_calls": mitm,
            "spectrum.mitm_self_s": selft["spectrum.mitm"],
            "spectrum.mitm_us_per_call": _ratio(selft["spectrum.mitm"] * 1e6, mitm),
            "criteria.growth_self_s": selft["criteria.growth"],
            "vanishing.search_calls": calls["vanishing.search"],
            "vanishing.search_s": total["vanishing.search"],
            "vanishing.search_negative_s": negative_s,
            "vanishing.enum_s": total["vanishing.enum"],
            "vanishing.minimal_ratio": _ratio(c["enum_minimal"], c["enum_found"]),
            "cyclotomic.approx_calls": approx,
            "cyclotomic.approx_s": total["cyclotomic.approx"],
            "cyclotomic.approx_us_per_call": _ratio(total["cyclotomic.approx"] * 1e6, approx),
            "zeta.discrete_self_s": selft["zeta.discrete"],
            "zeta.continuum_s": total["zeta.continuum"],
            "zeta.continuum_shells_per_s": _ratio(c["continuum_shells"], total["zeta.continuum"]),
            "cli.self_s": selft["cli"],
            "cli.bytes_out": bytes_out,
            "cli.mb_per_s": _ratio(bytes_out / 1e6, selft["cli"]),
            "trace.wall_s": wall_s,
        }


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def _after_convolve(tracer, rec, args, result) -> None:
    a, b = args[0], args[1]
    na = len(a.entries)
    pairs = na * (na + 1) // 2 if a is b else na * len(b.entries)
    tracer.counts["convolve_pairs"] += pairs
    tracer.counts["convolve_keys_out"] += len(result.entries)


def _after_search(tracer, rec, args, result) -> None:
    rec[NEGATIVE] = result is None


def _after_enum(tracer, rec, args, result) -> None:
    tracer.counts["enum_found"] += len(result)
    tracer.counts["enum_minimal"] += sum(1 for f in result if f.minimal)


def _after_continuum(tracer, rec, args, result) -> None:
    tracer.counts["continuum_shells"] += max(args[1], 0)


_AFTER = {
    "convolve": _after_convolve,
    "find_vanishing_multiset": _after_search,
    "minimal_vanishing_sums": _after_enum,
    "zeta_continuum_partial": _after_continuum,
}
