"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps public xorcodes functions where their caller looks them
up (for example ``xorcodes.search.exact_vd`` rather than the definition in
``xorcodes.decoding``), so the package source is untouched.  A span is
[name, start, end, parent index, info]; spans stay in memory and are
written out after the job.  Self time is a span's duration minus the
durations of its direct children.  Untraced runs never import this module.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

# (module where the caller looks the name up, attribute, span name)
SITES = [
    ("xorcodes.decoding", "rank_batch", "gf2.rank_batch"),
    ("xorcodes.gf2", "rank", "gf2.rank"),
    ("xorcodes.search", "rank", "gf2.rank"),
    ("xorcodes.cli", "exact_vd", "decoding.exact_vd"),
    ("xorcodes.search", "exact_vd", "decoding.exact_vd"),
    ("xorcodes.cli", "sampled_vd", "decoding.sampled_vd"),
    ("xorcodes.search", "sampled_vd", "decoding.sampled_vd"),
    ("xorcodes.cli", "channel_sweep", "decoding.channel_sweep"),
    ("xorcodes.cli", "p_success", "decoding.p_success"),
    ("xorcodes.search", "p_success", "decoding.p_success"),
    ("xorcodes.decoding", "p_success", "decoding.p_success"),
    ("xorcodes.cli", "simulate_ps", "decoding.simulate_ps"),
    ("xorcodes.cli", "search_family", "search.search_family"),
    ("xorcodes.search", "climb", "search.climb"),
    ("xorcodes.search", "neighbor", "search.neighbor"),
    ("xorcodes.search", "random_nonsingular_rectangle", "latin.random_nonsingular_rectangle"),
]

def _info(name: str, module: str, sig, args, kwargs, result):
    """What a span needs for its counters, taken after the call returns."""
    if name == "gf2.rank_batch":
        return args[0].shape
    if name in ("decoding.exact_vd", "decoding.sampled_vd", "decoding.simulate_ps"):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        G = a["G"]
        if name == "decoding.simulate_ps":
            return a["trials"]
        info = {"shape": G.shape, "max_subsets": a["max_subsets"],
                "samples": a.get("samples_per_entry", 0)}
        if module == "xorcodes.search":
            info["G"] = G  # column multiset taken after the job, for search.repeat_share
        return info
    if name == "search.climb":
        before = args[0].provenance.get("climb_steps", 0)
        return result.provenance.get("climb_steps", 0) - before
    return None


class Recorder:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.notes: list[str] = []  # call sites or arguments the package no longer has
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, info=None, **kwargs):
        """Run fn inside a span called name."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            try:
                rec[4] = info(args, kwargs, result)
            except Exception as e:  # a changed signature loses a counter, not the run
                self.notes.append(f"{name}: {type(e).__name__}: {e}")
        return result

    def install(self) -> None:
        """Wrap every call site in SITES; sites the package no longer has are listed."""
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.notes.append(f"no {module_name}.{attr} to wrap")
                continue
            setattr(module, attr, self._wrapper(fn, name, module_name))

    def _wrapper(self, fn, name, module_name):
        sig = inspect.signature(fn)

        def info(args, kwargs, result):
            return _info(name, module_name, sig, args, kwargs, result)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, info=info, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                  "trace_id": self.trace_id} for s in self.spans]
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": spans}))


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(rec: Recorder, wall_s: float, bytes_out: int) -> dict[str, float]:
    """Per-layer counts and times of one traced job."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s, own in zip(rec.spans, self_times(rec.spans)):
        calls[s[0]] += 1
        self_s[s[0]] += own
    by_name = defaultdict(list)
    for s in rec.spans:
        if s[4] is not None:
            by_name[s[0]].append(s)
    m: dict[str, float] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    batch = [s[4] for s in by_name["gf2.rank_batch"]]
    m["gf2.rank_batch.calls"] = calls["gf2.rank_batch"]
    m["gf2.rank_batch.sets"] = sum(sh[0] for sh in batch)
    m["gf2.rank_batch.self_s"] = self_s["gf2.rank_batch"]
    m["gf2.rank_batch.sets_per_s"] = ratio(m["gf2.rank_batch.sets"], self_s["gf2.rank_batch"])
    m["gf2.rank_batch.bytes_in"] = sum(math.prod(sh) * 8 for sh in batch)
    m["gf2.rank.calls"] = calls["gf2.rank"]
    m["gf2.rank.self_s"] = self_s["gf2.rank"]

    def subsets(info, exact_only):
        k, n = info["shape"]
        return sum(math.comb(n, mm) for mm in range(k, n + 1)
                   if not exact_only or math.comb(n, mm) <= info["max_subsets"])

    exact = [s[4] for s in by_name["decoding.exact_vd"]]
    m["decoding.exact_vd.calls"] = calls["decoding.exact_vd"]
    m["decoding.exact_vd.self_s"] = self_s["decoding.exact_vd"]
    m["decoding.exact_vd.subsets"] = sum(subsets(i, False) for i in exact)
    sampled = [s[4] for s in by_name["decoding.sampled_vd"]]
    m["decoding.sampled_vd.calls"] = calls["decoding.sampled_vd"]
    m["decoding.sampled_vd.self_s"] = self_s["decoding.sampled_vd"]
    m["decoding.sampled_vd.samples"] = sum(
        i["samples"] * sum(math.comb(i["shape"][1], mm) > i["max_subsets"]
                           for mm in range(i["shape"][0], i["shape"][1] + 1))
        for i in sampled)
    m["decoding.sampled_vd.exact_subsets"] = sum(subsets(i, True) for i in sampled)
    for name in ("decoding.channel_sweep", "decoding.p_success"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    sims = by_name["decoding.simulate_ps"]
    m["decoding.simulate_ps.calls"] = calls["decoding.simulate_ps"]
    m["decoding.simulate_ps.trials"] = sum(s[4] for s in sims)
    m["decoding.simulate_ps.self_s"] = self_s["decoding.simulate_ps"]
    m["decoding.simulate_ps.trials_per_s"] = ratio(
        m["decoding.simulate_ps.trials"], sum(s[2] - s[1] for s in sims))

    keys = [tuple(sorted(col.tobytes() for col in i["G"].array.T))
            for i in exact + sampled if "G" in i]
    m["search.restarts"] = calls["search.climb"]
    m["search.proposals"] = calls["search.neighbor"]
    m["search.accepts"] = sum(s[4] for s in by_name["search.climb"])
    m["search.accept_ratio"] = ratio(m["search.accepts"], m["search.proposals"])
    m["search.evaluations"] = len(keys)
    m["search.repeats"] = len(keys) - len(set(keys))
    m["search.repeat_share"] = ratio(m["search.repeats"], len(keys))
    for name in ("search.neighbor", "search.climb", "search.search_family"):
        m[f"{name}.self_s"] = self_s[name]
    m["latin.random_nonsingular_rectangle.calls"] = calls["latin.random_nonsingular_rectangle"]
    m["latin.random_nonsingular_rectangle.self_s"] = self_s["latin.random_nonsingular_rectangle"]
    m["cli.calls"] = calls["cli"]
    m["cli.self_s"] = self_s["cli"]
    m["cli.bytes_out"] = bytes_out
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(s[2] - s[1] for s in rec.spans if s[3] < 0)
    return m

