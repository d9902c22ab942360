"""Span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's side: install() replaces the
public functions of each ffspec layer with timing wrappers at every
module attribute that names them, which is where their callers look
them up (ffspec.lemmas.spectrum_search, ffspec.spectral.zero_set,
ffspec.cli.tiling_search, ...).  Nothing in the package changes.

Spans are aggregated as they close, per name: calls, inclusive seconds
and self seconds (duration minus the time of the spans nested directly
inside).  A sweep makes millions of spans, so only the durations of
chunk spans are kept individually.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

KEEP_DURATIONS = ("lemmas.chunk.pooled",)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list = []            # [start, seconds of child spans]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)

    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def exit(self, name: str) -> float:
        end = self.clock()
        start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if name in KEEP_DURATIONS:
            self.durations[name].append(dur)
        return dur

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }


def merge(snapshots) -> dict:
    """Sum tracer snapshots taken in several processes."""
    out = {"calls": Counter(), "total": Counter(), "self": Counter(),
           "counts": Counter(), "durations": defaultdict(list)}
    for snap in snapshots:
        for key in ("calls", "total", "self", "counts"):
            out[key].update(snap[key])
        for k, v in snap["durations"].items():
            out["durations"][k].extend(v)
    return out


# ---------------------------------------------------------------------------
# wrappers


def _span(tracer, fn, name, after=None):
    """fn wrapped in a span; after(args, result) runs inside the span."""
    def traced(*args, **kwargs):
        tracer.enter()
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        finally:
            tracer.exit(name)
    traced.__wrapped__ = fn
    return traced


def _table(tracer, fn):
    """Cached table builder: a call that misses the cache is a cold build."""
    info = getattr(fn, "cache_info", None)

    def traced(*args, **kwargs):
        before = info().misses if info else None
        tracer.enter()
        cold = False
        try:
            out = fn(*args, **kwargs)
            cold = info is not None and info().misses != before
            if cold:
                tracer.counts["tables.bytes"] += int(getattr(out, "nbytes", 0))
            return out
        finally:
            tracer.exit("tables.cold" if cold else "tables.warm")
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, pool_workers: int) -> list:
    """Wrap every layer entry point; returns the patches for uninstall().

    pool_workers is the worker count the workload uses when untraced.
    Traced passes run at one worker so that every span stays in this
    process; chunks count as pooled when the untraced run would hand
    them to a pool (more than one worker and more than one chunk).
    """
    import ffspec
    from ffspec import fourier, geometry, lemmas, parallel, sets, spectral, tables, tiling

    allowed = ffspec.allowed_spectral_sizes
    counts = tracer.counts

    def after_zero_set(args, out):
        counts["fourier.zero_set_nonempty"] += out.size > 0

    def after_spectral(args, cert):
        E = args[0]
        counts["spectral.nodes"] += cert.nodes_explored
        counts["spectral.size_filtered"] += E.size not in allowed(E.space)
        for rule, hit in cert.pruning_stats.items():
            if rule != "size_filtered" and hit:
                counts["spectral.pruned." + rule] += int(hit)

    def after_tiling(args, cert):
        E = args[0]
        counts["tiling.nodes"] += cert.nodes_explored
        counts["tiling.size_filtered"] += (E.size == 0
                                           or E.space.order % E.size != 0)

    def after_lemma(args, report):
        counts["lemmas.sets"] += report.orbit_count

    run_chunks = parallel.run_chunks

    def traced_run_chunks(fn, chunk_args, *args, **kwargs):
        workers = kwargs.get("workers", args[0] if args else 1)
        if workers > 1:
            raise RuntimeError("traced passes run at one worker")
        name = ("lemmas.chunk.pooled"
                if pool_workers > 1 and len(chunk_args) > 1
                else "lemmas.chunk")

        def chunk(a):
            tracer.enter()
            try:
                return fn(a)
            finally:
                tracer.exit(name)

        tracer.enter()
        try:
            return run_chunks(chunk, chunk_args, *args, **kwargs)
        finally:
            tracer.exit("parallel.run_chunks")

    targets = {
        fourier.zero_set: _span(tracer, fourier.zero_set, "fourier.zero_set",
                                after_zero_set),
        geometry.line_sup: _span(tracer, geometry.line_sup, "geometry.line_sup"),
        geometry.plane_sup: _span(tracer, geometry.plane_sup, "geometry.plane_sup"),
        geometry.direction_stats: _span(tracer, geometry.direction_stats,
                                        "geometry.direction_stats"),
        spectral.spectrum_search: _span(tracer, spectral.spectrum_search,
                                        "spectral.search", after_spectral),
        spectral.verify_spectral_pair: _span(tracer, spectral.verify_spectral_pair,
                                             "spectral.validate"),
        tiling.tiling_search: _span(tracer, tiling.tiling_search,
                                    "tiling.search", after_tiling),
        tiling.verify_tiling_pair: _span(tracer, tiling.verify_tiling_pair,
                                         "tiling.verify"),
        sets.read_set: _span(tracer, sets.read_set, "sets.read_set"),
        run_chunks: traced_run_chunks,
    }
    for name in ("verify_lm1", "verify_lm2", "verify_proj21", "verify_slab_p3",
                 "verify_fuglede_small", "falsify_random"):
        fn = getattr(lemmas, name)
        targets[fn] = _span(tracer, fn, "lemmas.driver", after_lemma)
    for fn in vars(tables).values():
        if callable(fn) and hasattr(fn, "cache_info"):
            targets[fn] = _table(tracer, fn)

    patches = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ffspec" or n.startswith("ffspec."))]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            try:
                wrapper = targets.get(val)
            except TypeError:            # unhashable module attribute
                continue
            if wrapper is not None:
                patches.append((mod, attr, val))
                setattr(mod, attr, wrapper)
    # PointSet builds are counted where the sweeps make them; the class
    # itself stays unwrapped everywhere else
    patches.append((lemmas, "PointSet", lemmas.PointSet))
    lemmas.PointSet = _span(tracer, lemmas.PointSet, "sets.pointset")
    return patches


def uninstall(patches) -> None:
    for mod, attr, val in reversed(patches):
        setattr(mod, attr, val)
