"""Spans and counters around pathbetti's public functions, for a traced pass.

Every wrapper is a span: it adds its time and a call to its name, and its
self time, which is its time minus that of the wrapped calls made inside
it.  A wrapper goes on the module attribute the caller looks the function
up in: ``from .homology import matrix_rank`` binds a second name, which
patching ``pathbetti.homology.matrix_rank`` alone would miss.  Nothing
here is imported by an untraced pass.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children = [0.0]  # time of finished child spans, per open span

    def begin(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def end(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        children = self._children.pop()
        self._children[-1] += elapsed
        self.calls[name] += 1
        self.total[name] += elapsed
        self.own[name] += elapsed - children


def _span(tracer: Tracer, fn, name, work=None):
    def wrapper(*args, **kwargs):
        span = name(args, kwargs) if callable(name) else name
        start = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span, start)
        if work is not None:
            work(tracer, span, args, kwargs, result)
        return result
    return wrapper


def _counter(tracer: Tracer, fn, name):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _generator(tracer: Tracer, fn, name):
    """Times each ``next()`` separately, so the consumer's work between items is not counted."""
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            start = tracer.begin()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.end(name, start)
            tracer.counts[name + ".yielded"] += 1
            yield item
    return wrapper


def _rank_field(args, kwargs) -> str:
    field = args[1] if len(args) > 1 else kwargs.get("field")
    return "homology.matrix_rank." + ("gfp" if field is not None and field.characteristic else "qq")


def _rank_cells(tracer, span, args, kwargs, result) -> None:
    rows, cols = args[0].shape
    tracer.counts[span + ".cells"] += rows * cols


def _faces(tracer, span, args, kwargs, result) -> None:
    tracer.counts[span + ".faces"] += len(result)


def _subsets(tracer, span, args, kwargs, result) -> None:
    subset_range = kwargs.get("subset_range", args[3] if len(args) > 3 else None)
    tracer.counts["betti.hochster.subsets"] += (
        len(subset_range) if subset_range is not None else 1 << len(args[0].ambient)
    )


def _miss(tracer, span, args, kwargs, result) -> None:
    tracer.counts["betti.homology_misses"] += 1


# (module, attribute looked up there, wrapper kind, span name, extra work).  Every library
# function cli looks up is wrapped, even those no workload calls, so that cli.self_s is
# argument parsing and rendering alone for any subcommand.
PATCHES = [
    ("cli", "betti_closed_cycle", _span, "betti.closed_cycle", None),
    ("cli", "betti_closed_line", _span, "betti.closed_line", None),
    ("cli", "betti_hochster", _span, "betti.hochster", _subsets),
    ("cli", "homology_cycle_complement", _span, "betti.homology_cycle_complement", None),
    ("cli", "homology_run_sequence", _span, "betti.homology_run_sequence", None),
    ("cli", "nonzero_criterion", _span, "betti.nonzero_criterion", None),
    ("cli", "pd_reg", _span, "betti.pd_reg", None),
    ("cli", "build_path_complex", _span, "paths.build_path_complex", None),
    ("cli", "build_run_complement", _span, "paths.build_run_complement", None),
    ("cli", "complement", _span, "complexes.complement", None),
    ("cli", "reduced_homology_dims", _span, "homology.reduced_homology_dims", None),
    ("betti", "enumerate_placements", _generator, "paths.enumerate_placements", None),
    ("betti", "count_eligible", _counter, "betti.count_eligible.calls", None),
    ("betti", "_complement_homology", _counter, "betti.hochster.kept_supports", None),
    ("betti", "complement", _span, "complexes.complement", None),
    ("betti", "make_complex", _span, "complexes.make_complex", None),
    ("betti", "reduced_homology_dims", _span, "homology.reduced_homology_dims", _miss),
    ("paths", "complement", _span, "complexes.complement", None),
    ("homology", "faces_of_dim", _span, "complexes.faces_of_dim", _faces),
    ("homology", "boundary_matrices", _span, "homology.boundary_matrices", None),
    ("homology", "matrix_rank", _span, _rank_field, _rank_cells),
]


def install() -> Tracer:
    """Wrap every name in PATCHES; a name the program no longer has is reported and skipped."""
    tracer = Tracer()
    for module_name, attr, kind, name, work in PATCHES:
        module = importlib.import_module("pathbetti." + module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: pathbetti.{module_name}.{attr} not found, not traced", file=sys.stderr)
            continue
        setattr(module, attr, kind(tracer, fn, name, work) if work else kind(tracer, fn, name))
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    t, c, own, n = tracer.total, tracer.calls, tracer.own, tracer.counts
    kept = n["betti.hochster.kept_supports"]
    misses = n["betti.homology_misses"]
    out = {
        "cli.self_s": own["cli"],
        "betti.closed_cycle.s": t["betti.closed_cycle"],
        "betti.closed_line.s": t["betti.closed_line"],
        "betti.closed.self_s": own["betti.closed_cycle"] + own["betti.closed_line"],
        "betti.count_eligible.calls": n["betti.count_eligible.calls"],
        "betti.hochster.s": t["betti.hochster"],
        "betti.hochster.self_s": own["betti.hochster"],
        "betti.hochster.subsets": n["betti.hochster.subsets"],
        "betti.hochster.kept_supports": kept,
        "betti.homology_misses": misses,
        "betti.cache_hit_ratio": 1 - misses / kept if kept else 0.0,
        "paths.enumerate_placements.s": t["paths.enumerate_placements"],
        "paths.enumerate_placements.yielded": n["paths.enumerate_placements.yielded"],
        "paths.build_run_complement.s": t["paths.build_run_complement"],
    }
    for name in ("complexes.complement", "complexes.faces_of_dim", "homology.reduced_homology_dims",
                 "homology.boundary_matrices", "homology.matrix_rank.qq", "homology.matrix_rank.gfp"):
        out[name + ".s"] = t[name]
        out[name + ".calls"] = c[name]
    for name in ("complexes.faces_of_dim.faces", "homology.matrix_rank.qq.cells",
                 "homology.matrix_rank.gfp.cells"):
        out[name] = n[name]
    return out
