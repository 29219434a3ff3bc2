"""Spans around the public callables of each kerrcat module.

Each traced callable is replaced at the place its caller looks it up (a
module attribute, or a method on a class), so the program itself carries no
tracing code. A span records name, start, end, parent span and run id; the
spans stay in memory until the benchmark writes them out. A layer's self
time is its span's duration minus the durations of its direct children,
which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import asdict, dataclass
from time import perf_counter

# span name -> every place a caller looks the callable up ("module:attr" or
# "module:Class.method"). A place that no longer exists is skipped, so a
# later refactor that deletes a callable reports zero calls instead of
# breaking the benchmark.
SPANS = {
    "cli.main": ("kerrcat.cli:main",),
    "cli.load_config": ("kerrcat.cli:load_config",),
    "cli.cmd_qsurface": ("kerrcat.cli:cmd_qsurface",),
    "cli.cmd_evolve": ("kerrcat.cli:cmd_evolve",),
    "cli.cmd_validate": ("kerrcat.cli:cmd_validate",),
    "cli.cmd_sweep": ("kerrcat.cli:cmd_sweep",),
    "analytic_q.q_surface": ("kerrcat.cli:q_surface", "kerrcat.analytic_q:q_surface"),
    "lindblad.evolve": ("kerrcat.lindblad:evolve",),
    # building one EvolutionRecord: validation, coherence, fidelity, moments
    "lindblad.records": ("kerrcat.lindblad:_make_record",),
    "lindblad.q_from_rho": ("kerrcat.lindblad:q_from_rho",),
    "lindblad.integrate_matrix": ("kerrcat.lindblad:integrate_matrix",),
    # the validation the dataclass runs on every construction
    "fock.DensityOperator": ("kerrcat.fock:DensityOperator.__post_init__",),
    "fock.wigner": ("kerrcat.fock:wigner",),
    "fock.cat_state": ("kerrcat.fock:cat_state",),
    "fock.fidelity": ("kerrcat.fock:fidelity",),
    "analysis.coherence_metric": ("kerrcat.analysis:coherence_metric",),
    "analysis.wigner_slice": ("kerrcat.analysis:wigner_slice",),
    "analysis.fit_decoherence_time": ("kerrcat.analysis:fit_decoherence_time",),
    "trap_params.derive": ("kerrcat.trap_params:derive",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _resolve(place: str):
    """(owner, attribute) for "module:attr" or "module:Class.attr"; None if gone."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    ``run_id`` is set by the caller before each operation; every span opened
    while it is set carries it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self.max_series_order = 0
        self.q_points = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if name == "analytic_q.q_surface":
                self.q_points += result.values.size
            return result

        return traced

    def _order_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            order = fn(*args, **kwargs)
            self.max_series_order = max(self.max_series_order, int(order))
            return order

        return counted

    def _patch(self, place: str, make_wrapper) -> None:
        found = _resolve(place)
        if found is None:
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def __enter__(self):
        for name, places in SPANS.items():
            for place in places:
                self._patch(place, functools.partial(self._span_wrapper, name))
        # the series order is a count, not a span: its time stays with the caller
        self._patch("kerrcat.analytic_q:series_order", self._order_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANS}
        for span, children in zip(self.spans, child_time):
            entry = totals[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - children
        return totals

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
