"""Outside-in layer tracing of ``mlfg`` by rebinding module-level names.

Each entry of ``BINDINGS`` names a function as it is bound in the module
that calls it (``mlfg.solvers.lu_solve`` and ``mlfg.verify.lu_solve`` are
the same function seen by two callers). While a :class:`Tracer` is
installed, every call through such a binding records a span
(name, parent span, start, end) and, for some layers, counters read from
the returned value. Spans stay in memory until :meth:`Tracer.dump`; the
original bindings are restored on exit, whatever happens. No file of the
program is changed.

:func:`layer_metrics` turns a dumped trace into the per-layer metrics of
the benchmark, normalised per solved game.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). Order matters only for readability.
BINDINGS = (
    ("mlfg.cli", "main", "cli.main"),
    ("mlfg.cli", "load_game", "model.load"),
    ("mlfg.cli", "homotopy_solve", "homotopy.solve"),
    ("mlfg.cli", "certify", "verify.certify"),
    ("mlfg.homotopy", "merit", "kkt.warm_merit"),
    ("mlfg.homotopy", "newton_solve", "solvers.newton"),
    ("mlfg.homotopy", "subgradient_solve", "solvers.subgrad"),
    ("mlfg.homotopy", "taylor_direction", "homotopy.predictor"),
    ("mlfg.solvers", "kkt_residual", "kkt.residual"),
    ("mlfg.solvers", "generalized_jacobian", "kkt.jacobian"),
    ("mlfg.solvers", "lu_solve", "solvers.lu"),
    ("mlfg.solvers", "armijo_search", "solvers.linesearch"),
    ("mlfg.kkt", "smoothed_gradient_stack", "smoothing.gradient"),
    ("mlfg.verify", "s_stationarity_certificate", "verify.sstat"),
    ("mlfg.verify", "best_response_qp_oracle", "verify.oracle"),
    ("mlfg.verify", "lu_solve", "verify.oracle_lu"),
)


# counters read from a layer's return value
RESULT_COUNTERS = {
    "solvers.newton": lambda r, c: c.update(
        {"solvers.newton_iters": r.iterations, "solvers.newton_fallbacks": r.fallback_steps}
    ),
    "solvers.subgrad": lambda r, c: c.update({"solvers.subgrad_iters": r.iterations}),
    "solvers.lu": lambda r, c: c.update({"solvers.lu_singular": r is None}),
    "homotopy.solve": lambda r, c: c.update({"homotopy.stages": len(r.stages)}),
}


class Tracer:
    """Span and counter recorder installed over ``BINDINGS``.

    Use as a context manager; spans are kept as parallel lists.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counters = self._stack, self.counters
        on_result = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(doc))


def span_totals(doc: dict) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct child
    spans; the program is single-threaded, so children never overlap.
    """
    names, parents = doc["names"], doc["parents"]
    dur = [e - s for s, e in zip(doc["starts"], doc["ends"])]
    child = [0.0] * len(names)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += dur[sid]
    totals: dict[str, dict[str, float]] = {}
    for sid, name in enumerate(names):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += dur[sid]
        t["self_s"] += dur[sid] - child[sid]
    return totals


def _calls_under(doc: dict, name: str, ancestors: set[str]) -> int:
    """Spans called ``name`` with an ancestor span whose name is in ``ancestors``."""
    names, parents = doc["names"], doc["parents"]
    count = 0
    for sid, n in enumerate(names):
        if n != name:
            continue
        p = parents[sid]
        while p >= 0 and names[p] not in ancestors:
            p = parents[p]
        count += p >= 0
    return count


# (metric, unit, better, span name, field) for metrics read off span totals
SPAN_METRICS = (
    ("model.load_calls", "1/game", "lower", "model.load", "calls"),
    ("model.load_s", "s/game", "lower", "model.load", "s"),
    ("smoothing.gradient_calls", "1/game", "lower", "smoothing.gradient", "calls"),
    ("smoothing.gradient_s", "s/game", "lower", "smoothing.gradient", "s"),
    ("kkt.residual_calls", "1/game", "lower", "kkt.residual", "calls"),
    ("kkt.residual_s", "s/game", "lower", "kkt.residual", "s"),
    ("kkt.residual_self_s", "s/game", "lower", "kkt.residual", "self_s"),
    ("kkt.jacobian_calls", "1/game", "lower", "kkt.jacobian", "calls"),
    ("kkt.jacobian_s", "s/game", "lower", "kkt.jacobian", "s"),
    ("kkt.warm_merit_s", "s/game", "lower", "kkt.warm_merit", "s"),
    ("solvers.newton_s", "s/game", "lower", "solvers.newton", "s"),
    ("solvers.newton_self_s", "s/game", "lower", "solvers.newton", "self_s"),
    ("solvers.subgrad_s", "s/game", "lower", "solvers.subgrad", "s"),
    ("solvers.subgrad_self_s", "s/game", "lower", "solvers.subgrad", "self_s"),
    ("solvers.lu_calls", "1/game", "lower", "solvers.lu", "calls"),
    ("solvers.lu_s", "s/game", "lower", "solvers.lu", "s"),
    ("solvers.linesearch_calls", "1/game", "lower", "solvers.linesearch", "calls"),
    ("solvers.linesearch_s", "s/game", "lower", "solvers.linesearch", "s"),
    ("homotopy.solve_s", "s/game", "lower", "homotopy.solve", "s"),
    ("homotopy.self_s", "s/game", "lower", "homotopy.solve", "self_s"),
    ("homotopy.predictor_calls", "1/game", "lower", "homotopy.predictor", "calls"),
    ("homotopy.predictor_s", "s/game", "lower", "homotopy.predictor", "s"),
    ("verify.certify_s", "s/game", "lower", "verify.certify", "s"),
    ("verify.sstat_s", "s/game", "lower", "verify.sstat", "s"),
    ("verify.oracle_calls", "1/game", "lower", "verify.oracle", "calls"),
    ("verify.oracle_s", "s/game", "lower", "verify.oracle", "s"),
    ("verify.oracle_self_s", "s/game", "lower", "verify.oracle", "self_s"),
    ("verify.oracle_lu_calls", "1/game", "lower", "verify.oracle_lu", "calls"),
    ("verify.oracle_lu_s", "s/game", "lower", "verify.oracle_lu", "s"),
    ("cli.main_s", "s/game", "lower", "cli.main", "s"),
    ("cli.self_s", "s/game", "lower", "cli.main", "self_s"),
)
# (metric, unit, better, counter) for metrics read off result counters
COUNTER_METRICS = (
    ("solvers.newton_iters", "1/game", "lower", "solvers.newton_iters"),
    ("solvers.newton_fallbacks", "1/game", "lower", "solvers.newton_fallbacks"),
    ("solvers.subgrad_iters", "1/game", "lower", "solvers.subgrad_iters"),
    ("solvers.lu_singular", "1/game", "lower", "solvers.lu_singular"),
    ("homotopy.stages", "1/game", "lower", "homotopy.stages"),
)
# metrics derived from several sources
DERIVED_METRICS = (
    ("solvers.step_accept_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_schema() -> list[dict]:
    """Every per-layer metric as a BENCHMARK.json ``per_layer`` entry."""
    rows = [m[:3] for m in SPAN_METRICS] + [m[:3] for m in COUNTER_METRICS] + list(DERIVED_METRICS)
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


def layer_metrics(doc: dict, games: int, overhead: float) -> dict[str, dict]:
    """Per-layer metrics of one traced run, each per solved game.

    ``games`` is the number of ``mlfg solve`` calls the trace covers and
    ``overhead`` the traced over untraced wall time minus one.
    """
    totals = span_totals(doc)
    counters = doc["counters"]
    units = {e["name"]: e["unit"] for e in per_layer_schema()}
    values: dict[str, float] = {}
    for metric, _, _, span, field in SPAN_METRICS:
        values[metric] = totals.get(span, {}).get(field, 0) / games
    for metric, _, _, counter in COUNTER_METRICS:
        values[metric] = counters.get(counter, 0) / games
    # accepted inner steps per residual evaluation made by the inner solvers
    inner = {"solvers.newton", "solvers.subgrad"}
    evaluations = _calls_under(doc, "kkt.residual", inner)
    accepted = counters.get("solvers.newton_iters", 0) + counters.get("solvers.subgrad_iters", 0)
    values["solvers.step_accept_ratio"] = accepted / evaluations if evaluations else 0.0
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": units[name]} for name in units}
