"""Spans around the module-level names through which qmono's layers call each other.

The tracer replaces a name such as ``qmono.scan.conditional_entropy_qubit_batch``
with a wrapper that records a span (name, start, end, parent, units) in
memory, and puts the original back on ``uninstall``.  Nothing under ``src/``
changes.  Calls too frequent for a span each (one per objective evaluation:
``bell._mk_operator_from_angles`` and ``measures.unitary_from_angles``)
only bump a counter; a span keeps how far the counter moved while open.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

# A restart counts as reaching the best when its value is within this of the
# best one (MK values lie in [0, 2], conditional entropies in [0, 2] bits).
RESTART_AT_BEST_TOL = 1e-3


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    units: int = 0
    evals: int = 0
    value: float | None = None  # optimizer result (minimize spans)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _len0(args, out):
    return len(out[0]) if isinstance(out, tuple) else len(out)


def _one(args, out):
    return 1


def _cells(args, out):
    return len(args[0]) * len(args[1])


def _rows_arg(args, out):
    return len(args[0])


def _sample_n(args, out):
    return out.n


RESULT = "result"  # units marker: keep the optimizer result on the span instead


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    evals: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def _wrap(self, name, fn, units):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            evals0 = self.evals
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if units is RESULT:
                span.value = float(out.fun)
            else:
                span.units = units(args, out)
            span.evals = self.evals - evals0
            return out

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, qmono_modules) -> None:
        """Wrap every instrumented name; ``qmono_modules`` maps 'cli' etc. to modules."""
        for mod, attr, name, units in INSTRUMENTS:
            module = qmono_modules[mod]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapped = self._count(fn) if units is None else self._wrap(name, fn, units)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# (module, attribute, span name, units of work per call); units None = count only.
INSTRUMENTS = [
    ("cli", "main", "cli.main", _one),
    ("cli", "grid_scan", "scan.grid_scan", _len0),
    ("cli", "write_csv", "scan.write_csv", _rows_arg),
    ("cli", "sample_experiment", "scan.sample_experiment", _sample_n),
    ("cli", "surface_zero", "scan.surface_zero", _cells),
    ("cli", "path_trace", "scan.path_trace", _len0),
    ("cli", "delta_d", "monogamy.delta_d", _one),
    ("cli", "load_state", "qcore.load_state", _one),
    ("scan", "find_zero_crossings", "scan.find_zero_crossings", _one),
    ("scan", "family_states", "scan.family_states", _len0),
    ("scan", "haar_random_amplitudes", "states.haar_random_amplitudes", _len0),
    ("scan", "pure_scores_batch", "scan.pure_scores_batch", _len0),
    ("scan", "_marginals", "scan._marginals", _len0),
    ("scan", "conditional_entropy_qubit_batch", "measures.conditional_entropy_qubit_batch", _len0),
    ("scan", "ggm_batch", "scan.ggm_batch", _len0),
    ("scan", "delta_c_batch", "scan.delta_c_batch", _len0),
    ("scan", "concurrence_batch", "scan.concurrence_batch", _len0),
    ("scan", "mk_optimize", "bell.mk_optimize", _one),
    ("bell", "minimize", "bell.minimize", RESULT),
    ("bell", "_mk_operator_from_angles", None, None),
    ("monogamy", "discord", "monogamy.discord", _one),
    ("monogamy", "concurrence", "measures.concurrence", _one),
    ("monogamy", "partial_trace", "qcore.partial_trace", _one),
    ("monogamy", "vn_entropy", "qcore.vn_entropy", _one),
    ("measures", "partial_trace", "qcore.partial_trace", _one),
    ("measures", "vn_entropy", "qcore.vn_entropy", _one),
    ("measures", "_conditional_entropy_min_traced", "measures.conditional_entropy_min", _one),
    ("measures", "_minimize_dim4_side", "measures.dim4", _one),
    ("measures", "minimize", "measures.minimize", RESULT),
    ("measures", "unitary_from_angles", None, None),
]


# --- per-layer metrics ----------------------------------------------------------


class _Index:
    """Aggregates over spans, counting a name's outermost spans only."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s.parent, []).append(i)

    def _ancestors(self, i):
        p = self.spans[i].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def outer(self, name) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and all(self.spans[a].name != name for a in self._ancestors(i))
        ]

    def busy(self, name) -> float:
        return sum(self.spans[i].duration for i in self.outer(name))

    def units(self, name) -> int:
        return sum(self.spans[i].units for i in self.outer(name))

    def calls(self, name) -> int:
        return len(self.outer(name))

    def self_time(self, name) -> float:
        return sum(
            self.spans[i].duration - sum(self.spans[c].duration for c in self.children.get(i, []))
            for i in self.outer(name)
        )

    def under(self, name, ancestor) -> list[int]:
        return [
            i for i in self.outer(name)
            if any(self.spans[a].name == ancestor for a in self._ancestors(i))
        ]

    def restarts_at_best(self, name, child, best_of) -> tuple[int, int]:
        """(restarts within tolerance of the best, restarts run) over ``name`` spans."""
        hits = runs = 0
        for i in self.outer(name):
            vals = [self.spans[c].value for c in self.children.get(i, []) if self.spans[c].name == child]
            restarts, best = best_of(vals)
            runs += len(restarts)
            hits += sum(abs(v - best) <= RESTART_AT_BEST_TOL for v in restarts)
        return hits, runs


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _mk_restarts(vals):
    # every start is one exploration minimize; the last call is the polish
    return vals[:-1], min(vals)


def _dim4_restarts(vals):
    return vals, min(vals)


# name -> (unit, better)
PER_LAYER = {
    "measures.conditional_entropy_qubit_batch.us_per_state": ("us/state", "lower"),
    "scan.pure_scores_batch.us_per_state": ("us/state", "lower"),
    "scan.pure_scores_batch.states_per_call": ("states/call", "higher"),
    "scan.concurrence_batch.us_per_state": ("us/state", "lower"),
    "scan.delta_c_batch.us_per_state": ("us/state", "lower"),
    "scan.ggm_batch.us_per_state": ("us/state", "lower"),
    "scan._marginals.us_per_state": ("us/state", "lower"),
    "scan.family_states.us_per_state": ("us/state", "lower"),
    "states.haar_random_amplitudes.us_per_state": ("us/state", "lower"),
    "scan.grid_scan.self_us_per_point": ("us/point", "lower"),
    "scan.write_csv.us_per_row": ("us/row", "lower"),
    "scan.sample_experiment.self_us_per_state": ("us/state", "lower"),
    "scan.find_zero_crossings.kernel_calls_per_line": ("calls/line", "lower"),
    "scan.find_zero_crossings.states_per_line": ("states/line", "lower"),
    "scan.surface_zero.states_per_cell": ("states/cell", "lower"),
    "bell.mk_optimize.s_per_call": ("s/call", "lower"),
    "bell.mk_optimize.objective_evals_per_call": ("evals/call", "lower"),
    "bell.mk_optimize.us_per_eval": ("us/eval", "lower"),
    "bell.mk_optimize.restarts_at_best_ratio": ("ratio", "higher"),
    "measures.dim4.objective_evals_per_call": ("evals/call", "lower"),
    "measures.dim4.us_per_eval": ("us/eval", "lower"),
    "measures.dim4.restarts_at_best_ratio": ("ratio", "higher"),
    "measures.conditional_entropy_min.ms_per_call": ("ms/call", "lower"),
    "qcore.partial_trace.us_per_call": ("us/call", "lower"),
    "qcore.partial_trace.calls_per_op": ("calls/op", "lower"),
    "qcore.vn_entropy.us_per_call": ("us/call", "lower"),
    "monogamy.delta_d.self_ms": ("ms/call", "lower"),
    "cli.main.self_ms_per_op": ("ms/op", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(spans: list[Span], ops: int, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER value from the spans of ``ops`` traced operations.

    A layer the workload does not reach reads 0 (no calls, no time).
    """
    ix = _Index(spans)

    def us_per_unit(name):
        return 1e6 * _ratio(ix.busy(name), ix.units(name))

    kernel = "scan.pure_scores_batch"
    lines = ix.calls("scan.find_zero_crossings")
    line_kernels = ix.under(kernel, "scan.find_zero_crossings")
    cell_kernels = ix.under(kernel, "scan.surface_zero")
    mk = ix.outer("bell.mk_optimize")
    dim4 = ix.outer("measures.dim4")
    mk_evals = sum(spans[i].evals for i in mk)
    dim4_evals = sum(spans[i].evals for i in dim4)
    out = {
        "measures.conditional_entropy_qubit_batch.us_per_state":
            us_per_unit("measures.conditional_entropy_qubit_batch"),
        "scan.pure_scores_batch.us_per_state": us_per_unit(kernel),
        "scan.pure_scores_batch.states_per_call": _ratio(ix.units(kernel), ix.calls(kernel)),
        "scan.concurrence_batch.us_per_state": us_per_unit("scan.concurrence_batch"),
        "scan.delta_c_batch.us_per_state": us_per_unit("scan.delta_c_batch"),
        "scan.ggm_batch.us_per_state": us_per_unit("scan.ggm_batch"),
        "scan._marginals.us_per_state": us_per_unit("scan._marginals"),
        "scan.family_states.us_per_state": us_per_unit("scan.family_states"),
        "states.haar_random_amplitudes.us_per_state": us_per_unit("states.haar_random_amplitudes"),
        "scan.grid_scan.self_us_per_point":
            1e6 * _ratio(ix.self_time("scan.grid_scan"), ix.units("scan.grid_scan")),
        "scan.write_csv.us_per_row": us_per_unit("scan.write_csv"),
        "scan.sample_experiment.self_us_per_state":
            1e6 * _ratio(ix.self_time("scan.sample_experiment"), ix.units("scan.sample_experiment")),
        "scan.find_zero_crossings.kernel_calls_per_line": _ratio(len(line_kernels), lines),
        "scan.find_zero_crossings.states_per_line":
            _ratio(sum(spans[i].units for i in line_kernels), lines),
        "scan.surface_zero.states_per_cell":
            _ratio(sum(spans[i].units for i in cell_kernels), ix.units("scan.surface_zero")),
        "bell.mk_optimize.s_per_call": _ratio(ix.busy("bell.mk_optimize"), len(mk)),
        "bell.mk_optimize.objective_evals_per_call": _ratio(mk_evals, len(mk)),
        "bell.mk_optimize.us_per_eval": 1e6 * _ratio(ix.busy("bell.mk_optimize"), mk_evals),
        "bell.mk_optimize.restarts_at_best_ratio":
            _ratio(*ix.restarts_at_best("bell.mk_optimize", "bell.minimize", _mk_restarts)),
        "measures.dim4.objective_evals_per_call": _ratio(dim4_evals, len(dim4)),
        "measures.dim4.us_per_eval": 1e6 * _ratio(ix.busy("measures.dim4"), dim4_evals),
        "measures.dim4.restarts_at_best_ratio":
            _ratio(*ix.restarts_at_best("measures.dim4", "measures.minimize", _dim4_restarts)),
        "measures.conditional_entropy_min.ms_per_call":
            1e3 * _ratio(ix.busy("measures.conditional_entropy_min"), ix.calls("measures.conditional_entropy_min")),
        "qcore.partial_trace.us_per_call":
            1e6 * _ratio(ix.busy("qcore.partial_trace"), ix.calls("qcore.partial_trace")),
        "qcore.partial_trace.calls_per_op": _ratio(ix.calls("qcore.partial_trace"), ops),
        "qcore.vn_entropy.us_per_call":
            1e6 * _ratio(ix.busy("qcore.vn_entropy"), ix.calls("qcore.vn_entropy")),
        "monogamy.delta_d.self_ms":
            1e3 * _ratio(ix.self_time("monogamy.delta_d"), ix.calls("monogamy.delta_d")),
        "cli.main.self_ms_per_op": 1e3 * _ratio(ix.self_time("cli.main"), ix.calls("cli.main")),
        "trace.overhead_pct": overhead_pct,
    }
    assert out.keys() == PER_LAYER.keys()
    return out
