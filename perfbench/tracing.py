"""Spans around the public functions of each crowdwise layer.

``Tracer.install`` replaces every reference to a traced function, in every
crowdwise module that imported it, with one wrapper per function; for
example both ``crowdwise.cli.optimal_weights`` and
``crowdwise.diversity.optimal_weights``, and ``crowdwise.model.validate_model``
for the call from ``estimate_model``.  Wrappers pass results and exceptions
through unchanged.  Spans stay in memory with a link to their parent, so a
span's self time is its duration less that of its direct children, and the
self times of one op's spans add up to the op's ``cli.main`` span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import defaultdict

MODULES = ("cli", "model", "schemes", "wisdom", "diversity", "montecarlo")

# (defining module, function) -> span name
TRACED = {
    ("cli", "main"): "cli.main",
    ("cli", "ingest_csv"): "cli.ingest_csv",
    ("cli", "load_model"): "cli.load_model",
    ("cli", "read_candidates"): "cli.read_candidates",
    ("model", "estimate_model"): "model.estimate_model",
    ("model", "validate_model"): "model.validate_model",
    ("schemes", "optimal_weights"): "schemes.optimal_weights",
    ("schemes", "skill_scores"): "schemes.selection",
    ("schemes", "skill_weights"): "schemes.selection",
    ("schemes", "skill_selection"): "schemes.selection",
    ("schemes", "inverse_mse_weights"): "schemes.selection",
    ("schemes", "best_member_selection"): "schemes.selection",
    ("wisdom", "evaluate"): "wisdom.evaluate",
    ("diversity", "rank_candidates"): "diversity.rank_candidates",
    ("diversity", "extend_model"): "diversity.extend_model",
    ("montecarlo", "simulate"): "montecarlo.simulate",
}


def model_digest(model) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in (model.judge_means, model.judge_cov, model.cross_cov):
        h.update(array.tobytes())
    h.update(repr((model.criterion_mean, model.criterion_var)).encode())
    return h.hexdigest()


def _before(name: str, args, kwargs) -> dict:
    """Counts known from the arguments of a call."""
    if name == "schemes.optimal_weights":
        return {"model": model_digest(args[0] if args else kwargs["model"])}
    if name == "montecarlo.simulate":
        return {"trials": (args[0] if args else kwargs["spec"]).trials}
    return {}


def _after(name: str, result, counts: dict) -> None:
    """Counts known from the result of a call."""
    if name == "schemes.optimal_weights":
        counts["iterations"] = result.iterations
    elif name == "cli.ingest_csv":
        counts["rows"] = result.n_trials
    elif name == "diversity.rank_candidates":
        counts["failed"] = len(result.failures)
        counts["candidates"] = len(result.failures) + len(result.evaluations)


class Tracer:
    """Collects spans ``[op, span_id, parent_id, name, start_ns, end_ns, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = _before(name, args, kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [self.op, span_id, parent, name, 0, 0, counts]
            self.spans.append(record)
            self._stack.append(span_id)
            record[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter_ns()
                self._stack.pop()
            _after(name, result, counts)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for (module, func), name in TRACED.items():
            fn = getattr(importlib.import_module(f"crowdwise.{module}"), func)
            originals[id(fn)] = (fn, name)
        modules = [importlib.import_module("crowdwise")]
        modules += [importlib.import_module(f"crowdwise.{m}") for m in MODULES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, name = originals.get(id(value), (None, None))
                if fn is not value:
                    continue
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(name, fn)
                self._patches.append((module, attr, value))
                setattr(module, attr, self._wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, calls and counts over all spans,
    plus the number of distinct models solved within each op."""
    child_ns: dict[int, int] = defaultdict(int)
    for _op, _sid, parent, _name, start, end, _counts in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    distinct = set()
    for op, sid, _parent, name, start, end, counts in spans:
        layer = totals[name]
        layer["self_s"] += (end - start - child_ns[sid]) / 1e9
        layer["calls"] += 1
        for key, value in counts.items():
            if key == "model":
                distinct.add((op, value))
            else:
                layer[key] += value
    totals["schemes.optimal_weights"]["distinct"] = len(distinct)
    return totals
