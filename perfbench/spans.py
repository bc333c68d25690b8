"""Span tracer that wraps lvfi's layer entry points from outside the program.

Each wrapper is installed on the name its caller looks up at call time (for
example ``lvfi.detection.permute_system``, not ``lvfi.model.permute_system``),
so every call into a layer passes through exactly one wrapper.  The tracer
records only inside a per-system root span: corpus generation and the
benchmark's own correctness checks call the same functions and must not be
counted.

A missing name is an error, not a skipped layer: a refactor that renames or
moves an entry point must break the benchmark visibly instead of silently
reporting zero calls.
"""

from __future__ import annotations

import contextlib
import json
from operator import attrgetter
from time import perf_counter

# (span name, outcome metric or None).  The outcome metric is the share of
# calls with a useful result, measured where the work happens.
LAYERS = (
    ("model.parse_system", None),
    ("model.permute_system", None),
    ("detection.run_rules", None),
    ("detection.pattern_ok", "pass_ratio"),
    ("catalog.match", "yield"),
    ("catalog.compare_printed", None),
    ("linalg.solve_constrained", None),
    ("linalg.nullspace", None),
    ("oracle.residual", "zero_ratio"),
    ("potential.gradient_targets", None),
    ("potential.construct", None),
    ("potential.lie_gate", "zero_ratio"),
    ("potential.normalize", None),
    ("expr.eval_vec", None),
    ("verify.lie_check", None),
    ("verify.integrate", "blew_up_ratio"),
    ("verify.conservation_report", None),
    ("cli.main", None),
)


class PatchError(RuntimeError):
    """A layer entry point the benchmark wraps no longer exists."""


def _nonempty(result) -> bool:
    return len(result) > 0


def _all_zero(result) -> bool:
    comps = result if isinstance(result, list) else [result]
    return all(c.is_zero() for c in comps)


def patch_table():
    """(object, attribute, span name, outcome, extra counter) for every
    wrapped call site.  Imports lvfi lazily so an import failure surfaces
    where the benchmark reports it."""
    from lvfi import catalog2d, catalog3d, cli, detection, expr, linalg, oracle

    table = [
        (cli, "parse_system", "model.parse_system", None, None),
        (detection, "permute_system", "model.permute_system", None, None),
        (catalog2d, "run_rules", "detection.run_rules", None, None),
        (catalog3d, "run_rules", "detection.run_rules", None, None),
        (detection, "pattern_ok", "detection.pattern_ok", bool, None),
        (catalog2d, "solve_constrained", "linalg.solve_constrained", None, None),
        (catalog3d, "solve_constrained", "linalg.solve_constrained", None, None),
        (catalog3d, "nullspace", "linalg.nullspace", None, None),
        (linalg, "nullspace", "linalg.nullspace", None, None),
        (detection, "residual_2d", "oracle.residual", _all_zero, None),
        (detection, "residual_3d", "oracle.residual", _all_zero, None),
        # imported inside detection._gate_and_build, so looked up on oracle
        (oracle, "residual_2d_exponents", "oracle.residual", _all_zero, None),
        (detection, "gradient_targets_2d", "potential.gradient_targets", None, None),
        (detection, "gradient_targets_3d", "potential.gradient_targets", None, None),
        (detection, "potential", "potential.construct", None, None),
        (detection, "lie_genpoly", "potential.lie_gate", _all_zero, None),
        (detection, "normalize_for_output", "potential.normalize", None, None),
        (expr, "eval_vec", "expr.eval_vec", None, None),
        (cli, "lie_check", "verify.lie_check", None, None),
        (cli, "integrate", "verify.integrate", attrgetter("blew_up"),
         ("verify.integrate.steps", attrgetter("steps"))),
        (cli, "conservation_report", "verify.conservation_report", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    for rule in catalog2d.RULES_2D + catalog3d.RULES_3D:
        table.append((rule, "match", "catalog.match", _nonempty, None))
        if rule.compare_printed is not None:
            table.append((rule, "compare_printed", "catalog.compare_printed", None, None))
    return table


class Tracer:
    """Spans and per-layer aggregates, kept in memory until the run ends.

    Self time is a span's duration minus the time covered by its child
    spans, accumulated online.  Full span records are kept only while
    ``keep_spans`` is set, so long runs stay within memory.
    """

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child_s, id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.useful: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent, system, name, start, end)
        self.keep_spans = False
        self.system = None
        self._next_id = 0

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child_s, sid = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        if self.keep_spans:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append((sid, parent, self.system, name, start, end))

    @contextlib.contextmanager
    def system_span(self, system_id: int, keep: bool):
        """Root span of one processed system; layers record only inside it."""
        self.system = system_id
        self.keep_spans = keep
        frame = self.enter("system")
        try:
            yield
        finally:
            self.exit(frame)
            self.system = None
            self.keep_spans = False

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, system, name, start, end in self.spans:
                rec = {"id": sid, "parent": parent, "system": system,
                       "name": name, "start": start, "end": end}
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict:
        """{metric name: (value, unit)} for every layer in LAYERS.

        Counts and self times are per traced system, so they compare across
        versions even though a faster program fits more systems into a run
        of fixed length; ``trace.systems`` is their base.
        """
        systems = self.calls.get("system", 0)
        per = 1.0 / systems if systems else 0.0
        out = {"trace.systems": (systems, "count")}
        for name, ratio in LAYERS:
            calls = self.calls.get(name, 0)
            out[f"{name}.calls"] = (calls * per, "calls/system")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0) * per, "s/system")
            if ratio is not None:
                useful = self.useful.get(name, 0)
                out[f"{name}.{ratio}"] = (useful / calls if calls else 0.0, "ratio")
        steps = self.counters.get("verify.integrate.steps", 0)
        out["verify.integrate.steps"] = (steps * per, "steps/system")
        return out


def _wrap(tracer: Tracer, name: str, fn, outcome, counter):
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        # Outside a system span, or a direct recursive call (expr.eval_vec):
        # not a new layer crossing.
        if not stack or stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if outcome is not None and outcome(result):
            tracer.useful[name] = tracer.useful.get(name, 0) + 1
        if counter is not None:
            key, fn_count = counter
            tracer.counters[key] = tracer.counters.get(key, 0) + fn_count(result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.perfbench_span = name
    return wrapper


def _site(obj, attr: str) -> str:
    owner = getattr(obj, "__name__", None) or f"rule {obj.id}"
    return f"{owner}.{attr}"


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the
    original objects, also when the block raises."""
    installed = []
    try:
        for obj, attr, name, outcome, counter in patch_table():
            try:
                original = getattr(obj, attr)
            except AttributeError:
                raise PatchError(
                    f"{_site(obj, attr)} is missing; update perfbench/spans.py "
                    "for the moved entry point"
                ) from None
            if not callable(original) or hasattr(original, "perfbench_span"):
                raise PatchError(f"{_site(obj, attr)} is not an unwrapped callable")
            setattr(obj, attr, _wrap(tracer, name, original, outcome, counter))
            installed.append((obj, attr, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(installed):
            setattr(obj, attr, original)


def wrapped_sites() -> list[str]:
    """Call sites that currently hold a benchmark wrapper (empty when no
    traced block is active)."""
    return [
        _site(obj, attr)
        for obj, attr, _, _, _ in patch_table()
        if hasattr(getattr(obj, attr, None), "perfbench_span")
    ]
