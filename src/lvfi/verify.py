"""Numerical verification: Lie-derivative sampling and conservation along
integrated trajectories.

The Lie metric is normalized, max |f . grad H| / ((1 + |f|)(1 + |grad H|)),
so tolerances are scale-free across parameter magnitudes.  Trajectories come
from classical fixed-step RK4 or an embedded Dormand-Prince 4(5) adaptive
integrator; both stop early with a flag when the state escapes (constant-term
LV systems can blow up in finite time).  RK4, RK45 and the Lie check share
one field evaluator, ``model.rhs_floats``.

The RK4 kernel is a generated step loop: the field rows are written inline
from ``model.field_row``, the template ``rhs_floats`` is built from.  A row
keeps only the a_ij*x_j terms whose float coefficient is nonzero, and its
sum starts with the 0.0 of the full row's sum only where b_i is -0.0, the
one b_i whose sum with it the 0.0 can change.  Unless the start point has a
-0.0 component, a b_i or an e_i that is +0.0 is left out as well (the e = 0
cases R2D-C and L3-L5 are half of the benchmark's verify corpus, and 37 of
its 42 systems have some e_i = 0): that changes a row at most in the sign
of a zero, which no stage value and no state can show (``_rk4`` gives the
argument).  The source depends only on the key of ``_rk4_key``: the
dimension, ``model.zero_pattern`` (which a_ij are nonzero and which b_i are
-0.0) and which b_i and e_i are +0.0.  It is compiled once per key and kept
(``_rk4_kernel``, at most 24^2 + 48^3 kernels); a compile costs 0.5-0.8 ms,
more than a short trajectory.  The field of ``rhs_floats`` keeps every
b_i and e_i and is compiled once per zero_pattern.  The coefficients are
arguments.  State components are locals, a 2D system has no third
coordinate, and states go to one preallocated buffer.  The blow-up test is
one chained comparison per component, low <= x_i <= limit with low =
-limit: it holds exactly where abs(x_i) <= limit does, NaN failing both,
without a call to abs.  Its arithmetic, and so every drift it reports, is
bit-identical to the list-based loop on the full rows; ``_rk4`` gives the
argument and ``tests/test_verify.py`` keeps that loop as the reference.
Over one trajectory of each of the 42 systems of the benchmark's verify
corpus from all-ones (h = 1e-3, t_end = 10, compilation included) a step
costs 1.8-2.2 us (CPython 3.11, 2-core Xeon; the range spans the host's
speed between runs).  Leaving out the +0.0 b_i and e_i took about a tenth
off the step: with the full-row and the specialised kernel of each system
alternated in one process (best of 9 runs each, compilation excluded), a
step took 1110 against 999 ns and 1218 against 1115 ns in two passes,
median ratios over the 42 systems 1.10 and 1.12.  Leaving out the leading
0.0 and the calls to abs had taken about a tenth off before that (median
ratios 1.10 and 1.14), and those two changes made the loop 1.5-1.7x faster
than the unrolled loop that called the field closure.  It is not a numpy
batch: a ``detect`` call integrates one to five start points, and a numpy
RK4 step costs about 35 us for any batch up to 128 rows, so numpy pays only
from about 13 rows.  The update doubles with the float 2.0, which CPython
3.11 multiplies on its float-only fast path (2 * k converts 2 to the same
2.0; from all-ones over the benchmark's verify corpus, 5.80 against 6.26 ms
of RK4 per system), and the state buffer is a repeated one-element array
(6-7 us a call, against 120-160 us to fill it from a zeroed bytes object).

The Lie check runs built code as well, but closures and not generated
source: ``expr.compile_floats`` turns the gradient of H into one closure
tree and each log argument into one of its own, with ``eval_expr``'s
arithmetic and errors bit for bit, once per call.  It evaluates them at 50
points, too few to repay compiling source (0.3-0.4 ms for a gradient).
``lvfi detect`` builds the field once per system for all its checks.
Over the 59 detections of the benchmark's verify corpus a check that builds
its own field costs 0.75-0.92 ms against 0.98-1.39 ms for the tree walk
(best of 7 passes, five alternating processes each, CPython 3.11, 2-core
Xeon, ranges spanning the host's speed).

numpy is imported by the trajectory functions that use it, so importing lvfi
for exact detection and the Lie check does not load it (numpy is about half
of the import time and a fifth of the resident memory of such a process).
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from operator import mul
from typing import Any

from . import expr as ex
from .model import (
    FIELD_PARAMETERS,
    LVSystem,
    field_coefficients,
    field_row,
    rhs_floats,
    zero_pattern,
)
from .record import Record

BLOWUP_LIMIT = 1e8


class DomainViolation(ValueError):
    pass


class Trajectory(Record):
    __slots__ = ("times", "states", "method", "step", "steps", "blew_up")
    times: Any  # numpy array, (steps + 1,)
    states: Any  # numpy array, (steps + 1, dim)
    method: str
    step: float
    steps: int
    blew_up: bool

    def __init__(self, times, states, method, step, steps, blew_up=False):
        self.times = times
        self.states = states
        self.method = method
        self.step = step
        self.steps = steps
        self.blew_up = blew_up


class ConservationReport(Record):
    __slots__ = ("H0", "max_abs_drift", "max_rel_drift", "lie_max", "sample_count", "blew_up")
    H0: float
    max_abs_drift: float
    max_rel_drift: float
    lie_max: float | None
    sample_count: int
    blew_up: bool

    def __init__(self, H0, max_abs_drift, max_rel_drift, lie_max=None, sample_count=0,
                 blew_up=False):
        self.H0 = H0
        self.max_abs_drift = max_abs_drift
        self.max_rel_drift = max_rel_drift
        self.lie_max = lie_max
        self.sample_count = sample_count
        self.blew_up = blew_up

    def to_json_obj(self) -> dict:
        return {
            "H0": self.H0,
            "max_abs_drift": self.max_abs_drift,
            "max_rel_drift": self.max_rel_drift,
            "lie_max": self.lie_max,
            "sample_count": self.sample_count,
            "blew_up": self.blew_up,
        }


def _sample_point(rng, dim, region, guards, retries=100):
    lo, hi = region
    for _ in range(retries):
        x = tuple(lo + (hi - lo) * rng.random() for _ in range(dim))
        if _clear_of_logs(x, guards):
            return x
    raise DomainViolation(
        f"could not sample a point clear of log singularities in {region}"
    )


def _clear_of_logs(x, guards) -> bool:
    """Whether every log argument is defined at x and none is within 1e-6
    of zero.

    guards holds one compile_floats([arg]) per log argument.  They are tested
    in order and the first that fails decides, so an argument after it is
    never evaluated (and cannot overflow).
    """
    for guard in guards:
        try:
            (v,) = guard(x)
        except ex.EvalDomainError:
            return False
        if abs(v) < 1e-6:
            return False
    return True


def lie_check(
    h: ex.Expr,
    s: LVSystem,
    n: int = 50,
    region: tuple[float, float] = (0.1, 10.0),
    seed: int = 42,
    field=None,
) -> float:
    """Max normalized |f . grad H| over n seeded-uniform points.

    field is the system's field, rhs_floats(s), for a caller that checks
    several integrals of one system; without it the field is built here.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = random.Random(seed)
    f = rhs_floats(s) if field is None else field
    grad = ex.compile_floats([ex.diff(h, i) for i in range(s.dim)])
    guards = [ex.compile_floats([arg]) for arg in ex.log_arguments(h)]
    worst = 0.0
    for _ in range(n):
        x = _sample_point(rng, s.dim, region, guards)
        fx = f(*x)[: s.dim]
        gx = grad(x)
        dot = sum(map(mul, fx, gx))
        nf = math.sqrt(sum(map(mul, fx, fx)))
        ng = math.sqrt(sum(map(mul, gx, gx)))
        val = abs(dot) / ((1.0 + nf) * (1.0 + ng))
        worst = max(worst, val)
    return worst


def _rk4_source(dim: int, pattern, zero_b, zero_e) -> str:
    """Source of the RK4 step loop for a dim-component field whose padded
    coefficients have the given model.zero_pattern, and whose b_i and e_i
    are +0.0 where zero_b[i] and zero_e[i] hold (those terms are left out;
    see _rk4 for when that is allowed).

    The loop is rk4(buf, n, h, limit, x0, .., *FIELD_PARAMETERS) -> (steps,
    blew_up).  Each stage writes the field rows inline (model.field_row) on
    the stage values u_i = x_i + (0.5*h)*k_i (h*k3_i for the last stage), the
    update is x_i + (h/6)*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i), and each state
    goes to buf at stride 3 (2.0 and not 2: the product is the same, and
    CPython specializes only float * float).  A 2D loop has no third
    coordinate: its column of buf keeps the 0.0 it starts with.
    """
    c = range(dim)
    x = [f"x{i}" for i in c]
    u = [f"u{i}" for i in c]

    def rows(stage, at):
        return [f"k{stage}_{i} = {field_row(i, pattern, at, zero_b[i], zero_e[i])}" for i in c]

    body = rows(1, x)
    for stage, step in ((2, "half"), (3, "half"), (4, "h")):
        body += [f"u{i} = x{i} + {step} * k{stage - 1}_{i}" for i in c]
        body += rows(stage, u)
    body += [f"x{i} = x{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in c]
    body.append("j += 3")
    body += [f"buf[j + {i}] = x{i}" if i else "buf[j] = x0" for i in c]
    body += [
        # one test per step: NaN fails every comparison, so it lands here too
        f"if not ({' and '.join(f'low <= x{i} <= limit' for i in c)}):",
        f"    if not ({' and '.join(f'isfinite(x{i})' for i in c)}):",
        '        raise DomainViolation(f"non-finite state at t = {k * h}")',
        "    return k, True",
    ]
    return (
        f"def rk4(buf, n, h, limit, {', '.join(x)}, {FIELD_PARAMETERS}):\n"
        "    half, sixth, low = 0.5 * h, h / 6.0, -limit\n"
        "    j = 0\n"
        "    for k in range(1, n + 1):\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return n, False\n"
    )


@lru_cache(maxsize=None)
def _rk4_kernel(dim: int, pattern: tuple[tuple[bool, ...], ...], zero_b: tuple[bool, ...],
                zero_e: tuple[bool, ...]):
    """The RK4 step loop of _rk4_source, compiled once per dimension,
    zero_pattern of the padded coefficients and +0.0 masks of b and e (at
    most 24^2 + 48^3 of them: per row, b_i is -0.0, +0.0 or neither, e_i is
    +0.0 or not, and dim bits say which a_ij are nonzero)."""
    namespace = {"DomainViolation": DomainViolation, "isfinite": math.isfinite}
    exec(compile(_rk4_source(dim, pattern, zero_b, zero_e), "<rk4>", "exec"), namespace)
    # popped, so that the loop and its globals form no reference cycle
    return namespace.pop("rk4")


def _rk4_key(dim: int, arguments, x0) -> tuple:
    """The _rk4_kernel key of the field with these coefficients (in
    FIELD_PARAMETERS order) from x0: the dimension, the zero_pattern, and
    which b_i and which e_i are +0.0, both masks all false when x0 has a
    -0.0 component."""
    if any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in x0):
        zero_b = zero_e = (False,) * dim
    else:
        zero_b, zero_e = (
            tuple(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in values)
            for values in (arguments[:dim], arguments[3 : 3 + dim])
        )
    return dim, zero_pattern(arguments), zero_b, zero_e


def _rk4(s, x0, t_end, h):
    """Fixed-step RK4 of the field of s from x0 over [0, t_end].

    Returns (times, states, steps, blew_up), states a (steps + 1, dim) view
    of the buffer.  The step loop is generated for the zero_pattern of the
    system's coefficients and for which b_i and e_i are +0.0 (_rk4_source),
    and compiled once per such key (_rk4_kernel); the coefficients are its
    arguments.  Its arithmetic is that of classical RK4 on the full field row
    x_i*(b_i + (0.0 + a_i0*x0 + a_i1*x1 + a_i2*x2)) + e_i, bit for bit,
    although terms with a zero coefficient, and the 0.0 unless b_i is -0.0,
    are left out:

    - While every stage value is finite, model.field_row gives the argument:
      a dropped term is +-0.0, and the leading 0.0 changes a row only for
      b_i = -0.0.
    - If a stage value x_j is non-finite, row j is x_j times something plus
      e_j and so non-finite whatever was dropped, and so is every later stage
      value of x_j and its update.  Both forms then raise the same
      DomainViolation at the same step, and what differs (the other
      components of that step) is never returned.

    Unless x0 has a -0.0 component, a b_i or e_i that is +0.0 is left out
    as well (model.field_row's zero_b and zero_e); from such a start the
    masks are all false and the rows are the ones above.  Leaving them out
    changes no bit of a returned state:

    - Round-to-nearest never yields -0.0 from x + y unless both are -0.0.
      Every stage value u_i = x_i + c*k_i and every state x_i + c*(...) is
      such a sum, so from a start with no -0.0 no stage value and no state
      is ever -0.0.
    - On the same stage values, leaving out + e_i for e_i = +0.0 changes a
      row only where the rest of it is -0.0, to -0.0 from +0.0.  Leaving
      out b_i = +0.0 changes the sum b_i + S only where S is -0.0, and then
      x_i times it only in the sign of a zero (for a non-finite x_i both
      products are NaN).  So a row k_i changes, if at all, only in the
      sign of a zero.
    - k_i enters only u_i = x_i + c*k_i (c = h/2 or h) and x_i's update
      x_i + (h/6)*(k1_i + 2.0*k2_i + 2.0*k3_i + k4_i).  Sums and products
      of values that change at most in the sign of a zero change at most
      in the sign of a zero, and adding +0.0 or -0.0 to x_i, which is not
      -0.0, gives the same value.  So u_i and the new x_i are unchanged,
      and so is every other row: rows read u_i, never k_i.
    - Non-finite values propagate as before: leaving out a +0.0 neither
      makes a non-finite row finite nor a finite row non-finite, so the
      same step raises the same DomainViolation or stops with blew_up.
    """
    import numpy as np

    n = max(1, int(round(t_end / h)))
    dim = s.dim
    arguments = field_coefficients(s)
    buf = array("d", [0.0]) * (3 * (n + 1))  # (n + 1, 3) states, row-major
    buf[:dim] = array("d", x0)
    rk4 = _rk4_kernel(*_rk4_key(dim, arguments, x0))
    steps, blew_up = rk4(buf, n, h, BLOWUP_LIMIT, *x0, *arguments)
    times = np.arange(steps + 1) * h
    states = np.frombuffer(buf).reshape(n + 1, 3)[: steps + 1, :dim]
    return times, states, steps, blew_up


# Dormand-Prince 4(5) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def _rk45(f, x0, t_end, h0, rtol=1e-9, atol=1e-12):
    import numpy as np

    dim = len(x0)
    t = 0.0
    x = list(x0)
    times = [0.0]
    states = [list(x0)]
    h = h0
    blew_up = False
    while t < t_end:
        h = min(h, t_end - t)
        ks = []
        for stage in range(7):
            xs = [
                x[i] + h * sum(_DP_A[stage][j] * ks[j][i] for j in range(stage))
                for i in range(dim)
            ]
            ks.append(f(*xs)[:dim])
        x5 = [
            x[i] + h * sum(_DP_B5[j] * ks[j][i] for j in range(7))
            for i in range(dim)
        ]
        x4 = [
            x[i] + h * sum(_DP_B4[j] * ks[j][i] for j in range(7))
            for i in range(dim)
        ]
        err = 0.0
        for i in range(dim):
            sc = atol + rtol * max(abs(x[i]), abs(x5[i]))
            err = max(err, abs(x5[i] - x4[i]) / sc)
        if err <= 1.0:
            t += h
            x = x5
            times.append(t)
            states.append(list(x))
            if not all(math.isfinite(v) for v in x):
                raise DomainViolation(f"non-finite state at t = {t}")
            if max(abs(v) for v in x) > BLOWUP_LIMIT:
                blew_up = True
                break
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise DomainViolation("step size underflow in rk45")
    return np.array(times), np.array(states), len(times) - 1, blew_up


def integrate(
    s: LVSystem,
    x0,
    t_end: float,
    h: float = 1e-3,
    method: str = "rk4",
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the LV field from x0; stops early (flagged) on blow-up."""
    import numpy as np

    if h <= 0 or t_end <= 0:
        raise ValueError("h and t_end must be positive")
    x0 = [float(v) for v in x0]
    if len(x0) != s.dim or not all(math.isfinite(v) for v in x0):
        raise ValueError("bad initial state")
    if method == "rk4":
        times, states, steps, blew_up = _rk4(s, x0, t_end, h)
    elif method == "rk45":
        times, states, steps, blew_up = _rk45(rhs_floats(s), x0, t_end, h, rtol, atol)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        method=method,
        step=h,
        steps=steps,
        blew_up=blew_up,
    )


def conservation_report(h: ex.Expr, tr: Trajectory) -> ConservationReport:
    """Drift of H along a trajectory relative to its initial value."""
    import numpy as np

    values = ex.eval_vec(h, np.asarray(tr.states, dtype=float))
    if not np.all(np.isfinite(values)):
        # locate the first violation for a useful error message
        bad = int(np.argmax(~np.isfinite(values)))
        # plain floats, so that the error message prints the point as numbers
        ex.eval_expr(h, tuple(tr.states[bad].tolist()))  # raises EvalDomainError
        raise DomainViolation(f"non-finite H at trajectory index {bad}")
    H0 = float(values[0])
    max_abs = float(np.max(np.abs(values - H0)))
    return ConservationReport(
        H0=H0,
        max_abs_drift=max_abs,
        max_rel_drift=max_abs / (1.0 + abs(H0)),
        sample_count=int(values.shape[0]),
        blew_up=tr.blew_up,
    )
