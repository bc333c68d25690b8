"""Numerical verification: Lie-derivative sampling and conservation along
integrated trajectories.

The Lie metric is normalized, max |f . grad H| / ((1 + |f|)(1 + |grad H|)),
so tolerances are scale-free across parameter magnitudes.  Trajectories come
from classical fixed-step RK4 or an embedded Dormand-Prince 4(5) adaptive
integrator; both stop early with a flag when the state escapes (constant-term
LV systems can blow up in finite time).  RK4, RK45 and the Lie check share
one field evaluator, ``model.rhs_floats``.

The RK4 kernel is scalar: one loop over three state components held in
locals, a 2D system run with a zero third coordinate (the padded field keeps
it at 0.0 and adds only exact zeros to the other two), and states written to
one preallocated buffer.  Its arithmetic, and so every drift it reports, is
bit-identical to the list-based loop it replaced; ``tests/test_verify.py``
keeps that loop as the reference.  It is not a numpy batch: a ``detect`` call
integrates one to five start points, and a numpy RK4 step costs about 35 us
for any batch up to 128 rows against about 2.6 us for a scalar step
(CPython 3.11, numpy 2.4, Xeon), so numpy pays only from about 16 rows.

numpy is imported by the trajectory functions that use it, so importing lvfi
for exact detection and the Lie check does not load it (numpy is about half
of the import time and a fifth of the resident memory of such a process).
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

from . import expr as ex
from .model import LVSystem, rhs_floats

BLOWUP_LIMIT = 1e8


class DomainViolation(ValueError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (steps, dim)
    method: str
    step: float
    steps: int
    blew_up: bool = False


@dataclass
class ConservationReport:
    H0: float
    max_abs_drift: float
    max_rel_drift: float
    lie_max: float | None = None
    sample_count: int = 0
    blew_up: bool = False

    def to_json_obj(self) -> dict:
        return {
            "H0": self.H0,
            "max_abs_drift": self.max_abs_drift,
            "max_rel_drift": self.max_rel_drift,
            "lie_max": self.lie_max,
            "sample_count": self.sample_count,
            "blew_up": self.blew_up,
        }


def _sample_point(rng, dim, region, log_args, retries=100):
    lo, hi = region
    for _ in range(retries):
        x = tuple(lo + (hi - lo) * rng.random() for _ in range(dim))
        ok = True
        for arg in log_args:
            try:
                if abs(ex.eval_expr(arg, x)) < 1e-6:
                    ok = False
                    break
            except ex.EvalDomainError:
                ok = False
                break
        if ok:
            return x
    raise DomainViolation(
        f"could not sample a point clear of log singularities in {region}"
    )


def lie_check(
    h: ex.Expr,
    s: LVSystem,
    n: int = 50,
    region: tuple[float, float] = (0.1, 10.0),
    seed: int = 42,
) -> float:
    """Max normalized |f . grad H| over n seeded-uniform points."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = random.Random(seed)
    f = rhs_floats(s)
    grads = [ex.diff(h, i) for i in range(s.dim)]
    log_args = ex.log_arguments(h)
    worst = 0.0
    for _ in range(n):
        x = _sample_point(rng, s.dim, region, log_args)
        fx = f(*x)[: s.dim]
        gx = [ex.eval_expr(g, x) for g in grads]
        dot = sum(a * b for a, b in zip(fx, gx))
        nf = math.sqrt(sum(a * a for a in fx))
        ng = math.sqrt(sum(a * a for a in gx))
        val = abs(dot) / ((1.0 + nf) * (1.0 + ng))
        worst = max(worst, val)
    return worst


def _rk4(f, x0, t_end, h):
    """Fixed-step RK4 from x0 over [0, t_end] with the three-component field f.

    Stages are x + (0.5*h)*k and the update x + (h/6)*(k1 + 2*k2 + 2*k3 + k4),
    componentwise in that association.  Returns (times, states, steps,
    blew_up), states a (steps + 1, dim) view of the buffer.
    """
    import numpy as np

    n = max(1, int(round(t_end / h)))
    dim = len(x0)
    x, y, z = list(x0) + [0.0] * (3 - dim)
    buf = array("d", bytes(24 * (n + 1)))  # (n + 1, 3) states, row-major
    buf[0], buf[1], buf[2] = x, y, z
    half, sixth, limit = 0.5 * h, h / 6.0, BLOWUP_LIMIT
    steps, blew_up = n, False
    j = 0
    for k in range(1, n + 1):
        k1x, k1y, k1z = f(x, y, z)
        k2x, k2y, k2z = f(x + half * k1x, y + half * k1y, z + half * k1z)
        k3x, k3y, k3z = f(x + half * k2x, y + half * k2y, z + half * k2z)
        k4x, k4y, k4z = f(x + h * k3x, y + h * k3y, z + h * k3z)
        x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
        z = z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z)
        j += 3
        buf[j] = x
        buf[j + 1] = y
        buf[j + 2] = z
        # one test per step: NaN fails every comparison, so it lands here too
        if not (abs(x) <= limit and abs(y) <= limit and abs(z) <= limit):
            steps = k
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise DomainViolation(f"non-finite state at t = {k * h}")
            blew_up = True
            break
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
    f = rhs_floats(s)
    if method == "rk4":
        times, states, steps, blew_up = _rk4(f, x0, t_end, h)
    elif method == "rk45":
        times, states, steps, blew_up = _rk45(f, x0, t_end, h, rtol, atol)
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
        ex.eval_expr(h, tuple(tr.states[bad]))  # raises EvalDomainError
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
