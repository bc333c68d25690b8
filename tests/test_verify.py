import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lvfi
from lvfi import expr as ex
from lvfi import verify
from lvfi.catalog2d import SAMPLERS_2D, detect2d
from lvfi.catalog3d import SAMPLERS_3D, detect3d
from lvfi.model import make_system, parse_system
from lvfi.verify import DomainViolation, conservation_report, integrate, lie_check

from conftest import slowed

VOLTERRA = '{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}'


def _volterra_integral():
    s = parse_system(VOLTERRA)
    return s, [d for d in detect2d(s) if d.rule_id.startswith("R2D-C")][0].integral


def test_lie_check_constant_is_zero():
    s = parse_system(VOLTERRA)
    assert lie_check(ex.Const(1.0), s) == 0.0


def test_lie_check_volterra_integral_tiny():
    s, h = _volterra_integral()
    assert lie_check(h, s) <= 1e-12


def test_lie_check_non_integral_is_large():
    s = parse_system(VOLTERRA)
    assert lie_check(ex.Var(0), s) > 1e-2


def test_lie_check_deterministic_under_seed():
    s, h = _volterra_integral()
    a = lie_check(h, s, n=50, seed=7)
    b = lie_check(h, s, n=50, seed=7)
    c = lie_check(h, s, n=50, seed=8)
    assert a == b
    assert a != c  # different sample set virtually surely differs


def test_integrate_zero_field_constant_trajectory():
    s = make_system(b=(0, 0), A=((0, 0), (0, 0)), e=(0, 0))
    tr = integrate(s, (1.5, 2.5), 1.0, 1e-2)
    assert tr.states[0] == pytest.approx(tr.states[-1])
    rep = conservation_report(ex.Var(0), tr)
    assert rep.max_rel_drift == 0.0


def test_integrate_exponential_oracle():
    s = make_system(b=(1, 0), A=((0, 0), (0, 0)), e=(0, 0))
    tr = integrate(s, (1.0, 1.0), 1.0, 1e-3, "rk4")
    assert abs(tr.states[-1][0] - math.e) <= 1e-10 * math.e


def test_integrate_rk45_matches_rk4():
    s = parse_system(VOLTERRA)
    tr4 = integrate(s, (0.5, 1.0), 5.0, 1e-3, "rk4")
    tr45 = integrate(s, (0.5, 1.0), 5.0, 1e-2, "rk45")
    assert tr45.states[-1] == pytest.approx(tr4.states[-1], rel=1e-6)


def test_volterra_conservation_and_negative_control():
    s, h = _volterra_integral()
    tr = integrate(s, (0.5, 1.0), 10.0, 1e-3, "rk4")
    assert not tr.blew_up
    rep = conservation_report(h, tr)
    assert rep.max_rel_drift <= 1e-6
    bad = conservation_report(ex.Var(0), tr)
    assert bad.max_rel_drift > 1e-3


def test_rk4_order_halving_reduces_drift():
    # pick a rougher step so the error is far from the roundoff floor
    s, h = _volterra_integral()
    d1 = conservation_report(h, integrate(s, (0.2, 3.0), 10.0, 4e-2)).max_rel_drift
    d2 = conservation_report(h, integrate(s, (0.2, 3.0), 10.0, 2e-2)).max_rel_drift
    assert d1 > 1e-11
    assert d2 <= d1 / 8


def test_blowup_guard():
    # x1' = x1^2 escapes in finite time
    s = make_system(b=(0, 0), A=((1, 0), (0, 0)), e=(0, 0))
    tr = integrate(s, (2.0, 1.0), 10.0, 1e-3)
    assert tr.blew_up
    assert tr.times[-1] < 10.0


def test_conservation_domain_error_names_subexpression():
    from fractions import Fraction

    s = make_system(b=(0, 0), A=((0, 0), (0, 0)), e=(-1, 0))  # x1 goes negative
    tr = integrate(s, (0.5, 1.0), 1.0, 1e-3)
    h = ex.Pow(ex.Var(0), Fraction(1, 2))
    with pytest.raises(ex.EvalDomainError) as err:
        conservation_report(h, tr)
    assert "x1^(1/2)" in str(err.value)


def test_detection_and_lie_check_do_not_load_numpy():
    # sympy serves only as a test oracle: importing lvfi must not load it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import lvfi, lvfi.cli\n"
        "s = lvfi.parse_system(sys.argv[2])\n"
        "h = lvfi.detect2d(s)[0].integral\n"
        "assert lvfi.lie_check(h, s) < 1e-10\n"
        "print('numpy' in sys.modules, 'sympy' in sys.modules)\n"
    )
    src = str(Path(lvfi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src, VOLTERRA],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False False"


# Reference arithmetic: the list-based field and RK4 loop that the unrolled
# scalar kernel replaced.  A drift certifies only the arithmetic that produced
# it, so the kernel must reproduce these bit for bit.


def _ref_rhs_floats(s):
    b = [float(v) for v in s.b]
    A = [[float(v) for v in row] for row in s.A]
    e = [float(v) for v in s.e]
    n = s.dim

    def f(x):
        return [
            x[i] * (b[i] + sum(A[i][j] * x[j] for j in range(n))) + e[i]
            for i in range(n)
        ]

    return f


def _ref_rk4(f, x0, t_end, h):
    import numpy as np

    n = max(1, int(round(t_end / h)))
    dim = len(x0)
    times = np.empty(n + 1)
    states = np.empty((n + 1, dim))
    times[0] = 0.0
    states[0] = x0
    x = list(x0)
    blew_up = False
    steps = 0
    for k in range(n):
        k1 = f(x)
        k2 = f([x[i] + 0.5 * h * k1[i] for i in range(dim)])
        k3 = f([x[i] + 0.5 * h * k2[i] for i in range(dim)])
        k4 = f([x[i] + h * k3[i] for i in range(dim)])
        x = [
            x[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(dim)
        ]
        steps = k + 1
        times[steps] = (k + 1) * h
        states[steps] = x
        if not all(math.isfinite(v) for v in x):
            raise DomainViolation(f"non-finite state at t = {times[steps]}")
        if max(abs(v) for v in x) > verify.BLOWUP_LIMIT:
            blew_up = True
            break
    return times[: steps + 1], states[: steps + 1], steps, blew_up


def _ref_field_padded(s):
    """The reference field behind the three-argument interface of
    model.rhs_floats, for RK45 and the Lie check."""
    ref = _ref_rhs_floats(s)
    return lambda *x: ref(x[: s.dim])


def _bits(times, states, steps, blew_up):
    import numpy as np

    states = np.asarray(states)
    return times.tobytes(), states.shape, states.tobytes(), steps, blew_up


def _rk4_run(s, x0, t_end, h):
    """(bits, Trajectory) of integrate's RK4, or (DomainViolation message,
    None); _ref_run gives the same for the reference."""
    try:
        tr = integrate(s, x0, t_end, h)
        new = _bits(tr.times, tr.states, tr.steps, tr.blew_up)
    except DomainViolation as exc:
        return str(exc), None
    return new, tr


def _ref_run(s, x0, t_end, h):
    try:
        times, states, steps, blew_up = _ref_rk4(
            _ref_rhs_floats(s), [float(v) for v in x0], t_end, h
        )
    except DomainViolation as exc:
        return str(exc), None
    tr = verify.Trajectory(times, states, "rk4", h, steps, blew_up)
    return _bits(times, states, steps, blew_up), tr


def _report(h, tr):
    try:
        return conservation_report(h, tr).to_json_obj()
    except (DomainViolation, ex.EvalDomainError) as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_kernel_is_bit_identical_to_reference_on_samplers():
    rng = random.Random(1729)
    samplers = [(k, f) for k, f in {**SAMPLERS_2D, **SAMPLERS_3D}.items() if f]
    blown = compared = 0
    for key, sampler in samplers:
        for _ in range(2):
            raw = sampler(rng)
            x0 = (0.9, 1.1) if raw.dim == 2 else (1.3, 0.7, 1.1)
            for s in (raw, slowed(raw)):
                new, tr = _rk4_run(s, x0, 10.0, 1e-2)
                ref, ref_tr = _ref_run(s, x0, 10.0, 1e-2)
                assert new == ref, key
                if tr is None:
                    continue
                blown += tr.blew_up
                dets = detect2d(s) if s.dim == 2 else detect3d(s)
                if dets:
                    h = dets[0].integral
                    assert _report(h, tr) == _report(h, ref_tr), key
                    compared += 1
    assert blown > 0 and compared > 0


@pytest.mark.parametrize(
    "b, A, e, x0, t_end, h",
    [
        ((0, 0), ((1, 0), (0, 0)), (0, 0), (2.0, 1.0), 10.0, 1e-3),  # blow-up
        ((0, 0), ((0, 0), (0, 0)), (0, 0), (1.5, 2.5), 1.0, 1e-2),  # zero field
        ((0, 0, 0), ((1, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), (1e200, 1.0, 1.0), 1.0, 1e-3),
        ((0, 0), ((1, 0), (0, 0)), (0, 0), (-1e200, 1.0), 1.0, 1e-3),
    ],
    ids=["blow-up", "zero-field", "non-finite-3d", "non-finite-2d"],
)
def test_rk4_kernel_is_bit_identical_to_reference_on_edge_cases(b, A, e, x0, t_end, h):
    s = make_system(b=b, A=A, e=e)
    assert _rk4_run(s, x0, t_end, h)[0] == _ref_run(s, x0, t_end, h)[0]


def test_rk45_and_lie_check_match_reference_field(monkeypatch):
    import numpy as np

    rng = random.Random(11)
    s3 = SAMPLERS_3D["L2-iii"](rng)
    h3 = detect3d(s3)[0].integral
    s2, h2 = _volterra_integral()
    cases = [(s2, h2, (0.5, 1.0)), (s2, ex.Var(0), (0.5, 1.0)), (s3, h3, (0.5, 1.5, 0.8))]

    def run():
        out = []
        for s, h, x0 in cases:
            tr = integrate(s, x0, 2.0, 1e-2, "rk45")
            out.append((tr.times.tobytes(), np.asarray(tr.states).tobytes(), tr.steps))
            out.append(lie_check(h, s, n=20))
        return out

    new = run()
    monkeypatch.setattr(verify, "rhs_floats", _ref_field_padded)
    assert new == run()
