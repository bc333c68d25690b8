import math
import subprocess
import sys
from pathlib import Path

import pytest

import lvfi
from lvfi import expr as ex
from lvfi.catalog2d import detect2d
from lvfi.model import make_system, parse_system
from lvfi.verify import conservation_report, integrate, lie_check

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
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import lvfi, lvfi.cli\n"
        "s = lvfi.parse_system(sys.argv[2])\n"
        "h = lvfi.detect2d(s)[0].integral\n"
        "assert lvfi.lie_check(h, s) < 1e-10\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(lvfi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src, VOLTERRA],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
