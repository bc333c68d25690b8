import itertools
import math
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import lvfi
from lvfi import expr as ex
from lvfi import model, verify
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
    s = make_system(b=(0, 0), A=((0, 0), (0, 0)), e=(-1, 0))  # x1 goes negative
    tr = integrate(s, (0.5, 1.0), 1.0, 1e-3)
    h = ex.Pow(ex.Var(0), Fraction(1, 2))
    with pytest.raises(ex.EvalDomainError) as err:
        conservation_report(h, tr)
    assert "x1^(1/2)" in str(err.value)
    # the point prints as plain floats, not numpy scalars
    bad = next(k for k, x in enumerate(tr.states[:, 0]) if x < 0)
    point = (float(tr.states[bad, 0]), float(tr.states[bad, 1]))
    assert str(err.value).endswith(f"at point {point}")


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


# Float systems whose zeros decide bits: the kernel leaves out zero-coefficient
# terms, which must not change a sign of zero, a rounding or the step at which
# a non-finite state is reported.
@pytest.mark.parametrize(
    "b, A, e, x0, t_end, h",
    [
        ((1.0, -0.5), ((-0.0, -1.0), (0.5, -0.0)), (-0.0, 0.0), (0.5, 1.0), 1.0, 1e-2),
        ((1.0, -1.0), ((0.0, -1.0), (1.0, 0.0)), (0.0, 0.0), (-0.0, 1.0), 1.0, 1e-2),
        ((-0.0, 0.0), ((0.0, -5e-324), (0.0, 0.0)), (-0.0, 0.0), (-0.0, 0.25), 1.0, 1e-2),
        (
            (0.0, 1.0, -1.0),
            ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.5, -0.0)),
            (0.0, 0.0, 0.0),
            (1e150, 0.5, 2.0),
            100.0,
            10.0,
        ),
        ((-0.0, 0.0), ((0.0, -0.0), (-0.0, 0.0)), (0.0, -0.0), (-0.0, 1.5), 1.0, 1e-2),
        # every kept term of the first row (the second in 3D) is -0.0: b_i =
        # -0.0 plus their sum is +0.0 only with the sum's leading 0.0, and
        # b_i = +0.0 plus it is +0.0 either way
        ((-0.0, 1.0), ((0.0, 1.0), (0.5, 0.0)), (-0.0, -0.0), (-0.0, -0.0), 1.0, 1e-2),
        (
            (0.0, -0.0, 1.0),
            ((0.0, 0.0, 0.0), (-5e-324, 0.0, 1.0), (0.0, 0.0, 0.0)),
            (0.0, -0.0, -0.0),
            (0.25, -0.0, -0.0),
            1.0,
            1e-2,
        ),
        ((0.0, 1.0), ((0.0, 1.0), (0.5, 0.0)), (-0.0, -0.0), (-0.0, -0.0), 1.0, 1e-2),
    ],
    ids=["negative-zero-coefficients", "negative-zero-start", "subnormal-product",
         "overflow-beside-zero-coefficients", "zero-field-2d", "negative-zero-b-2d",
         "negative-zero-b-3d", "positive-zero-b-2d"],
)
def test_rk4_kernel_is_bit_identical_to_reference_on_float_edge_cases(b, A, e, x0, t_end, h):
    s = make_system(b=b, A=A, e=e, kind=model.FLOAT)
    assert _rk4_run(s, x0, t_end, h)[0] == _ref_run(s, x0, t_end, h)[0]
    field = array("d", model.rhs_floats(s)(*x0)[: s.dim]).tobytes()
    assert field == array("d", _ref_rhs_floats(s)(x0)).tobytes()


def _source(b, A, e, x0=None):
    s = make_system(b=b, A=A, e=e, kind=model.FLOAT)
    x0 = (1.0,) * s.dim if x0 is None else x0
    return verify._rk4_source(*verify._rk4_key(s.dim, model.field_coefficients(s), x0))


def test_rk4_source_depends_only_on_the_zero_pattern():
    # the kernel key: which a_ij are nonzero, which b_i are -0.0, and which
    # b_i and e_i are +0.0
    A = ((0.0, 2.5, 0.0), (1.0, 0.0, -3.0), (0.0, 0.0, 7.0))
    one = _source((1.5, 0.0, 3.0), A, (0.0, 1.0, -0.0))
    two = _source(
        (-4.0, 0.0, 0.5), ((-0.0, 9.0, 0.0), (-2.0, 0.0, 1e-300), (0.0, -0.0, 3.0)), (0.0, -2.0, 7.0)
    )
    assert one == two
    for value in ("2.5", "1.5", "3.0", "7.0", "1e-300"):
        assert value not in one
    assert _source((1.5, 0.0, 3.0), ((1.0, 2.5, 0.0), *A[1:]), (0.0, 1.0, -0.0)) != one
    # a +0.0 e_i leaves out its row's + e_i; a -0.0 or nonzero one keeps it
    assert _source((1.5, 0.0, 3.0), A, (0.5, 1.0, -0.0)) != one
    assert _source((1.5, 0.0, 3.0), A, (0.0, 1.0, 0.0)) != one
    # a zero b_i: +0.0 is left out, -0.0 keeps b_i and the sum's leading 0.0
    plus = _source((0.0, 2.0, 3.0), A, (0.0, 1.0, 0.0))
    minus = _source((-0.0, 2.0, 3.0), A, (0.0, 1.0, 0.0))
    nonzero = _source((5.0, 2.0, 3.0), A, (0.0, 1.0, 0.0))
    assert len({plus, minus, nonzero}) == 3
    assert "k1_0 = x0 * (a01 * x1)\n" in plus
    assert "k1_0 = x0 * (b0 + (0.0 + a01 * x1))\n" in minus
    assert "k1_0 = x0 * (b0 + (a01 * x1))\n" in nonzero
    # a row without a-terms keeps x_i * b_i, whatever b_i is
    assert "k1_1 = x1 * b1\n" in _source((1.0, 0.0), ((0.0, 1.0), (0.0, 0.0)), (0.0, 0.0))


def test_systems_with_one_zero_pattern_share_one_compiled_kernel(monkeypatch):
    compiled = []

    def counted(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    # module globals shadow the builtin for the generated-source compiles
    monkeypatch.setattr(verify, "compile", counted, raising=False)
    monkeypatch.setattr(model, "compile", counted, raising=False)
    verify._rk4_kernel.cache_clear()
    model._field_maker.cache_clear()
    one = make_system(b=(1, -1, 2), A=((0, 3, 0), (-1, 0, 2), (0, 1, 0)), e=(0, 1, 0))
    two = make_system(b=(-2, 5, 1), A=((0, -7, 0), (4, 0, 1), (0, 9, 0)), e=(0, 3, 0))
    other = make_system(b=(1, -1, 2), A=((1, 3, 0), (-1, 0, 2), (0, 1, 0)), e=(0, 1, 0))
    # one's zero_pattern with another +0.0 e mask: a kernel of its own, the
    # field of rhs_floats shared
    other_e = make_system(b=(1, -1, 2), A=((0, 3, 0), (-1, 0, 2), (0, 1, 0)), e=(2, 1, 0))
    start, negative_zero_start = (0.5, 0.5, 0.5), (0.5, -0.0, 0.5)
    for s, x0 in ((one, start), (two, start), (other, start), (other_e, start),
                  (one, negative_zero_start), (two, negative_zero_start)):
        # the shared kernel reads each system's own coefficients
        assert _rk4_run(s, x0, 0.5, 1e-2)[0] == _ref_run(s, x0, 0.5, 1e-2)[0]
        assert model.rhs_floats(s)(*x0) == tuple(_ref_rhs_floats(s)(x0))
    assert compiled == ["<rk4>", "<rhs_floats>", "<rk4>", "<rhs_floats>", "<rk4>", "<rk4>"]

    def kernel(s, x0):
        return verify._rk4_kernel(*verify._rk4_key(3, model.field_coefficients(s), x0))

    assert kernel(one, start) is kernel(two, start)
    assert kernel(one, negative_zero_start) is kernel(two, negative_zero_start)
    assert kernel(one, start) is not kernel(one, negative_zero_start)
    assert len(compiled) == 6


def test_negative_zero_start_keeps_every_row_full():
    b, A, e = (0.0, 1.0), ((0.0, 1.0), (-1.0, 0.0)), (0.0, 0.0)
    for x0 in ((-0.0, 1.0), (1.0, -0.0)):
        source = _source(b, A, e, x0)
        # the source of a system without a +0.0 b_i or e_i
        assert source == _source((0.5, 1.0), A, (0.5, 0.5))
        for i in range(2):
            assert f"k1_{i} = x{i} * (b{i} + (a{i}{1 - i} * x{1 - i})) + e{i}\n" in source
    assert "+ e" not in _source(b, A, e, (0.0, 1.0))
    # the masks matter: the specialised kernel from a -0.0 start is not the
    # reference, so the key must not give it there
    s = make_system(b=b, A=A, e=e, kind=model.FLOAT)
    arguments = model.field_coefficients(s)
    x0 = (-0.0, 1.0)
    rk4 = verify._rk4_kernel(*verify._rk4_key(2, arguments, (0.0, 1.0)))
    buf = array("d", [0.0]) * (3 * 101)
    buf[:2] = array("d", x0)
    assert rk4(buf, 100, 1e-2, verify.BLOWUP_LIMIT, *x0, *arguments) == (100, False)
    states = array("d", [v for k in range(101) for v in buf[3 * k : 3 * k + 2]]).tobytes()
    _, ref_states, _, _ = _ref_rk4(_ref_rhs_floats(s), list(x0), 1.0, 1e-2)
    assert states != ref_states.tobytes()
    assert _rk4_run(s, x0, 1.0, 1e-2)[0] == _ref_run(s, x0, 1.0, 1e-2)[0]


_ZERO_MIXES = [(b, e) for b in (0.0, -0.0, 1.5) for e in (0.0, -0.0, -0.75)]
_MIX_STARTS = {
    2: [(0.5, 1.25), (-0.0, 1.25), (0.0, -0.75), (4e7, -6e7), (1e200, -3e200)],
    3: [(0.5, 1.25, 0.75), (0.75, -0.0, -0.0), (0.0, -0.5, 1.0), (4e7, -6e7, 5e7),
        (1e200, 2.0, -3e200)],
}
_MIX_MATRICES = {
    2: [((0.0, -1.0), (0.5, -0.0)), ((-0.0, 0.0), (0.5, -1.0))],
    # the second row has no a-terms
    3: [((0.0, -1.0, 0.5), (-0.0, 0.0, 0.0), (1.0, -0.0, -2.0))],
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_kernel_is_bit_identical_to_reference_on_every_zero_mix_of_b_and_e(dim):
    outcomes = {"finite": 0, "blew_up": 0, "non-finite": 0}
    for A in _MIX_MATRICES[dim]:
        for rows in itertools.product(_ZERO_MIXES, repeat=dim):
            b, e = zip(*rows)
            s = make_system(b=b, A=A, e=e, kind=model.FLOAT)
            for x0 in _MIX_STARTS[dim]:
                new = _rk4_run(s, x0, 0.1, 1e-2)[0]
                assert new == _ref_run(s, x0, 0.1, 1e-2)[0], (b, A, e, x0)
                kind = "non-finite" if isinstance(new, str) else "blew_up" if new[-1] else "finite"
                outcomes[kind] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_trajectory_annotations_resolve():
    import typing

    assert set(typing.get_type_hints(verify.Trajectory)) >= {"times", "states", "steps"}


def _clear_one_by_one(x, log_args):
    """The log guard as a loop over the arguments, stopping at the first that
    is off its domain or within 1e-6 of zero."""
    for arg in log_args:
        try:
            if abs(ex.eval_expr(arg, x)) < 1e-6:
                return False
        except ex.EvalDomainError:
            return False
    return True


def _guard_outcome(clear, *args):
    try:
        return clear(*args)
    except OverflowError as exc:
        return str(exc)


NEAR_ZERO = ex.Add((ex.Var(0), ex.Const(-0.5)))
OVERFLOWS = ex.Exp(ex.Var(1))


@pytest.mark.parametrize(
    "log_args",
    [
        [NEAR_ZERO, OVERFLOWS],  # the loop stops before the overflow
        [OVERFLOWS, NEAR_ZERO],  # the overflow comes first
        [ex.LnAbs(ex.Var(0)), OVERFLOWS],
        [ex.Var(2), ex.Pow(ex.Var(0), Fraction(-1, 2)), OVERFLOWS],
        [ex.Var(0), ex.Var(2)],
        [],
    ],
)
def test_log_guard_answers_as_the_one_by_one_loop(log_args):
    guards = [ex.compile_floats([arg]) for arg in log_args]
    for x in [(0.5, 800.0, 1.0), (0.5, 1.0, 1.0), (2.0, 800.0, 0.0), (-1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]:
        assert _guard_outcome(verify._clear_of_logs, x, guards) == _guard_outcome(
            _clear_one_by_one, x, log_args
        )
