import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfi import expr as ex

from conftest import random_expr


def test_eval_polynomial():
    h = ex.Mul((ex.Var(0), ex.Var(1)))
    assert ex.eval_expr(h, (2.0, 3.0)) == 6.0


def test_eval_volterra_integral_at_ones():
    # ln|x2| - x2 + ln|x1| - x1 at (1,1) -> -2
    h = ex.Add(
        (
            ex.LnAbs(ex.Var(1)),
            ex.Mul((ex.Const(-1), ex.Var(1))),
            ex.LnAbs(ex.Var(0)),
            ex.Mul((ex.Const(-1), ex.Var(0))),
        )
    )
    assert ex.eval_expr(h, (1.0, 1.0)) == -2.0


def test_eval_domain_error_fractional_power_of_negative():
    h = ex.Pow(ex.Var(0), Fraction(1, 2))
    with pytest.raises(ex.EvalDomainError):
        ex.eval_expr(h, (-1.0, 1.0))


def test_eval_domain_error_names_subexpression():
    h = ex.LnAbs(ex.Var(1))
    with pytest.raises(ex.EvalDomainError) as err:
        ex.eval_expr(h, (1.0, 0.0))
    assert "ln|x2|" in str(err.value)


def test_diff_constant_and_power_rule():
    assert ex.diff(ex.Const(Fraction(5)), 0) == ex.Const(Fraction(0))
    h = ex.Mul((ex.Pow(ex.Var(0), 2), ex.Var(1)))  # x1^2 x2
    d = ex.diff(h, 0)
    for x in [(1.0, 2.0), (0.5, 3.0), (2.0, 0.25)]:
        assert ex.eval_expr(d, x) == pytest.approx(2 * x[0] * x[1], rel=1e-12)


def _central_diff(h, x, i, step=1e-5):
    xp = list(x)
    xm = list(x)
    xp[i] += step
    xm[i] -= step
    return (ex.eval_expr(h, xp) - ex.eval_expr(h, xm)) / (2 * step)


def test_diff_matches_finite_differences_sampled():
    rng = random.Random(7)
    for _ in range(25):
        h = random_expr(rng, 2)
        for i in range(2):
            d = ex.diff(h, i)
            for _ in range(20):
                x = tuple(0.2 + 9.0 * rng.random() for _ in range(2))
                try:
                    got = ex.eval_expr(d, x)
                    want = _central_diff(h, x, i)
                except (ex.EvalDomainError, OverflowError):
                    continue
                assert abs(got - want) <= 1e-6 * (1.0 + abs(got))


def test_simplify_spec_examples():
    assert ex.simplify(ex.Add((ex.Const(Fraction(0)), ex.Var(0)))) == ex.Var(0)
    one = ex.simplify(ex.Mul((ex.Const(Fraction(1)), ex.Pow(ex.Var(1), 0))))
    assert one == ex.Const(Fraction(1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_simplify_idempotent_and_value_preserving(seed):
    rng = random.Random(seed)
    h = random_expr(rng, 2)
    s = ex.simplify(h)
    assert ex.simplify(s) == s
    for _ in range(5):
        x = tuple(0.2 + 5.0 * rng.random() for _ in range(2))
        try:
            a = ex.eval_expr(h, x)
            b = ex.eval_expr(s, x)
        except (ex.EvalDomainError, OverflowError):
            continue
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        h = random_expr(rng, 3)
        assert ex.from_json(ex.to_json(h)) == h


def test_pretty_prints_fraction_exponents():
    h = ex.Pow(ex.Var(1), Fraction(-3, 2))
    assert ex.pretty(h) == "x2^(-3/2)"


# compile_floats must reproduce eval_expr bit for bit: a value is compared by
# its repr and its sign (repr alone hides nothing, but == would take -0.0 for
# 0.0 and fail on nan), an error by its type and message.


def _outcome(evaluate):
    try:
        values = evaluate()
    except (ex.EvalDomainError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(repr(v), math.copysign(1.0, v)) for v in values]


def _agree(exprs, x):
    compiled = _outcome(lambda: ex.compile_floats(exprs)(x))
    assert compiled == _outcome(lambda: [ex.eval_expr(h, x) for h in exprs])
    return compiled


def test_compile_floats_matches_eval_expr_on_random_trees():
    rng = random.Random(4242)
    coords = (-2.5, -1.0, -0.0, 0.0, 0.1, 1.0, 3.7)
    errors = values = 0
    for k in range(300):
        dim = 2 + k % 2
        exprs = [random_expr(rng, dim, depth=4) for _ in range(rng.randint(1, 3))]
        for _ in range(4):
            x = tuple(0.1 + 9.9 * rng.random() for _ in range(dim))
            values += isinstance(_agree(exprs, x), list)
        for _ in range(4):
            x = tuple(rng.choice(coords) for _ in range(dim))
            errors += not isinstance(_agree(exprs, x), list)
    assert values > 1000 and errors > 100


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "h, x",
    [
        (ex.LnAbs(ex.Var(0)), (0.0, 1.0)),
        (ex.LnAbs(ex.Add((ex.Var(0), ex.Const(Fraction(-1))))), (1.0, 1.0)),
        (ex.Pow(ex.Var(1), Fraction(-1)), (1.0, -0.0)),
        (ex.Pow(ex.Var(1), -2.0), (1.0, 0.0)),
        (ex.Pow(ex.Var(0), Fraction(1, 2)), (-1.0, 1.0)),
        (ex.Pow(ex.Var(0), 0.5), (-4.0, 1.0)),
        (ex.Pow(ex.Var(0), 3), (-4.0, 1.0)),
        (ex.Pow(ex.Var(0), 0), (0.0, 1.0)),
        (ex.Pow(ex.Var(0), Fraction(10**400)), (0.5, 1.0)),
        (ex.Pow(ex.Var(0), 400.0), (1e3, 1.0)),
        (ex.Exp(ex.Mul((ex.Const(Fraction(1000)), ex.Var(0)))), (1.0, 1.0)),
        (ex.Add((ex.Const(Fraction(10**400)), ex.LnAbs(ex.Var(0)))), (0.0, 1.0)),
        (ex.Add((ex.LnAbs(ex.Var(0)), ex.Const(Fraction(10**400)))), (0.0, 1.0)),
        (ex.Const(INF), (1.0, 1.0)),
        (ex.Const(-INF), (1.0, 1.0)),
        (ex.Const(NAN), (1.0, 1.0)),
        (ex.Add((ex.Const(INF), ex.Const(-INF))), (1.0, 1.0)),
        (ex.Mul((ex.Const(NAN), ex.Var(0))), (2.0, 1.0)),
        (ex.Mul((ex.Const(-INF), ex.Var(0))), (-0.0, 1.0)),
        (ex.Pow(ex.Const(INF), Fraction(-1, 2)), (1.0, 1.0)),
        (ex.Pow(ex.Var(0), NAN), (2.0, 1.0)),
        (ex.Pow(ex.Var(0), -INF), (0.5, 1.0)),
        (ex.LnAbs(ex.Const(-INF)), (1.0, 1.0)),
        (ex.LnAbs(ex.Mul((ex.Const(NAN), ex.Var(1)))), (1.0, 1.0)),
        (ex.Exp(ex.Const(-INF)), (1.0, 1.0)),
        (ex.Add((ex.Const(-0.0),)), (1.0, 1.0)),
        (ex.Mul((ex.Const(-0.0), ex.Var(0))), (3.0, 1.0)),
        (ex.Mul((ex.Var(0), ex.Var(1))), (-0.0, 1.0)),
        # plain summation gives 0.0, the compensated sum of Python 3.12 1.0
        (ex.Add((ex.Const(1e16), ex.Const(1.0), ex.Const(-1e16))), (1.0, 1.0)),
    ],
)
def test_compile_floats_matches_eval_expr_off_domain_and_on_non_finite_constants(h, x):
    _agree([h], x)
    _agree([ex.Var(1), h, ex.LnAbs(ex.Var(0))], x)


def test_compile_floats_domain_error_names_subexpression_and_point():
    h = ex.Add((ex.Var(0), ex.LnAbs(ex.Var(1))))
    with pytest.raises(ex.EvalDomainError) as err:
        ex.compile_floats([h])((1.0, 0.0))
    assert err.value.subexpr == ex.LnAbs(ex.Var(1)) and err.value.point == (1.0, 0.0)
    assert ex.compile_floats([])((1.0,)) == ()
