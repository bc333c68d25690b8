"""Expression AST for first integrals and residuals.

Nodes: Const, Var, Add, Mul, Pow (real exponent), LnAbs, Exp, each a frozen
record (record.Frozen): slotted, immutable, equal to a node of the same class
with equal fields, and hashed by its field tuple.  ln is ln|.|
throughout, matching the integrals' log terms, so expressions are defined off
the positive orthant except on the axes.  Simplification is deliberately
shallow: constant folding, dropping zero addends and unit factors, flattening.
Deep rewriting happens on exact polynomial forms elsewhere.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

from .record import Frozen


Number = Union[Fraction, int, float]


class EvalDomainError(ValueError):
    """Evaluation hit a domain violation (log of 0, bad power base)."""

    def __init__(self, message: str, subexpr: "Expr", point):
        super().__init__(f"{message} in {pretty(subexpr)} at point {tuple(point)}")
        self.subexpr = subexpr
        self.point = tuple(point)


class Expr(Frozen):
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        object.__setattr__(self, "value", value)


class Var(Expr):
    __slots__ = ("index",)  # 0-based

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Add(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Expr, ...]):
        if not args:
            raise ValueError("Add needs at least one argument")
        object.__setattr__(self, "args", args)


class Mul(Expr):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Expr, ...]):
        if not args:
            raise ValueError("Mul needs at least one argument")
        object.__setattr__(self, "args", args)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Number):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class LnAbs(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(v) -> Const:
    if isinstance(v, float):
        return Const(v)
    return Const(Fraction(v))


def add(*args: Expr) -> Expr:
    return Add(tuple(args)) if len(args) != 1 else args[0]


def mul(*args: Expr) -> Expr:
    return Mul(tuple(args)) if len(args) != 1 else args[0]


def _is_const(h: Expr, v=None) -> bool:
    return isinstance(h, Const) and (v is None or h.value == v)


def eval_expr(h: Expr, x) -> float:
    """Evaluate at a float point; raises EvalDomainError off-domain."""
    if isinstance(h, Const):
        return float(h.value)
    if isinstance(h, Var):
        return float(x[h.index])
    if isinstance(h, Add):
        return sum(eval_expr(a, x) for a in h.args)
    if isinstance(h, Mul):
        r = 1.0
        for a in h.args:
            r *= eval_expr(a, x)
        return r
    if isinstance(h, Pow):
        return _pow(eval_expr(h.base, x), h, x)
    if isinstance(h, LnAbs):
        return _ln_abs(eval_expr(h.arg, x), h, x)
    if isinstance(h, Exp):
        return math.exp(eval_expr(h.arg, x))
    raise TypeError(f"not an Expr: {h!r}")


def _pow(base: float, h: Pow, x) -> float:
    """The value of h at x, given the value of its base there."""
    p = h.exponent
    pf = float(p)
    if base == 0.0 and pf < 0:
        raise EvalDomainError("zero base with negative exponent", h, x)
    if base < 0.0:
        if isinstance(p, float) or (isinstance(p, Fraction) and p.denominator != 1):
            raise EvalDomainError("negative base with non-integer exponent", h, x)
        return base ** int(p)
    if base == 0.0 and pf == 0.0:
        return 1.0
    return base**pf


def _ln_abs(v: float, h: LnAbs, x) -> float:
    """The value of h at x, given the value of its argument there."""
    if v == 0.0:
        raise EvalDomainError("log of zero", h, x)
    return math.log(abs(v))


def compile_floats(exprs):
    """One float function g(x) -> tuple of the values of exprs at x, x a
    sequence of floats with a component for every variable used.

    Each value is eval_expr's, bit for bit, and so is each error: g is a
    tree of closures, one per node, doing eval_expr's operations in its
    order, and every case but the common one goes through the helpers that
    eval_expr itself uses (_pow, _ln_abs), so an off-domain point raises the
    same EvalDomainError, naming the same subexpression and point.  A Pow
    with a positive base is base ** float(p), a LnAbs with a nonzero
    argument log(abs(v)), and a constant is converted once, unless it is too
    large for a float: then it raises OverflowError where eval_expr does.

    An Add is the builtin sum over its terms, as in eval_expr, and not a
    chain of +: from Python 3.12 sum adds floats with compensation, so the
    two differ there, and lvfi supports 3.10 on.  A Mul is eval_expr's
    running product 1.0 * a * b ...

    The closures are built, not generated as source like the field and the
    RK4 loop: those run thousands of times per compilation, while the Lie
    check evaluates a gradient at 50 points, and compiling its source cost
    more (0.3-0.4 ms) than evaluating it at all of them.
    """
    fs = [_float_closure(h) for h in exprs]
    return lambda x: tuple([f(x) for f in fs])


def _float_closure(h: Expr):
    if isinstance(h, Const):
        try:
            v = float(h.value)
        except OverflowError:
            return lambda x: float(h.value)
        return lambda x: v
    if isinstance(h, Var):
        i = h.index
        return lambda x: float(x[i])
    if isinstance(h, Add):
        terms = [_float_closure(a) for a in h.args]
        return lambda x: sum([f(x) for f in terms])
    if isinstance(h, Mul):
        factors = [_float_closure(a) for a in h.args]

        def product(x):
            r = 1.0
            for f in factors:
                r *= f(x)
            return r

        return product
    if isinstance(h, Pow):
        base = _float_closure(h.base)
        try:
            pf = float(h.exponent)
        except OverflowError:
            return lambda x: _pow(base(x), h, x)

        def power(x):
            b = base(x)
            return b**pf if b > 0.0 else _pow(b, h, x)

        return power
    if isinstance(h, LnAbs):
        arg = _float_closure(h.arg)

        def ln_abs(x):
            v = arg(x)
            return math.log(abs(v)) if v else _ln_abs(v, h, x)

        return ln_abs
    if isinstance(h, Exp):
        arg = _float_closure(h.arg)
        return lambda x: math.exp(arg(x))
    raise TypeError(f"not an Expr: {h!r}")


def diff(h: Expr, i: int) -> Expr:
    """Exact symbolic partial derivative d h / d x_i, lightly simplified."""
    return simplify(_diff(h, i))


def _diff(h: Expr, i: int) -> Expr:
    if isinstance(h, Const):
        return ZERO
    if isinstance(h, Var):
        return ONE if h.index == i else ZERO
    if isinstance(h, Add):
        return Add(tuple(_diff(a, i) for a in h.args))
    if isinstance(h, Mul):
        terms = []
        for k, a in enumerate(h.args):
            da = _diff(a, i)
            if _is_const(da, 0):
                continue
            factors = list(h.args)
            factors[k] = da
            terms.append(Mul(tuple(factors)))
        return Add(tuple(terms)) if terms else ZERO
    if isinstance(h, Pow):
        db = _diff(h.base, i)
        if _is_const(db, 0):
            return ZERO
        p = h.exponent
        if p == 0:
            return ZERO
        # d(u^p) = p * u^(p-1) * du
        return Mul((Const(p), Pow(h.base, p - 1), db))
    if isinstance(h, LnAbs):
        da = _diff(h.arg, i)
        if _is_const(da, 0):
            return ZERO
        # d ln|u| = du / u
        return Mul((da, Pow(h.arg, Fraction(-1))))
    if isinstance(h, Exp):
        da = _diff(h.arg, i)
        if _is_const(da, 0):
            return ZERO
        return Mul((da, h))
    raise TypeError(f"not an Expr: {h!r}")


def simplify(h: Expr) -> Expr:
    """Semantics-preserving shallow simplification (idempotent)."""
    if isinstance(h, (Const, Var)):
        return h
    if isinstance(h, Add):
        flat: list[Expr] = []
        c = Fraction(0)
        cf = 0.0
        has_float = False
        for a in h.args:
            a = simplify(a)
            if isinstance(a, Add):
                items = a.args
            else:
                items = (a,)
            for it in items:
                if isinstance(it, Const):
                    if isinstance(it.value, float):
                        has_float = True
                        cf += it.value
                    else:
                        c += it.value
                else:
                    flat.append(it)
        if has_float:
            total: Number = cf + float(c)
            if total != 0.0 or not flat:
                flat.append(Const(total))
        elif c != 0 or not flat:
            flat.append(Const(c))
        return flat[0] if len(flat) == 1 else Add(tuple(flat))
    if isinstance(h, Mul):
        flat = []
        c = Fraction(1)
        cf = 1.0
        has_float = False
        for a in h.args:
            a = simplify(a)
            items = a.args if isinstance(a, Mul) else (a,)
            for it in items:
                if isinstance(it, Const):
                    if isinstance(it.value, float):
                        has_float = True
                        cf *= it.value
                    else:
                        c *= it.value
                else:
                    flat.append(it)
        coef: Number = cf * float(c) if has_float else c
        if coef == 0:
            return Const(coef if has_float else Fraction(0))
        if coef != 1 or not flat:
            flat.insert(0, Const(coef))
        return flat[0] if len(flat) == 1 else Mul(tuple(flat))
    if isinstance(h, Pow):
        base = simplify(h.base)
        p = h.exponent
        if p == 0:
            return ONE
        if p == 1:
            return base
        if isinstance(base, Const) and not isinstance(base.value, float):
            if isinstance(p, int) or (isinstance(p, Fraction) and p.denominator == 1):
                return Const(base.value ** int(p))
        if isinstance(base, Pow):
            return simplify(Pow(base.base, base.exponent * p))
        return Pow(base, p)
    if isinstance(h, LnAbs):
        a = simplify(h.arg)
        if _is_const(a, 1) or _is_const(a, -1):
            return ZERO
        return LnAbs(a)
    if isinstance(h, Exp):
        a = simplify(h.arg)
        if _is_const(a, 0):
            return ONE
        return Exp(a)
    raise TypeError(f"not an Expr: {h!r}")


# -- pretty printing ---------------------------------------------------------


def _fmt_num(v: Number) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def _pretty(h: Expr, prec: int) -> str:
    # prec: 0 add, 1 mul, 2 power/atom
    if isinstance(h, Const):
        s = _fmt_num(h.value)
        need = ("/" in s and prec >= 1) or (s.startswith("-") and prec >= 1)
        return f"({s})" if need else s
    if isinstance(h, Var):
        return f"x{h.index + 1}"
    if isinstance(h, Add):
        parts = []
        for k, a in enumerate(h.args):
            t = _pretty(a, 0)
            if k and not t.startswith("-"):
                parts.append("+ " + t)
            elif k:
                parts.append("- " + t[1:])
            else:
                parts.append(t)
        s = " ".join(parts)
        return f"({s})" if prec >= 1 else s
    if isinstance(h, Mul):
        s = "*".join(_pretty(a, 1) for a in h.args)
        return f"({s})" if prec >= 2 else s
    if isinstance(h, Pow):
        p = h.exponent
        ps = _fmt_num(p if isinstance(p, (Fraction, float)) else Fraction(p))
        if "/" in ps or ps.startswith("-") or "." in ps:
            ps = f"({ps})"
        return f"{_pretty(h.base, 2)}^{ps}"
    if isinstance(h, LnAbs):
        return f"ln|{_pretty(h.arg, 0)}|"
    if isinstance(h, Exp):
        return f"exp({_pretty(h.arg, 0)})"
    raise TypeError(f"not an Expr: {h!r}")


def pretty(h: Expr) -> str:
    return _pretty(h, 0)


# -- lossless JSON AST -------------------------------------------------------


def _num_to_json(v: Number):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    return v


def _num_from_json(v) -> Number:
    if isinstance(v, bool):
        raise ValueError(f"bad number {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str) and "/" in v:
        num, _, den = v.partition("/")
        if int(den):
            return Fraction(int(num), int(den))
    raise ValueError(f"bad number {v!r}")


def to_json_obj(h: Expr):
    if isinstance(h, Const):
        return {"op": "const", "value": _num_to_json(h.value)}
    if isinstance(h, Var):
        return {"op": "var", "i": h.index + 1}
    if isinstance(h, Add):
        return {"op": "add", "args": [to_json_obj(a) for a in h.args]}
    if isinstance(h, Mul):
        return {"op": "mul", "args": [to_json_obj(a) for a in h.args]}
    if isinstance(h, Pow):
        return {
            "op": "pow",
            "base": to_json_obj(h.base),
            "exponent": _num_to_json(h.exponent),
        }
    if isinstance(h, LnAbs):
        return {"op": "lnabs", "arg": to_json_obj(h.arg)}
    if isinstance(h, Exp):
        return {"op": "exp", "arg": to_json_obj(h.arg)}
    raise TypeError(f"not an Expr: {h!r}")


def _field(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"expression node {obj!r} lacks {name!r}")
    return obj[name]


def from_json_obj(obj) -> Expr:
    """The expression of a JSON AST node; ValueError for a malformed one."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError(f"bad expression node: {obj!r}")
    op = obj["op"]
    if op == "const":
        return Const(_num_from_json(_field(obj, "value")))
    if op == "var":
        i = _field(obj, "i")
        if not isinstance(i, int) or i < 1:
            raise ValueError(f"bad variable index {i!r}")
        return Var(i - 1)
    if op in ("add", "mul"):
        args = _field(obj, "args")
        if not isinstance(args, list):
            raise ValueError(f"expression node {obj!r}: args must be a list")
        return (Add if op == "add" else Mul)(tuple(from_json_obj(a) for a in args))
    if op == "pow":
        return Pow(from_json_obj(_field(obj, "base")), _num_from_json(_field(obj, "exponent")))
    if op in ("lnabs", "exp"):
        return (LnAbs if op == "lnabs" else Exp)(from_json_obj(_field(obj, "arg")))
    raise ValueError(f"unknown op {op!r}")


def from_json(text: str) -> Expr:
    return from_json_obj(json.loads(text))


def max_var_index(h: Expr) -> int:
    """Largest variable index used, or -1 for constant expressions."""
    if isinstance(h, Var):
        return h.index
    if isinstance(h, Const):
        return -1
    if isinstance(h, (Add, Mul)):
        return max(max_var_index(a) for a in h.args)
    if isinstance(h, Pow):
        return max_var_index(h.base)
    if isinstance(h, (LnAbs, Exp)):
        return max_var_index(h.arg)
    raise TypeError(f"not an Expr: {h!r}")


def eval_vec(h: Expr, X):
    """Vectorized evaluation over a (points, dim) float array.

    Mirrors eval_expr but without per-point domain diagnostics: callers check
    finiteness of the result and fall back to eval_expr to locate violations,
    so numpy's floating-point warnings are silenced for the whole evaluation.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        return _eval_vec(h, X)


def _eval_vec(h: Expr, X):
    import numpy as np

    if isinstance(h, Const):
        return np.full(X.shape[0], float(h.value))
    if isinstance(h, Var):
        return X[:, h.index]
    if isinstance(h, Add):
        out = _eval_vec(h.args[0], X)
        for a in h.args[1:]:
            out = out + _eval_vec(a, X)
        return out
    if isinstance(h, Mul):
        out = _eval_vec(h.args[0], X)
        for a in h.args[1:]:
            out = out * _eval_vec(a, X)
        return out
    if isinstance(h, Pow):
        base = _eval_vec(h.base, X)
        p = h.exponent
        if isinstance(p, Fraction) and p.denominator == 1:
            p = int(p)
        if isinstance(p, int):
            return base**float(p)
        return np.where(base > 0, np.abs(base) ** float(p), np.nan)
    if isinstance(h, LnAbs):
        return np.log(np.abs(_eval_vec(h.arg, X)))
    if isinstance(h, Exp):
        return np.exp(_eval_vec(h.arg, X))
    raise TypeError(f"not an Expr: {h!r}")


def log_arguments(h: Expr) -> list[Expr]:
    """All LnAbs arguments in h; used to keep sample points off log zeros."""
    out: list[Expr] = []
    if isinstance(h, LnAbs):
        out.append(h.arg)
        out.extend(log_arguments(h.arg))
    elif isinstance(h, (Add, Mul)):
        for a in h.args:
            out.extend(log_arguments(a))
    elif isinstance(h, Pow):
        out.extend(log_arguments(h.base))
    elif isinstance(h, Exp):
        out.extend(log_arguments(h.arg))
    return out
