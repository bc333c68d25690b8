"""Core data model: Lotka-Volterra systems with constant terms.

A system is

    dx_i/dt = x_i * (b_i + sum_j a_ij x_j) + e_i,   i = 1..dim,  dim in {2, 3}

with coefficients either all exact rationals or all binary64 floats.  Exactness
matters: every detection decision downstream is an equality test on rationals,
so float systems are lifted to exact rationals (every float is one) before any
rule matching.

LVSystem and Permutation are frozen records (record.Frozen): immutable,
compared by class and fields, and hashed by their field tuple.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .record import Frozen

Coef = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"


class ModelError(ValueError):
    """Raised for malformed system descriptions."""


def _parse_entry(v) -> tuple[str, Coef]:
    """Classify and convert one JSON value.

    Integers and "p/q" strings are exact rationals; JSON floats and decimal
    strings are binary64.  Returns (kind, value) where kind is "int" for the
    kind-neutral integer case.
    """
    if isinstance(v, bool):
        raise ModelError(f"boolean is not a number: {v!r}")
    if isinstance(v, int):
        return "int", Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ModelError(f"non-finite value: {v!r}")
        return FLOAT, v
    if isinstance(v, str):
        s = v.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            try:
                f = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise ModelError(f"malformed rational {v!r}: {exc}") from None
            return RATIONAL, f
        try:
            return RATIONAL, Fraction(int(s))
        except ValueError:
            pass
        try:
            x = float(s)
        except ValueError:
            raise ModelError(f"malformed number {v!r}") from None
        if not math.isfinite(x):
            raise ModelError(f"non-finite value: {v!r}")
        return FLOAT, x
    raise ModelError(f"unsupported number {v!r}")


class LVSystem(Frozen):
    """Immutable LV system; b, e are tuples and A a tuple of row tuples."""

    __slots__ = ("dim", "b", "A", "e", "kind")

    def __init__(self, dim: int, b: tuple[Coef, ...], A: tuple[tuple[Coef, ...], ...],
                 e: tuple[Coef, ...], kind: str):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "kind", kind)

    def row(self, i: int) -> tuple[Coef, ...]:
        return self.A[i]

    def entries(self):
        yield from self.b
        for row in self.A:
            yield from row
        yield from self.e


class Permutation(Frozen):
    """A bijection on coordinate indices 0..dim-1 stored as an image tuple."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        if sorted(sigma) != list(range(len(sigma))):
            raise ModelError(f"not a bijection: {sigma}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def __call__(self, i: int) -> int:
        return self.sigma[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.dim
        for i, j in enumerate(self.sigma):
            inv[j] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self.sigma[other.sigma[i]] for i in range(self.dim)))

    @staticmethod
    def identity(dim: int) -> "Permutation":
        return Permutation(tuple(range(dim)))

    @staticmethod
    def all(dim: int) -> list["Permutation"]:
        return [Permutation(p) for p in itertools.permutations(range(dim))]


def make_system(b, A, e, kind=RATIONAL) -> LVSystem:
    """Build a validated LVSystem from sequences (no kind coercion)."""
    dim = len(b)
    if dim not in (2, 3):
        raise ModelError(f"dim must be 2 or 3, got {dim}")
    if len(A) != dim or any(len(row) != dim for row in A) or len(e) != dim:
        raise ModelError("dimension mismatch between b, A, e")
    if kind == RATIONAL:
        conv = Fraction
    else:

        def conv(x):
            v = float(x)
            if not math.isfinite(v):
                raise ModelError(f"non-finite value: {x!r}")
            return v

    return LVSystem(
        dim=dim,
        b=tuple(conv(x) for x in b),
        A=tuple(tuple(conv(x) for x in row) for row in A),
        e=tuple(conv(x) for x in e),
        kind=kind,
    )


def parse_system(text: str) -> LVSystem:
    """Parse the JSON description {dim, b, A, e}.

    Kind resolution: "p/q" strings force rational kind, floats force float
    kind, mixing both is an error; plain integers adapt to either.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelError("top-level JSON must be an object")
    for field in ("dim", "b", "A", "e"):
        if field not in doc:
            raise ModelError(f"missing field {field!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim not in (2, 3):
        raise ModelError(f"dim must be 2 or 3, got {dim!r}")
    b, A, e = doc["b"], doc["A"], doc["e"]
    if (
        not isinstance(b, list)
        or not isinstance(e, list)
        or not isinstance(A, list)
        or len(b) != dim
        or len(e) != dim
        or len(A) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in A)
    ):
        raise ModelError("dimension mismatch between dim and b/A/e")

    flat = list(b) + [x for row in A for x in row] + list(e)
    parsed = [_parse_entry(v) for v in flat]
    kinds = {k for k, _ in parsed}
    if RATIONAL in kinds and FLOAT in kinds:
        raise ModelError("mixed rational and float entries are not allowed")
    kind = FLOAT if FLOAT in kinds else RATIONAL
    if kind == FLOAT:
        vals = [float(v) for _, v in parsed]
    else:
        vals = [v for _, v in parsed]
    n = dim
    return LVSystem(
        dim=dim,
        b=tuple(vals[:n]),
        A=tuple(tuple(vals[n + i * n : n + (i + 1) * n]) for i in range(n)),
        e=tuple(vals[n + n * n :]),
        kind=kind,
    )


def _emit(v: Coef):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return v


def serialize_system(s: LVSystem) -> str:
    """Inverse of parse_system; exact round trip for rational kind."""
    doc = {
        "dim": s.dim,
        "b": [_emit(v) for v in s.b],
        "A": [[_emit(v) for v in row] for row in s.A],
        "e": [_emit(v) for v in s.e],
    }
    return json.dumps(doc)


def permute_system(s: LVSystem, p: Permutation) -> LVSystem:
    """Relabel coordinates: new equation i is old equation sigma(i)."""
    if p.dim != s.dim:
        raise ModelError(f"permutation dim {p.dim} != system dim {s.dim}")
    sg = p.sigma
    return LVSystem(
        dim=s.dim,
        b=tuple(s.b[sg[i]] for i in range(s.dim)),
        A=tuple(tuple(s.A[sg[i]][sg[j]] for j in range(s.dim)) for i in range(s.dim)),
        e=tuple(s.e[sg[i]] for i in range(s.dim)),
        kind=s.kind,
    )


def lift_exact(s: LVSystem) -> LVSystem:
    """Lift a float system to exact rationals (exact: binary64 -> Fraction)."""
    if s.kind == RATIONAL:
        return s
    return LVSystem(
        dim=s.dim,
        b=tuple(Fraction(v) for v in s.b),
        A=tuple(tuple(Fraction(v) for v in row) for row in s.A),
        e=tuple(Fraction(v) for v in s.e),
        kind=RATIONAL,
    )


FIELD_PARAMETERS = "b0, b1, b2, e0, e1, e2, a00, a01, a02, a10, a11, a12, a20, a21, a22"


def field_coefficients(s: LVSystem) -> list[float]:
    """Every coefficient of the field of s as a float, in the order of
    FIELD_PARAMETERS.  A 2D system is padded with a zero third row and
    column."""
    pad = [0.0] * (3 - s.dim)
    b = [float(v) for v in s.b] + pad
    e = [float(v) for v in s.e] + pad
    A = [[float(v) for v in row] + pad for row in s.A] + [[0.0] * 3] * len(pad)
    return [*b, *e, *A[0], *A[1], *A[2]]


def field_row(i: int, pattern, x, zero_b: bool = False, zero_e: bool = False) -> str:
    """Source of field component i at the state whose components are named
    x[0], x[1], ...:  x_i * (b_i + (a_ij * x_j + ...)) + e_i, read off the
    row pattern[i] of zero_pattern.

    The a_ij * x_j terms appear in column order, and only those whose float
    coefficient is nonzero; the coefficients are the names of
    FIELD_PARAMETERS, so the source depends on the pattern alone.  It is the
    arithmetic of the full row x_i * (b_i + sum_j a_ij * x_j) + e_i, whose
    sum starts at +0.0, bit for bit:

    - A dropped term is +-0.0 * x_j.  For finite x_j it is +-0.0, and adding
      +-0.0 to a partial sum that starts at +0.0, and so is never -0.0,
      changes nothing.
    - Without the leading +0.0 the sum of the kept terms differs only when
      every kept term is -0.0 (or there is none): it is -0.0 (or absent)
      instead of +0.0.  b_i plus it then differs only for b_i = -0.0, so the
      row keeps the 0.0 exactly when b_i is -0.0.
    - e_i stays whatever its value: with e_i = 0.0 the last addition still
      turns a -0.0 product into +0.0.

    zero_b and zero_e, for a b_i and an e_i that are +0.0, leave them out
    too: x_i * (a_ij * x_j + ...) and no trailing + e_i (a row without
    a-terms keeps x_i * b_i).  That row can differ from the full one in the
    sign of a zero, so only a caller that proves the sign unobservable may
    ask for it (verify._rk4); rhs_floats never does.
    """
    negative_zero_b, *nonzero = pattern[i]
    terms = [f"a{i}{j} * {x[j]}" for j in range(3) if nonzero[j]]
    if negative_zero_b:
        terms.insert(0, "0.0")
    if not terms:
        row = f"{x[i]} * b{i}"
    elif zero_b:
        row = f"{x[i]} * ({' + '.join(terms)})"
    else:
        row = f"{x[i]} * (b{i} + ({' + '.join(terms)}))"
    return row if zero_e else f"{row} + e{i}"


def zero_pattern(arguments) -> tuple[tuple[bool, ...], ...]:
    """For each row i of the coefficients in FIELD_PARAMETERS order, whether
    b_i is -0.0 and which a_ij are nonzero: all that a generated field
    source reads of the coefficients (field_row), and so the key of its
    cache."""
    b, A = arguments[:3], arguments[6:]
    return tuple(
        (b[i] == 0.0 and math.copysign(1.0, b[i]) < 0.0, *map(bool, A[3 * i : 3 * i + 3]))
        for i in range(3)
    )


@lru_cache(maxsize=None)
def _field_maker(pattern: tuple[tuple[bool, ...], ...]):
    """make(*FIELD_PARAMETERS) -> f, compiled once per zero_pattern of the
    padded coefficients (at most 2^12 of them)."""
    x = ("x0", "x1", "x2")
    rows = ", ".join(field_row(i, pattern, x) for i in range(3))
    source = (
        f"def make({FIELD_PARAMETERS}):\n"
        f"    def f(x0, x1, x2=0.0):\n"
        f"        return ({rows})\n"
        f"    return f\n"
    )
    namespace: dict = {}
    exec(compile(source, "<rhs_floats>", "exec"), namespace)
    # popped, so that the function and its globals form no reference cycle
    return namespace.pop("make")


def rhs_floats(s: LVSystem):
    """Vector field as a fast float callable f(x0, x1, x2=0.0) -> (f0, f1, f2).

    The three components are written out by field_row, the row template the
    RK4 kernel of ``verify`` inlines, so RK4, RK45 and the Lie check run the
    same row arithmetic.  The function is generated for the zero_pattern of
    the coefficients, compiled once per pattern (_field_maker), and holds the
    coefficients in its closure.  A 2D system is padded with a zero third
    row and column: the padded column contributes no terms, and from
    x2 = 0.0 the third component is 0.0.
    """
    arguments = field_coefficients(s)
    return _field_maker(zero_pattern(arguments))(*arguments)
