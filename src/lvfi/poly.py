"""Sparse polynomials with exchangeable coefficient rings.

One algebra serves the whole exact core.  GenPoly holds sums of
c * prod_i x_i^(p_i) * ln|x_i|^(k_i): the curl residual of an
integrating-factor Ansatz is such a sum with integer p_i and no logs (a
Laurent polynomial), and a reconstructed potential has rational p_i and may
pick up log factors.  For concrete systems the coefficients are Fractions;
for condition derivation they are SymPoly values, polynomials in named
parameter symbols (a11, b2, e3, al, l1, ...).  GenPoly only needs +, *,
unary - and truthiness (zero test) from its coefficient ring, so both plug
in unchanged.  Concrete coefficients may also be ints (a system's integer
view, detection.integer_view), mixed freely with Fractions; the only
division, in ``integrate`` and ``ratio``, goes through ``quotient``,
so an int over an int gives a Fraction, never a float.

Exponent canonical form: a GenPoly power is an ``int`` when it is a whole
number and a ``Fraction`` only when it is a proper rational.  Rational
powers enter only through ``GenPoly.term``, the Ansatz factor R = x^(l-1)
off its exponent lattice (potential._times_factor) and the map from the
lattice back to x (potential.from_lattice), all in canonical form; the
residual, the field and the exact gate's potential are built with int
powers.  Integer arithmetic then keeps whole powers int through products,
derivatives, shifts and antiderivatives.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

Mono = tuple[tuple[str, int], ...]  # sorted ((symbol, power), ...)


class SymPoly:
    """Multivariate polynomial in named symbols with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(c) -> "SymPoly":
        c = Fraction(c)
        return SymPoly({(): c} if c else {})

    @staticmethod
    def sym(name: str, power: int = 1) -> "SymPoly":
        return SymPoly({((name, power),): Fraction(1)})

    def _coerce(self, other) -> "SymPoly":
        if isinstance(other, SymPoly):
            return other
        return SymPoly.const(other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymPoly.const(other)
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return SymPoly(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(
                name if p == 1 else f"{name}^{p}" for name, p in m
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    d = dict(m1)
    for name, p in m2:
        d[name] = d.get(name, 0) + p
        if d[name] == 0:
            del d[name]
    return tuple(sorted(d.items()))


def ratio(a: dict, b: dict):
    """q with a[k] == q * b[k] for every key, when the two sparse maps have
    the same nonempty support; otherwise None."""
    if not a or a.keys() != b.keys():
        return None
    k0 = next(iter(a))
    q = quotient(a[k0], b[k0])
    return q if all(b[k] * q == c for k, c in a.items()) else None


Key = tuple[tuple, tuple[int, ...]]  # (powers p_i, log powers k_i)


def canonical(p):
    """Canonical form of a rational (a power or an Ansatz parameter): int
    when whole, else Fraction."""
    if type(p) is int:
        return p
    q = p if type(p) is Fraction else Fraction(p)
    return q.numerator if q.denominator == 1 else q


def quotient(c, d):
    """c / d in exact arithmetic: an int over an int is an int when d
    divides c and a Fraction otherwise, never a float."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return c / d


def _acc(out: dict, key, c) -> None:
    """out[key] += c for a nonzero c, dropping the key when the sum is zero."""
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = s + c
        if s:
            out[key] = s
        else:
            del out[key]


class GenPoly:
    """Sparse map (powers, log powers) -> coefficient, zero terms dropped.

    Powers enter in canonical form (``term``, see ``canonical``): whole
    numbers are ``int`` and only proper rationals are ``Fraction``.  A key
    is a tuple, whose hash is not cached, so every dict copy or lookup
    hashes each power again, and an int hashes far faster than a Fraction.
    The arithmetic keeps int powers int (a whole power from adding two
    proper fractions stays a Fraction, which compares and hashes equal to
    the int, so keys of either form still merge).  Each operation builds
    its result dict once and hands it over without the constructor's zero
    filter; the public constructor still filters.  This relies on the
    coefficient ring having no zero divisors (Fractions, SymPoly), so a
    product of nonzero coefficients is nonzero and only sums can cancel.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Key, object] | None = None):
        self.nvars = nvars
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "GenPoly":
        """Adopt terms that already hold no zero coefficient."""
        g = object.__new__(cls)
        g.nvars = nvars
        g.terms = terms
        return g

    @staticmethod
    def zero(nvars: int) -> "GenPoly":
        return GenPoly._of(nvars, {})

    @staticmethod
    def term(nvars: int, coeff, powers, logs=None) -> "GenPoly":
        """One exact rational term (Fraction coefficient and powers)."""
        key = (
            tuple(map(canonical, powers)),
            tuple(logs) if logs else (0,) * nvars,
        )
        return GenPoly(nvars, {key: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "GenPoly") -> "GenPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return GenPoly._of(self.nvars, out)

    def __neg__(self) -> "GenPoly":
        return GenPoly._of(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GenPoly") -> "GenPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, -c)
        return GenPoly._of(self.nvars, out)

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        out: dict[Key, object] = {}
        for (p1, k1), c1 in self.terms.items():
            for (p2, k2), c2 in other.terms.items():
                _acc(out, (tuple(map(add, p1, p2)), tuple(map(add, k1, k2))), c1 * c2)
        return GenPoly._of(self.nvars, out)

    def scale(self, c) -> "GenPoly":
        if not c:
            return GenPoly.zero(self.nvars)
        return GenPoly._of(self.nvars, {k: c * v for k, v in self.terms.items()})

    def diff(self, i: int) -> "GenPoly":
        out: dict[Key, object] = {}
        for (p, k), c in self.terms.items():
            if p[i] == 0 and k[i] == 0:
                continue
            np = tuple(q - int(j == i) for j, q in enumerate(p))
            if p[i] != 0:
                _acc(out, (np, k), c * p[i])
            if k[i] > 0:
                nk = tuple(q - int(j == i) for j, q in enumerate(k))
                _acc(out, (np, nk), c * k[i])
        return GenPoly._of(self.nvars, out)

    def integrate(self, i: int) -> "GenPoly":
        """Exact antiderivative in x_i (constant of integration zero)."""
        out: dict[Key, object] = {}
        for (p, k), c in self.terms.items():
            _integrate_term(out, p, k, c, i)
        return GenPoly._of(self.nvars, out)

    def depends_on(self, i: int) -> bool:
        return any(p[i] != 0 or k[i] != 0 for p, k in self.terms)

    def drop_constant(self) -> "GenPoly":
        zero = (0,) * self.nvars
        out = dict(self.terms)
        out.pop((zero, zero), None)
        return GenPoly._of(self.nvars, out)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (p, k), c in self.items_sorted():
            facs = []
            for i, q in enumerate(p):
                if q != 0:
                    facs.append(f"x{i+1}^{q}" if q != 1 else f"x{i+1}")
            for i, q in enumerate(k):
                if q:
                    facs.append(f"ln|x{i+1}|" + (f"^{q}" if q > 1 else ""))
            mono = "*".join(facs)
            cs = str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


def _integrate_term(out: dict, p, k, c, i) -> None:
    """Accumulate the integral of c * x^p * ln^k dx_i into out, by the
    standard reduction."""
    np = tuple(q + int(j == i) for j, q in enumerate(p))  # p_i + 1
    if p[i] == -1:
        # x^-1 * ln^k -> ln^(k+1)/(k+1)
        nk = tuple(q + int(j == i) for j, q in enumerate(k))
        _acc(out, (np, nk), quotient(c, k[i] + 1))
        return
    denom = p[i] + 1
    _acc(out, (np, k), quotient(c, denom))
    if k[i] == 0:
        return
    # by parts: subtract (k_i/denom) * integral x^p ln^(k-1)
    nk = tuple(q - int(j == i) for j, q in enumerate(k))
    _integrate_term(out, p, nk, quotient(-c * k[i], denom), i)
