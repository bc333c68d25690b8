"""The primitive-integer view of a system, and the one-pass Lie derivative.

run_rules decides the scale-free steps on a copy of the system scaled to
primitive integers (detection.integer_view): the pattern test, the matchers
marked scale_free, the curl residual, the gradient targets, the potential and
the Lie gate.  Scaling (b, A, e) by a positive constant rescales time, so
this is exact as long as every condition those steps test is homogeneous in
(b, A, e).  The first tests check that invariant on everything the derived
matchers compile; the next ones keep the Fraction path (no scaling, the gate
in x with Fraction powers, and the Lie derivative as the product sum
f_i dH/dx_i) as the reference and require equal output.  The last ones
check the integer exponent lattice: the gate in y = x^(1/d) against the gate
forced to the lattice of all ones, and the lattice Lie derivative against
the one in x.
"""

import ast
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from lvfi import catalog3d, detection, potential
from lvfi.catalog2d import RULES_2D, SAMPLERS_2D
from lvfi.catalog3d import RULES_3D, SAMPLERS_3D, _ConstantDirection
from lvfi.detection import DependentRows, condition_function
from lvfi.model import LVSystem, lift_exact, make_system
from lvfi.potential import from_lattice, lie_genpoly
from lvfi.oracle import _symbolic_system
from lvfi.poly import GenPoly, SymPoly

from conftest import to_float
from test_detection import _relabeled_copies, _sparse_integer_systems
from test_digest import DEGENERATE
from test_oracle import _f_laurent

F = Fraction
_DIRECTION = ("alpha", "beta", "gamma")


class _Sym(SymPoly):
    """A SymPoly symbol with small integer powers (the guards use ^2)."""

    def __pow__(self, k: int) -> SymPoly:
        out = SymPoly.const(1)
        for _ in range(k):
            out = out * self
        return out


def _symbols():
    b, A, e = _symbolic_system(3)
    b = tuple(_Sym(x.terms) for x in b)
    A = tuple(tuple(_Sym(x.terms) for x in row) for row in A)
    d = tuple(_Sym(SymPoly.sym(n).terms) for n in _DIRECTION)
    l = tuple(_Sym(SymPoly.sym(f"l{i}").terms) for i in (1, 2, 3))
    return b, A, e, d, l


def _degrees(p, counted) -> set:
    """Total degrees of p's monomials in the symbols that counted(name)
    accepts (no degree for the zero polynomial)."""
    if not isinstance(p, SymPoly):
        return set() if p == 0 else {0}
    return {sum(k for n, k in mono if counted(n)) for mono in p.terms}


def _homogeneous(values, counted) -> bool:
    """Whether the values, together, are homogeneous of one degree."""
    degs = set().union(*(_degrees(v, counted) for v in values))
    return len(degs) <= 1


def _coefficient(name: str) -> bool:  # b1, a23, e3
    return re.fullmatch(r"[abe][1-3]+", name) is not None


def _direction(name: str) -> bool:
    return name in _DIRECTION


def _compared(source) -> list:
    """The differences whose zero tests decide a condition source: for each
    comparison, left - right (elementwise for tuples); for a residual, the
    residual itself."""
    tree = ast.parse(source, mode="eval")
    compares = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
    if not compares:
        return [source]
    out = []
    for c in compares:
        for left, right in zip([c.left, *c.comparators], c.comparators):
            pairs = (
                zip(left.elts, right.elts)
                if isinstance(left, ast.Tuple) and isinstance(right, ast.Tuple)
                else [(left, right)]
            )
            out += [f"({ast.unparse(x)}) - ({ast.unparse(y)})" for x, y in pairs]
    return out


def _derived_matchers():
    return [r.match for r in RULES_3D if isinstance(r.match, _ConstantDirection)]


def test_printed_conditions_are_homogeneous():
    """Every printed residual and guard of the derived matchers decides a
    zero test of a polynomial homogeneous in (b, A, e).  The guards are also
    homogeneous in the direction, which they read scaled to primitive
    integers (the residuals that read it are compiled into the solve rows,
    checked below)."""
    b, A, e, d, l = _symbols()
    checked = 0
    for matcher in _derived_matchers():
        for k, sources in enumerate(matcher.sources):
            for src in sources:
                for diff in _compared(src):
                    v = condition_function(diff)(b, A, e, d, l)
                    for x in v if isinstance(v, tuple) else (v,):
                        assert _homogeneous([x], _coefficient), (matcher.rule.id, src)
                        guard = k >= 2
                        assert not guard or _homogeneous([x], _direction), (matcher.rule.id, src)
                        checked += 1
    assert checked > 150


def test_solve_and_stage_rows_are_homogeneous_row_by_row():
    """Each row of every compiled solve (the printed solve rows, then the
    oracle's condition rows) is homogeneous in (b, A, e) and in the solved
    direction it reads, over its whole row: scaling either scales the row,
    which leaves the solution and the nullspace unchanged."""
    b, A, e, d, l = _symbols()
    rows_checked = 0
    for matcher in _derived_matchers():
        for names, rows in matcher.stages:
            m, r = rows(b, A, e, d, l)
            for mi, ri in zip(m, r):
                assert _homogeneous([*mi, ri], _coefficient), (matcher.rule.id, names)
                assert _homogeneous([*mi, ri], _direction), (matcher.rule.id, names)
                rows_checked += 1
    assert rows_checked > 150


def test_dependent_rows_columns_are_homogeneous(monkeypatch):
    """The columns of DependentRows and of L5-6's two pairs, whose params
    are ratios within the pairs' nullspaces, so L5-6 is scale-free too."""
    b, A, e, _, _ = _symbols()
    seen = []
    monkeypatch.setattr(detection, "nullspace_candidates", lambda rows: seen.append(rows) or [])
    rules = [r for r in RULES_2D + RULES_3D if isinstance(r.match, DependentRows)]
    assert len(rules) == 4
    rules.append(next(r for r in RULES_3D if r.id == "L5-6"))
    for rule in rules:
        n = rule.dim
        s = LVSystem(n, b[:n], tuple(row[:n] for row in A[:n]), e[:n], "symbolic")
        assert rule.match(s) == []
        assert len(seen) == (2 if rule.id == "L5-6" else 1), rule.id
        while seen:
            for row in seen.pop():
                assert _homogeneous(row, _coefficient)


def test_the_scale_free_rules_are_the_derived_and_dependent_rows_matchers():
    for rule in RULES_2D + RULES_3D:
        derived = isinstance(rule.match, (DependentRows, _ConstantDirection))
        assert rule.scale_free == (derived or rule.id == "L5-6"), rule.id


def test_integer_view_scales_by_a_positive_constant():
    s = make_system(b=(F(1, 2), F(-3, 4), 0), A=((F(3, 2), 0, 1),) * 3, e=(0, F(9, 4), 0))
    si = detection.integer_view(s)
    assert si.b == (2, -3, 0) and si.e == (0, 9, 0) and si.A[0] == (6, 0, 4)
    assert all(type(v) is int for v in si.entries())
    assert detection.integer_view(to_float(s)[0]) == si
    zero = detection.integer_view(make_system(b=(0, 0), A=((0, 0), (0, 0)), e=(0, 0)))
    assert all(type(v) is int and v == 0 for v in zero.entries())


# -- the Fraction path as the reference ----------------------------------------


def _product_lie(H: GenPoly, s) -> GenPoly:
    """f . grad H as the sum of the products f_i * dH/dx_i, with the field
    built as GenPolys (the form the one-pass lie_genpoly replaces)."""
    sx = lift_exact(s)
    out = GenPoly.zero(H.nvars)
    for i in range(H.nvars):
        out = out + _f_laurent(sx.dim, sx.b, sx.A, sx.e, i) * H.diff(i)
    return out


def _x_lattice(l) -> tuple:
    """The exponent lattice of all ones: the gate works in x."""
    return (1,) * len(l)


def _x_product_lie(H: GenPoly, s, lattice=None) -> GenPoly:
    assert lattice is None or set(lattice) == {1}, lattice
    return _product_lie(H, s)


def _fraction_path(monkeypatch):
    """run_rules without scaling: the integer view is the lifted Fraction
    system, directions are not scaled, the gate works in x (the exponent
    lattice of all ones, so powers stay Fractions), and the Lie gate is the
    product form in x."""
    monkeypatch.setattr(detection, "integer_view", lift_exact)
    monkeypatch.setattr(detection, "primitive", tuple)
    monkeypatch.setattr(catalog3d, "primitive", tuple)
    monkeypatch.setattr(detection, "lattice", _x_lattice)
    monkeypatch.setattr(detection, "lie_genpoly", _x_product_lie)


def _outcome(s):
    rules = RULES_2D if s.dim == 2 else RULES_3D
    dets, cands = detection.run_rules(s, rules)
    return (
        [
            (
                json.dumps(d.to_json_obj(), sort_keys=True),
                repr(d.params),
                d.paper_formula_deviation,
                repr(d.ansatz),
                d.H_gen,
            )
            for d in dets
        ],
        [(c.rule_id, c.sigma, repr(c.params), c.reason) for c in cands],
    )


def _corpus():
    rng = random.Random(12)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    drawn = [sampler(rng) for _, sampler in samplers for _ in range(6)]
    return list(
        itertools.chain(
            drawn,
            (to_float(s)[0] for s in drawn),  # denominators 2^k
            _sparse_integer_systems(3, 500),
            DEGENERATE,
        )
    )


def test_integer_view_gives_the_fraction_path_output(monkeypatch):
    systems = _corpus()
    got = [_outcome(s) for s in systems]
    _fraction_path(monkeypatch)
    want = [_outcome(s) for s in systems]
    found = failed = deviations = 0
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, (k, systems[k])
        found += bool(w[0])
        failed += bool(w[1])
        deviations += sum(dev is not None for _, _, dev, _, _ in w[0])
    assert found > 500 and failed > 50 and deviations > 100, (found, failed, deviations)
    # Fraction types survive in params (PINNED_JSON pins them too)
    assert all("Fraction(" in p or p == "{}" for g in got for _, p, _, _, _ in g[0])


# -- the one-pass Lie derivative -------------------------------------------------


def _random_genpoly(rng, n) -> GenPoly:
    H = GenPoly.zero(n)
    for _ in range(rng.randint(1, 7)):
        powers = [rng.choice((0, 0, 1, 2, -1, -2, F(1, 2), F(-2, 3), F(5, 3))) for _ in range(n)]
        logs = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
        coeff = F(rng.randint(-5, 5), rng.randint(1, 4)) or F(1)
        H = H + GenPoly.term(n, coeff, powers, logs)
    return H


def _random_system(rng, n, with_e):
    def q():
        return 0 if rng.random() < 0.3 else F(rng.randint(-4, 4), rng.randint(1, 3))

    return make_system(
        b=[q() for _ in range(n)],
        A=[[q() for _ in range(n)] for _ in range(n)],
        e=[q() if with_e else 0 for _ in range(n)],
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("with_e", [False, True])
def test_one_pass_lie_derivative_equals_product_form(n, with_e):
    rng = random.Random(100 * n + with_e)
    kinds = set()
    for _ in range(300):
        s = _random_system(rng, n, with_e)
        H = _random_genpoly(rng, n)
        for view in (s, detection.integer_view(s)):
            assert potential.lie_genpoly(H, view).terms == _product_lie(H, view).terms
        for (p, k) in H.terms:
            kinds.update(("fraction" if type(q) is F else "int") for q in p)
            kinds.update(f"log{q}" for q in k if q)
    assert kinds == {"int", "fraction", "log1", "log2"}


def test_one_pass_lie_derivative_on_detections():
    """On detected integrals, where the Lie derivative cancels to zero, and
    on the same integrals moved off by x1, where it does not."""
    rng = random.Random(7)
    x1 = GenPoly.term(3, 1, (1, 0, 0))
    checked = 0
    for _, sampler in sorted(SAMPLERS_3D.items()):
        s = sampler(rng)
        for d in catalog3d.detect3d(s):
            if d.H_gen is None:
                continue
            assert potential.lie_genpoly(d.H_gen, s).is_zero()
            moved = d.H_gen + x1
            one_pass = potential.lie_genpoly(moved, s)
            assert one_pass.terms == _product_lie(moved, s).terms
            checked += not one_pass.is_zero()
    assert checked > 20


# -- the integer exponent lattice ------------------------------------------------


def test_exponent_lattice_gives_the_x_space_output(monkeypatch):
    """The gate on each match's exponent lattice (y = x^(1/d), the residual
    scaled by lcm(d)) against the gate forced to the lattice of all ones,
    which is the x-space computation with Fraction powers."""
    rng = random.Random(31)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    drawn = [sampler(rng) for _, sampler in samplers for _ in range(4)]
    systems = list(
        itertools.chain(
            itertools.chain.from_iterable(_relabeled_copies(s) for s in drawn),
            _sparse_integer_systems(3, 500),
        )
    )
    lattices = []

    def recorded(l):
        d = potential.lattice(l)
        lattices.append(d)
        return d

    monkeypatch.setattr(detection, "lattice", recorded)
    got = [_outcome(s) for s in systems]
    monkeypatch.setattr(detection, "lattice", _x_lattice)
    want = [_outcome(s) for s in systems]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, (k, systems[k])
    fractional = sum(any(di > 1 for di in d) for d in lattices)
    found = sum(bool(w[0]) for w in want)
    assert fractional > 500 and found > 1500, (fractional, found)


def _to_lattice(H: GenPoly, d) -> GenPoly:
    """H(x) as a function of y = x^(1/d): x^p ln|x|^k is
    d^k y^(d p) ln|y|^k (the inverse of potential.from_lattice)."""
    out = {}
    for (p, k), c in H.terms.items():
        scale = 1
        for di, ki in zip(d, k):
            scale *= di**ki
        powers = tuple(int(di * q) for di, q in zip(d, p))
        out[(powers, k)] = c * scale
    return GenPoly(H.nvars, out)


def _denominators(H: GenPoly) -> tuple:
    n = H.nvars
    return tuple(
        math.lcm(*(F(p[i]).denominator for p, _ in H.terms)) if H.terms else 1
        for i in range(n)
    )


def _random_lattice_genpoly(rng, n, d) -> GenPoly:
    H = GenPoly.zero(n)
    for _ in range(rng.randint(1, 7)):
        powers = [F(rng.randint(-6, 6), di) for di in d]
        logs = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
        coeff = F(rng.randint(-5, 5), rng.randint(1, 4)) or F(1)
        H = H + GenPoly.term(n, coeff, powers, logs)
    return H


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_lie_derivative_is_the_x_space_one_times_lcm(n):
    """lie_genpoly(H_y, s, lattice=d) is lcm(d) times the x-space Lie
    derivative of H, carried to y term by term, so the two zero tests agree;
    random H with proper-fraction powers and log terms (nonzero cases)."""
    rng = random.Random(40 + n)
    nonzero = 0
    for _ in range(300):
        d = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(n))
        H = _random_lattice_genpoly(rng, n, d)
        Hy = _to_lattice(H, d)
        assert from_lattice(Hy, d) == H
        assert all(type(q) is int for p, _ in Hy.terms for q in p)
        s = _random_system(rng, n, rng.random() < 0.5)
        for view in (s, detection.integer_view(s)):
            want = lie_genpoly(H, view)
            got = lie_genpoly(Hy, view, lattice=d)
            scaled = _to_lattice(want, d)
            big = math.lcm(*d)
            assert got.terms == {key: big * c for key, c in scaled.terms.items()}
            assert got.is_zero() == want.is_zero()
        nonzero += not want.is_zero()
    assert nonzero > 280


def test_lattice_lie_derivative_on_detected_integrals():
    """Zero cases: every detected integral, carried to the lattice of its
    own powers' denominators, has a zero lattice Lie derivative; moved off
    by a term on that lattice it has a nonzero one, as in x."""
    rng = random.Random(8)
    zero = moved = 0
    for _, sampler in sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items()):
        for _ in range(3):
            s = sampler(rng)
            rules = RULES_2D if s.dim == 2 else RULES_3D
            for det in detection.run_rules(s, rules)[0]:
                if det.H_gen is None:
                    continue
                n, H = s.dim, det.H_gen
                d = _denominators(H)
                for view in (s, detection.integer_view(s)):
                    assert lie_genpoly(_to_lattice(H, d), view, lattice=d).is_zero()
                zero += any(di > 1 for di in d)
                off = H + GenPoly.term(n, 1, [F(1, di) for di in d], [1] + [0] * (n - 1))
                got = lie_genpoly(_to_lattice(off, d), s, lattice=d)
                assert got.is_zero() == lie_genpoly(off, s).is_zero()
                moved += not got.is_zero()
    assert zero > 40 and moved > 120, (zero, moved)
