"""The primitive-integer view of a system, and the one-pass Lie derivative.

run_rules decides on a copy of the system scaled to primitive integers
(detection.integer_view): the pattern test, every matcher, the curl
residual, the gradient targets, the potential and the Lie gate.  Scaling
(b, A, e) by a positive constant rescales time, so this is exact as long as
every condition those steps test is homogeneous in (b, A, e).  The first
tests check that invariant on everything the derived matchers compile; the
next ones keep the Fraction path (no scaling, the gate in x with Fraction
powers, and the Lie derivative as the product sum f_i dH/dx_i) as the
reference and require equal output, and a time rescale of the digest
corpus's draws must give the same detections and candidates.  The last ones
check the integer exponent lattice: the gate in y = x^(1/d) against the gate
forced to the lattice of all ones, for Ansatz integrals and stated
monomials, the lattice Lie derivative against the one in x, and the
potential of the targets scaled by D (potential.integer_field), whose
coefficients are ints.
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
from lvfi.detection import DependentRows, Match, Rule, condition_function, pattern_ok
from lvfi.linalg import primitive
from lvfi.model import LVSystem, Permutation, lift_exact, make_system, permute_system
from lvfi.potential import (
    ConstructionError,
    from_lattice,
    gradient_targets_2d,
    gradient_targets_3d,
    integer_field,
    lie_genpoly,
    normalize_for_output,
)
from lvfi.oracle import _symbolic_system
from lvfi.poly import GenPoly, SymPoly

from conftest import to_float
from test_detection import _relabeled_copies, _sparse_integer_systems
from test_digest import DEGENERATE, SAMPLES_PER_RULE
from test_digest import _corpus as _digest_corpus
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
    return [r.match for r in RULES_2D + RULES_3D if isinstance(r.match, _ConstantDirection)]


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
    """The columns of DependentRows and of the pairs that R2D-D and L5-6
    read, whose params are ratios within the pairs' nullspaces, so they are
    scale-free too."""
    b, A, e, _, _ = _symbols()
    seen = []
    monkeypatch.setattr(detection, "nullspace_candidates", lambda rows: seen.append(rows) or [])
    rules = [r for r in RULES_2D + RULES_3D if isinstance(r.match, DependentRows)]
    assert len(rules) == 4
    rules += [r for r in RULES_2D + RULES_3D if r.id in ("R2D-D", "L5-6")]
    for rule in rules:
        n = rule.dim
        s = LVSystem(n, b[:n], tuple(row[:n] for row in A[:n]), e[:n], "symbolic")
        assert rule.match(s) == []
        assert len(seen) == (2 if rule.id == "L5-6" else 1), rule.id
        while seen:
            for row in seen.pop():
                assert _homogeneous(row, _coefficient)


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


def _x_product_lie(H: GenPoly, s, lattice=None, log=None) -> GenPoly:
    assert lattice is None or set(lattice) == {1}, lattice
    if log is None:
        return _product_lie(H, s)
    c, P = log  # the integral H + c ln|P|, its Lie derivative times P
    return _product_lie(H, s) * P + _product_lie(P, s).scale(c)


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


def _printed(s, verdicts=True) -> tuple[list, list]:
    """The JSON form of each detection (verification excluded, and the
    printed-form verdict too unless verdicts) and each failed candidate's
    (rule, sigma, params, reason), as PINNED_JSON hashes them."""
    rules = RULES_2D if s.dim == 2 else RULES_3D
    dets, cands = detection.run_rules(s, rules)
    objs = [d.to_json_obj() for d in dets]
    for obj in objs:
        del obj["verification"]
        if not verdicts:
            del obj["paper_formula_deviation"]
    return (
        [json.dumps(obj, sort_keys=True) for obj in objs],
        [(c.rule_id, c.sigma, repr(c.params), c.reason) for c in cands],
    )


def test_time_rescale_prints_the_same_detections():
    """(b, A, e) scaled by c > 0 is the same flow with time t' = c t, so it
    has the same first integrals: on the digest corpus's sampler draws
    every detection's JSON form (rule, relabeling, params, printed integral,
    verdict) is unchanged, and on the degenerate systems, whose matches
    fail the gate (the draws give no candidate), every failed candidate
    too.  A verdict's exception condition reads the Fraction system, and
    L5-7d's is not homogeneous (the printed l2 = -(a33-a13)(a13+a23), of
    degree 2, equals the exact l2): on the second degenerate system it
    holds only at scale 1, so there the verdicts are left out."""
    draws = (len(SAMPLERS_2D) + len(SAMPLERS_3D)) * SAMPLES_PER_RULE
    systems = [(s, True) for s in itertools.islice(_digest_corpus(), draws)]
    systems += [(s, False) for s in DEGENERATE]
    checked = found = failed = 0
    for s, verdicts in systems:
        want = _printed(s, verdicts)
        found += bool(want[0])
        failed += bool(want[1])
        for c in (F(3, 2), F(1, 7), F(5)):
            scaled = make_system(
                b=[c * v for v in s.b], A=[[c * v for v in row] for row in s.A], e=[c * v for v in s.e]
            )
            assert _printed(scaled, verdicts) == want, (s, c)
            checked += 1
    assert checked == 3 * len(systems) == 387
    assert found == len(systems) and failed == len(DEGENERATE), (found, failed)


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


def _genpoly_from(rng, n, powers, logs) -> GenPoly:
    H = GenPoly.zero(n)
    for _ in range(rng.randint(1, 7)):
        coeff = F(rng.randint(-5, 5), rng.randint(1, 4)) or F(1)
        H = H + GenPoly.term(
            n, coeff, [rng.choice(powers) for _ in range(n)], [rng.choice(logs) for _ in range(n)]
        )
    return H


# (powers, log powers) drawn for the terms of H
_LIE_CASES = {
    "log-free": ((0, 0, 1, 2, -1, -3), (0,)),
    "log powers": ((0, 0, 1, 2, -1, -3), (0, 1, 1, 2)),
    "fraction powers": ((0, 1, -1, F(1, 2), F(-2, 3), F(5, 3)), (0, 0, 1)),
}


@pytest.mark.parametrize("case", sorted(_LIE_CASES))
@pytest.mark.parametrize("n", [2, 3])
def test_lie_gate_loop_equals_the_product_form(case, n):
    """lie_genpoly's one loop, which takes its log branch only for the
    coordinates where a term carries a log power, against the sum of
    f_i * dH/dx_i: on log-free H (the plain branch alone), on H with log
    powers and on H with proper-fraction powers, alone and as H + c ln|P|
    with a polynomial P.  Most draws have a nonzero Lie derivative, so the
    gate can still fail."""
    powers, logs = _LIE_CASES[case]
    rng = random.Random(2200 + 10 * n + sorted(_LIE_CASES).index(case))
    nonzero = 0
    kinds = set()
    for _ in range(200):
        s = _random_system(rng, n, rng.random() < 0.5)
        H = _genpoly_from(rng, n, powers, logs)
        log = (F(rng.randint(1, 5), rng.randint(1, 3)), _genpoly_from(rng, n, (0, 1, 2), (0,)))
        for view in (s, detection.integer_view(s)):
            got = potential.lie_genpoly(H, view)
            assert got.terms == _product_lie(H, view).terms
            want = _x_product_lie(H, view, log=log)
            assert potential.lie_genpoly(H, view, log=log).terms == want.terms
        nonzero += not got.is_zero()
        for p, k in H.terms:
            kinds.update(type(q).__name__ for q in p)
            kinds.add("log" if any(k) else "log-free")
    assert nonzero > 150, nonzero
    assert kinds == {
        "log-free": {"int", "log-free"},
        "log powers": {"int", "log", "log-free"},
        "fraction powers": {"int", "Fraction", "log", "log-free"},
    }[case]


# -- the integer exponent lattice ------------------------------------------------


def test_exponent_lattice_gives_the_x_space_output(monkeypatch):
    """The gate on each match's exponent lattice (y = x^(1/d), the residual
    scaled by lcm(d)) against the gate forced to the lattice of all ones,
    which is the x-space computation with Fraction powers.  A stated
    monomial with proper-fraction powers takes its lattice from
    detection.lattice too (detection._stated_on_lattice)."""
    rng = random.Random(31)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    drawn = [sampler(rng) for _, sampler in samplers for _ in range(4)]
    systems = list(
        itertools.chain(
            itertools.chain.from_iterable(_relabeled_copies(s) for s in drawn),
            _sparse_integer_systems(3, 500),
        )
    )
    lattices, stated = [], []
    on_lattice = detection._stated_on_lattice

    def recorded(l):
        d = potential.lattice(l)
        lattices.append(d)
        return d

    def stated_recorded(H):
        Hy, d = on_lattice(H)
        stated.append(d)
        return Hy, d

    monkeypatch.setattr(detection, "lattice", recorded)
    monkeypatch.setattr(detection, "_stated_on_lattice", stated_recorded)
    got = [_outcome(s) for s in systems]
    monkeypatch.setattr(detection, "lattice", _x_lattice)
    want = [_outcome(s) for s in systems]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, (k, systems[k])
    fractional = sum(any(di > 1 for di in d) for d in lattices)
    found = sum(bool(w[0]) for w in want)
    assert fractional > 500 and found > 1500, (fractional, found)
    # stated monomials with proper-fraction powers (R2D-D, DependentRows,
    # L5-6) were gated on their lattice, through detection.lattice
    assert sum(any(di > 1 for di in d) for d in stated) > 300, stated


def _moved_monomials(rule: Rule, shift) -> Rule:
    """rule with each stated monomial x^v of its matches replaced by
    x^(v + shift): an integral no longer, with proper-fraction powers."""

    def match(s, *args):
        out = []
        for m in rule.match(s, *args):
            ((p, k), c), = m.H_gen.terms.items()
            moved = GenPoly.term(s.dim, c, [q + t for q, t in zip(p, shift)], k)
            out.append(Match(params=m.params, H_gen=moved))
        return out

    return Rule(rule.id, rule.citation, rule.dim, rule.pattern, match)


def test_stated_fractional_monomials_on_the_lattice_and_in_x(monkeypatch):
    """A stated monomial x^v with proper-fraction v is gated on
    detection.lattice(v), in y = x^(1/d) with int powers; forced to the
    lattice of all ones it is gated in x with Fraction powers.  On draws of
    R2D-D and L5-6 under every relabeling both give the same detections,
    and the same monomials with one exponent moved by 1/7 fail the exact
    Lie gate on both."""
    rules = {r.id: r for r in RULES_2D + RULES_3D}
    samplers = {**SAMPLERS_2D, **SAMPLERS_3D}
    rng = random.Random(57)
    cases = []
    for rid, shift in (("R2D-D", (0, F(1, 7))), ("L5-6", (F(1, 7), 0, 0))):
        rule = rules[rid]
        for _ in range(6):
            drawn = samplers[rid](rng)
            for s in (permute_system(drawn, p) for p in Permutation.all(drawn.dim)):
                cases += [(s, [rule], True), (s, [_moved_monomials(rule, shift)], False)]
    lattices = []

    def recorded(l):
        d = potential.lattice(l)
        lattices.append(d)
        return d

    def outcome(s, rules):
        dets, cands = detection.run_rules(s, rules)
        return (
            [(json.dumps(d.to_json_obj(), sort_keys=True), d.H_gen) for d in dets],
            [(c.rule_id, c.sigma, repr(c.params), c.reason) for c in cands],
        )

    monkeypatch.setattr(detection, "lattice", recorded)
    got = [outcome(s, rules) for s, rules, _ in cases]
    monkeypatch.setattr(detection, "lattice", _x_lattice)
    want = [outcome(s, rules) for s, rules, _ in cases]
    fractional = sum(any(di > 1 for di in d) for d in lattices)
    detected = failed = 0
    for (s, _, integral), g, w in zip(cases, got, want):
        assert g == w, s
        dets, cands = w
        if integral:
            assert dets and not cands, s
            detected += 1
        else:
            assert not dets and cands, s
            assert {c[3] for c in cands} == {"exact Lie derivative nonzero on original system"}
            failed += 1
    assert detected == failed == 6 * (2 + 6) and fractional > 300, (detected, failed, fractional)


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
                if det.log is not None:
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


def _ansatz_matches(s2i, rules):
    """(kind, abg, l) of every Ansatz match on the relabeled integer view
    s2i whose integral the gate reconstructs (no stated integral), as the
    gate reads them: l canonical and a 3D direction primitive."""
    out = []
    for rule in rules:
        if pattern_ok(rule.pattern, s2i):
            for m in rule.match(s2i):
                if m.ansatz is not None and m.H_gen is None:
                    kind, abg, l = m.ansatz
                    out.append((kind, primitive(abg) if s2i.dim == 3 else abg, l))
    return out


def test_integer_field_potential_has_int_coefficients():
    """On 4 draws of every sampler under every relabeling, at each Ansatz
    match on the integer view: the targets on the match's lattice, scaled by
    D (potential.integer_field), have a potential with int coefficients
    only, whose output form is that of the potential of the unscaled
    targets, which has Fraction coefficients where the antiderivative
    divided.  The targets bent off exactness (y2 added to the first
    component) fail the reconstruction, scaled or not."""
    rng = random.Random(61)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    built = divided = 0
    for _, sampler in samplers:
        for _ in range(4):
            si = detection.integer_view(sampler(rng))
            n = si.dim
            rules = RULES_2D if n == 2 else RULES_3D
            y2 = GenPoly.term(n, 1, [0, 1] + [0] * (n - 2))
            for p in Permutation.all(n):
                s2i = permute_system(si, p)
                for kind, abg, l in _ansatz_matches(s2i, rules):
                    d = potential.lattice(l)
                    if n == 2:
                        targets = gradient_targets_2d(s2i, l, lattice=d)
                    else:
                        targets = gradient_targets_3d(s2i, kind, abg, l, lattice=d)
                    H = potential.potential(targets)
                    Hi = potential.potential(integer_field(targets))
                    assert all(type(c) is int for c in Hi.terms.values()), (s2i, l)
                    assert normalize_for_output(from_lattice(Hi, d)) == normalize_for_output(
                        from_lattice(H, d)
                    )
                    built += 1
                    divided += any(type(c) is F for c in H.terms.values())
                    bent = [targets[0] + y2, *targets[1:]]
                    for field in (bent, integer_field(bent)):
                        with pytest.raises(ConstructionError):
                            potential.potential(field)
    assert built > 250 and divided > 50, (built, divided)


def test_hand_matchers_give_exact_numbers_on_the_integer_view():
    """On the integer view of 6 draws of the samplers of R2D-D, R2D-E and
    L5-6, under every relabeling, every param and Ansatz entry is an int or
    a Fraction, never a float, and the matches equal those on the Fraction
    view: every param (R2D-D's lambda, R2D-E's c, L5-6's nullspace entries)
    is a ratio of numbers homogeneous in (b, A, e)."""
    rules = {r.id: r for r in RULES_2D + RULES_3D}
    samplers = {**SAMPLERS_2D, **SAMPLERS_3D}
    rng = random.Random(23)
    matched = dict.fromkeys(("R2D-D", "R2D-E", "L5-6"), 0)
    for rid in matched:
        rule = rules[rid]
        for _ in range(6):
            s = lift_exact(samplers[rid](rng))
            si = detection.integer_view(s)
            for p in Permutation.all(s.dim):
                on_int = rule.match(permute_system(si, p))
                on_fraction = rule.match(permute_system(s, p))
                assert len(on_int) == len(on_fraction), (rid, s, p)
                for mi, mf in zip(on_int, on_fraction):
                    values = [*mi.params.values()]
                    if mi.ansatz is not None:
                        _, c, l = mi.ansatz
                        values += [*c, *l]
                    assert all(type(v) in (int, F) for v in values), (rid, s, p, mi)
                    assert all(type(v) is F for v in mf.params.values()), (rid, s, p, mf)
                    assert mi.params == mf.params and mi.ansatz == mf.ansatz, (rid, s, p)
                    matched[rid] += 1
    assert all(n >= 6 for n in matched.values()), matched
