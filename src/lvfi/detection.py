"""Detection records and the shared rule-matching engine.

A rule is tried on every coordinate relabeling that maps the system onto the
rule's canonical constant-term pattern, so the "follows by symmetry" cases are
covered mechanically instead of by hand-written mirror rules.  Every match
must pass an exact gate before it becomes a Detection:

  * rules realized inside an integrating-factor Ansatz: the curl residual must
    be the zero Laurent polynomial, then the integral is reconstructed from
    the gradient field T f and the reconstruction is verified termwise;
  * rules stated directly (monomial/log integrals outside the Ansatz charts):
    the symbolic Lie derivative f . grad H must be identically zero in exact
    arithmetic.

A match whose exact gate fails is demoted to a diagnostic candidate, never
silently dropped.

The decisions run on integers.  For c > 0, the system with (b, A, e)
scaled by c is the same flow with time t' = c t, so it has the same first
integrals, and a condition polynomial homogeneous in (b, A, e) of degree k
takes c^k times its value, so it has the same zero set.  Every printed
residual, guard and solve row, every oracle condition row and the
DependentRows and L5-6 columns are homogeneous (tests/test_integer_view.py
checks this), each row of a solve homogeneous of one degree, so the row space, the
nullspace and the solution are unchanged.  run_rules therefore decides the
scale-free steps on integer_view(s), scaled to primitive integers, and
reads the Fraction system only where the scale shows: params, the hand
matchers, the integrals outside GenPoly and the conditions of the printed
forms' audited verdicts (Rule.compare_printed).  The integral built on the
integer view is a nonzero multiple of the one built on the Fraction system,
and normalize_for_output removes the multiple.

The exponents stay on integers too.  An Ansatz factor x^(l-1) has rational
exponents l_i; with d_i the denominator of l_i, the gate builds T f/R once
per factor and works on the lattice y_i = x_i^(1/d_i) (potential.lattice).
The curl residual is scaled by D = lcm(d), so its factors D (p + l - 1) are
ints; the gradient targets, the potential and the Lie gate are taken in y,
where every power is an int, and H is mapped back to x once
(potential.from_lattice).  Each step is a change of variables or a nonzero
scale, so every zero test is the one in x, and the H mapped back is the
x-space potential term for term.  Whole exponents are the lattice of all
ones, where each step is the x-space one.

Exact work that rules and relabelings share is done once per run_rules
call, in tables that live only for that call.  The relabelings whose integer
view fits a constant-term pattern are listed once per distinct pattern, so
the case split on which e_i vanish is made once for all the rules that share
it.  The nullspace of each set of rows is computed once (RowNullspaces), so
L4-3, L5-5 and L5-6 share the nullspaces of each coordinate pair, and not
at all when a nonzero entry or 2x2 minor shows it trivial.  Each
relabeling's integer view is permuted once, and its Fraction view only when
a hand matcher or a gate reads it.  Each integrating factor is gated once,
and each integral is emitted once, with the detections and candidates of
gating every match and collapsing duplicates afterwards (the reference in
tests/test_detection.py):

  * the gate's outcome, the failure reason or the integral, is kept under
    _factor_key: the factor in the original coordinates up to a scalar,
    whatever rule family or relabeling built it.  For T' = c T,
    H' = c H + const, so every step of the gate agrees, and a later match
    with that factor reuses the outcome for its own Detection or Candidate;
  * a match is skipped when an earlier match of its rule family with the
    same factor passed the gate, or for an integral outside GenPoly
    (H_expr) the same integral (_expr_key): it would have been collapsed.
    A factor whose match failed never skips a later match, whose candidate
    must still be reported;
  * the gate keys a GenPoly integral in output form (_integral_key) right
    after construction, and a key the rule family already emitted collapses
    the match before the Lie gate, whose outcome is the same for the same
    integral up to a scalar and an additive constant.
    That is the one collapse of a stated integral, which has no factor key,
    and of a differing factor that builds an emitted integral (L5-8c).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Optional

from . import expr as ex
from . import oracle
from .linalg import nullspace_candidates, primitive
from .model import LVSystem, Permutation, lift_exact, permute_system
from .oracle import AnsatzSpec, residual_2d, residual_3d
from .poly import GenPoly, canonical
from .potential import (
    ConstructionError,
    from_lattice,
    genpoly_to_expr,
    gradient_targets_2d,
    gradient_targets_3d,
    lattice,
    lie_genpoly,
    normalize_for_output,
    potential,
)


@dataclass
class Match:
    """One successful rule instantiation on a (possibly permuted) system."""

    params: dict[str, Fraction]
    ansatz: Optional[tuple[str, tuple, tuple]] = None  # (kind, abg, l)
    H_gen: Optional[GenPoly] = None  # directly stated integral
    H_expr: Optional[ex.Expr] = None  # integrals outside the GenPoly algebra
    lie_zero_check: Optional[Callable[[LVSystem], bool]] = None  # for H_expr
    dedup_key: Optional[tuple] = None  # for H_expr: (vector, scalars, invariants)
    subid: str = ""  # branch label appended to the rule id


@dataclass
class Rule:
    id: str
    citation: str
    dim: int
    pattern: Optional[tuple]  # per-coordinate: True nonzero, False zero, None any
    match: Callable[[LVSystem], list[Match]]
    residuals: list[str] = field(default_factory=list)
    guards: list[str] = field(default_factory=list)
    sample: Optional[Callable] = None  # rng -> on-manifold LVSystem
    # (s2, Match, H2) -> str: the audited verdict on the paper's printed
    # integral (catalog3d._PrintedVerdict), a detection's
    # paper_formula_deviation
    compare_printed: Optional[Callable] = None
    notes: list[str] = field(default_factory=list)
    # (kind, direction template, exponent template) when the matcher is
    # derived from the Ansatz (catalog3d._ConstantDirection)
    ansatz: Optional[tuple] = None
    # (condition on the match, label) for a derived matcher: the first that
    # holds labels a match (Match.subid), and a match none fits is dropped
    subcases: list[tuple[str, str]] = field(default_factory=list)
    # The matcher gives the same matches when (b, A, e) is scaled by a
    # positive constant, so run_rules hands it the primitive-integer view
    # and its table of row nullspaces, as match(s, nullspaces)
    # (RowNullspaces; DependentRows, L5-6, catalog3d._ConstantDirection).
    scale_free: bool = False

    @property
    def family(self) -> str:
        return self.id.split("/")[0]

    def conditions(self) -> dict:
        """The rule's condition report, as `lvfi catalog` prints it; the
        notes list the subcases first, in the order they are tried."""
        ids = [f"{self.id}/{v}" if v else self.id for _, v in self.subcases]
        return {
            "id": self.id,
            "citation": self.citation,
            "dim": self.dim,
            "residuals": list(self.residuals),
            "guards": list(self.guards),
            "notes": [f"reported as {i} where {c}" for i, (c, _) in zip(ids, self.subcases)]
            + list(self.notes),
        }


_CONDITION_NAME = re.compile(
    r"\b(?:a([1-3])([1-3])|([bel])([1-3])|(alpha|beta|gamma)'?|(A[1-3][1-3]|B[1-3]))"
    r"(?![\w'])"
)
_DIRECTION_INDEX = {"alpha": 0, "beta": 1, "gamma": 2}

# The T2 term table (catalog3d.term_table): each entry is linear in the
# direction d = (alpha, beta, gamma).
_TERM_TABLE = {
    "B1": "b[0]*d[0] - b[2]*d[2]",
    "B2": "b[1]*d[0] + b[2]*d[1]",
    "B3": "b[0]*d[1] + b[1]*d[2]",
}
for _i in range(3):
    _TERM_TABLE[f"A1{_i + 1}"] = f"A[0][{_i}]*d[0] - A[2][{_i}]*d[2]"
    _TERM_TABLE[f"A2{_i + 1}"] = f"A[1][{_i}]*d[0] + A[2][{_i}]*d[1]"
    _TERM_TABLE[f"A3{_i + 1}"] = f"A[0][{_i}]*d[1] + A[1][{_i}]*d[2]"


def _condition_name(m: re.Match) -> str:
    if m[1]:
        return f"A[{int(m[1]) - 1}][{int(m[2]) - 1}]"
    if m[3]:
        return f"{m[3]}[{int(m[4]) - 1}]"
    if m[6]:
        return f"({_TERM_TABLE[m[6]]})"
    return f"d[{_DIRECTION_INDEX[m[5]]}]"


def condition_source(text: str) -> str:
    """Python source of one printed condition, a residual polynomial or a
    guard comparison over the coefficient names b1, a23, e3, ..., the
    direction names alpha, beta, gamma (primed or not), the exponent names
    l1..l3 and the T2 term-table names B1..B3, A11..A33.  It reads b, A, e
    (the system's coefficients), d (the Ansatz direction) and l (the Ansatz
    exponents).  An implicit product ``(..)(..)`` and ``^`` for powers are
    accepted.  Raises ValueError for text that is not such a condition
    (prose)."""
    src = _CONDITION_NAME.sub(
        _condition_name, text.replace(")(", ")*(").replace("^", "**")
    )
    try:
        code = compile(src, "<condition>", "eval")
    except SyntaxError:
        raise ValueError(f"not a condition on the coefficients: {text!r}") from None
    if not set(code.co_names) <= {"b", "A", "e", "d", "l"}:
        raise ValueError(f"not a condition on the coefficients: {text!r}")
    return src


def condition_function(source: str) -> Callable:
    """(b, A, e, d=(), l=()) -> value of a condition source at the direction
    d and the exponents l.  The coefficients may be Fractions or SymPoly
    symbols."""
    return eval(f"lambda b, A, e, d=(), l=(): {source}", {"__builtins__": {}})


class DependentRows:
    """Matcher of an integral stated from linearly dependent rows.

    For the 0-based coordinates i in ``coords``, each nullspace candidate v
    of the columns (b_i, a_i1, ..., a_in) gives sum_i v_i (b_i + sum_j a_ij
    x_j) = 0.  Where those e_i vanish (the rule's pattern), the sum is
    sum_i v_i x_i'/x_i, so H = sum_i v_i ln|x_i| (``log``) or the monomial
    prod_i x_i^(v_i) is a first integral.  ``names`` label the v_i in the
    match's params.
    """

    def __init__(self, coords: tuple, names: tuple = (), log: bool = False) -> None:
        self.coords, self.names, self.log = coords, names, log

    def nullspace(self, s: LVSystem, nullspaces: Optional[Callable] = None) -> list:
        """nullspace_candidates of the columns.  When run_rules hands over
        its table (RowNullspaces) with the integer view, the table is not
        asked if an entry or a 2x2 integer minor of the columns shows them
        independent: there is no candidate.  Those zero tests read the same
        homogeneous columns, so they too are scale-free."""
        cs = self.coords
        rows = [tuple(s.b[i] for i in cs)] + [tuple(s.A[i][j] for i in cs) for j in range(s.dim)]
        if nullspaces is None:
            return nullspace_candidates(rows)
        return [] if _independent_columns(rows) else nullspaces(rows)

    def __call__(self, s: LVSystem, nullspaces: Optional[Callable] = None) -> list[Match]:
        n, cs = s.dim, self.coords
        out = []
        for v in self.nullspace(s, nullspaces):
            if self.log:
                H = GenPoly.zero(n)
                for i, vi in zip(cs, v):
                    H = H + GenPoly.term(n, vi, (0,) * n, [int(k == i) for k in range(n)])
            else:
                exps = [0] * n
                for i, vi in zip(cs, v):
                    exps[i] = vi
                H = GenPoly.term(n, 1, exps)
            out.append(Match(params=dict(zip(self.names, v)), H_gen=H))
        return out


def _independent_columns(rows) -> bool:
    """Whether the entries of rows, one or two columns, show the columns
    linearly independent, so that only the zero vector is in their
    nullspace: one column with a nonzero entry, or two columns with a
    nonzero 2x2 minor."""
    if len(rows[0]) == 1:
        return any(r for (r,) in rows)
    return any(p0 * q1 != p1 * q0 for (p0, p1), (q0, q1) in combinations(rows, 2))


class RowNullspaces:
    """nullspace_candidates of each set of rows, computed once per run_rules
    call and read by the scale-free matchers.  The candidates depend on the
    row space alone (the reduced row echelon form is unique, linalg), so the
    rows are keyed as a set: two relabelings list the columns of one pair of
    coordinates in different orders (L5-6, and L5-5's DependentRows)."""

    def __init__(self) -> None:
        self.table: dict = {}

    def __call__(self, rows) -> list:
        key = frozenset(rows)
        found = self.table.get(key)
        if found is None:
            found = self.table[key] = nullspace_candidates(rows)
        return found


@dataclass
class Detection:
    """A matched rule with its instantiated first integral."""

    rule_id: str
    citation: str
    sigma: tuple[int, ...]
    params: dict[str, Fraction]
    integral: ex.Expr
    oracle_kind: str  # "curl-residual-zero" | "exact-lie-zero"
    paper_formula_deviation: Optional[str] = None
    verification: Optional[dict] = None
    H_gen: Optional[GenPoly] = None
    ansatz: Optional[tuple] = None  # (kind, abg, l) when Ansatz-realized

    def to_json_obj(self) -> dict:
        def num(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
            return v

        return {
            "rule": self.rule_id,
            "citation": self.citation,
            "sigma": [i + 1 for i in self.sigma],
            "params": {k: num(v) for k, v in self.params.items()},
            "integral_pretty": ex.pretty(self.integral),
            "integral_ast": ex.to_json_obj(self.integral),
            "oracle": self.oracle_kind,
            "paper_formula_deviation": self.paper_formula_deviation,
            "verification": self.verification,
        }


@dataclass
class Candidate:
    """A rule match that failed its exact gate (diagnostic, not a result)."""

    rule_id: str
    sigma: tuple[int, ...]
    params: dict[str, Fraction]
    reason: str


def integer_view(s: LVSystem) -> LVSystem:
    """The exact system s with (b, A, e) scaled by one positive rational to
    integers with no common factor (linalg.primitive).  It is s with time
    rescaled, so it has the same first integrals and every condition
    homogeneous in (b, A, e) has the same zero set on it."""
    sx = lift_exact(s)
    n = sx.dim
    flat = primitive([*sx.b, *(a for row in sx.A for a in row), *sx.e])
    return LVSystem(
        dim=n,
        b=flat[:n],
        A=tuple(flat[n + i * n : n + (i + 1) * n] for i in range(n)),
        e=flat[n + n * n :],
        kind=sx.kind,
    )


def pattern_ok(pattern, s: LVSystem) -> bool:
    if pattern is None:
        return True
    for want, ei in zip(pattern, s.e):
        if want is True and ei == 0:
            return False
        if want is False and ei != 0:
            return False
    return True


def _permute_genpoly(H: GenPoly, sigma: tuple[int, ...]) -> GenPoly:
    """Pull a potential on the permuted system back to original coordinates.

    The permuted system's variable i is the original variable sigma(i), so a
    term exponent at position i moves to position sigma(i).
    """
    out = {}
    for (p, k), c in H.terms.items():
        np = [0] * len(p)
        nk = [0] * len(k)
        for i in range(len(p)):
            np[sigma[i]] = p[i]
            nk[sigma[i]] = k[i]
        out[(tuple(np), tuple(nk))] = c
    return GenPoly(H.nvars, out)


def run_rules(s: LVSystem, rules: list[Rule]) -> tuple[list[Detection], list[Candidate]]:
    """Apply every rule under every pattern-compatible relabeling.

    Each relabeling has an integer view (integer_view, permuted once per
    relabeling), which every scale-free step reads: the pattern test, the
    scale_free matchers, the curl residual, the gradient targets, the
    potential and the Lie gate.  Its Fraction view, which the hand matchers,
    H_expr integrals and printed-form verdicts read, is permuted when first
    read.  The exact work that rules and relabelings share is done once per
    call: the relabelings that fit each distinct constant-term pattern
    (pattern_ok, tested when a rule with that pattern first comes up), the
    nullspace of each set of rows (RowNullspaces) and the gate of each
    integrating factor (_gate_and_build).  Rules run in order, each over its
    fitting relabelings in Permutation.all order, as if every relabeling
    were tested for every rule.
    """
    sx = lift_exact(s)
    sxi = integer_view(sx)
    relabeled = [(p, permute_system(sxi, p)) for p in Permutation.all(s.dim)]
    fraction_views: dict = {}

    def fraction_view(p: Permutation) -> LVSystem:
        if p.sigma not in fraction_views:
            fraction_views[p.sigma] = permute_system(sx, p)
        return fraction_views[p.sigma]

    nullspaces = RowNullspaces()
    fitting: dict = {}  # rule.pattern -> the relabelings whose view fits it
    gates: dict = {}  # _factor_key -> _Gate of that integrating factor
    detections: list[Detection] = []
    candidates: list[Candidate] = []
    seen: set = set()  # _integral_key of every detection, added by the gate
    passed: set = set()  # (family, factor) of every match that passed the gate
    for rule in rules:
        fits = fitting.get(rule.pattern)
        if fits is None:
            fits = fitting[rule.pattern] = [
                (p, s2i) for p, s2i in relabeled if pattern_ok(rule.pattern, s2i)
            ]
        for p, s2i in fits:
            if rule.scale_free:
                matches = rule.match(s2i, nullspaces)
            else:
                matches = rule.match(fraction_view(p))
            for m in matches:
                if m.H_expr is not None:
                    fkey, pkey = None, _expr_key(rule, m, p.sigma)
                else:
                    fkey = _factor_key(m, p.sigma)
                    pkey = None if fkey is None else (rule.family, fkey)
                if pkey in passed:
                    continue
                det, cand = _gate_and_build(rule, fraction_view(p), s2i, p, m, seen, gates, fkey)
                if cand is not None:
                    candidates.append(cand)
                    continue
                if pkey is not None:
                    passed.add(pkey)
                if det is not None:  # None: an integral already emitted
                    detections.append(det)
    return detections, candidates


def _factor_key(m: Match, sigma: tuple[int, ...]) -> Optional[tuple]:
    """The integrating factor of an Ansatz match in the original coordinates
    and up to a nonzero scalar, or None for a match that states its
    integral (H_gen, H_expr).

    Entry (i, j) of T/R on the relabeled system is a monomial c x^w
    (oracle.T_WEIGHTS; -x^0 at (1, 2) in 2D), so T holds c x^(l-1+w) at
    (sigma(i), sigma(j)) of the original coordinates, and -c x^(l-1+w) at
    (sigma(j), sigma(i)).  The key is D, the common denominator of the
    exponents l, and the upper triangle of T: the exponents times D as ints,
    and the coefficients scaled to primitive integers with a positive first
    entry.  Every exponent vector holds all of l - 1, so equal factors have
    one D, and the key is the same exactly for proportional factors,
    whatever the rule or the relabeling.
    """
    if m.ansatz is None or m.H_expr is not None:
        return None
    kind, abg, l = m.ansatz
    if kind == "2d-exponents":
        abg = (1,)
    n = len(sigma)
    den = lcm(*(v.denominator for v in l))
    lm1 = [v.numerator * (den // v.denominator) - den for v in l]
    entries = []
    for (i, j), w, c in zip(combinations(range(n), 2), oracle.T_WEIGHTS[kind], primitive(abg)):
        if not c:
            continue
        exps = [0] * n
        for k, q in enumerate(lm1):
            exps[sigma[k]] = q + den * w[k]
        si, sj = sigma[i], sigma[j]
        entries.append(((si, sj), -c, tuple(exps)) if si < sj else ((sj, si), c, tuple(exps)))
    entries.sort()
    if entries and entries[0][1] < 0:
        entries = [(ij, -c, exps) for ij, c, exps in entries]
    return den, tuple(entries)


def ansatz_residual(s: LVSystem, kind: str, abg, l, *, t=None, scale=1) -> list[GenPoly]:
    """Curl-residual components of an Ansatz (kind, abg, l) on system s, in
    the coordinates of s, times scale; all zero exactly when T is an
    integrating factor.  t is T f/R (oracle._t_components) when the caller
    has it."""
    if kind == "2d-separable":
        return [residual_2d(s, *abg)]
    if kind == "2d-exponents":
        # resolved on the oracle module at call time, so a tracer patching
        # oracle.residual_2d_exponents sees this call
        return [
            oracle.residual_2d_exponents(
                (s.b, s.A, s.e), *map(canonical, l), t=t, scale=scale
            )
        ]
    return residual_3d(s, AnsatzSpec(kind), abg, l, t=t, scale=scale)


@dataclass
class _Gate:
    """The gate's outcome for one integrating factor, or for one stated
    integral: why it failed, or the integral.  H is normalize_for_output of
    the integral in the original coordinates, Hn its output form
    (_canonical_monomial).  lie holds (H on the lattice, the integer view it
    was built on, the lattice) until the Lie gate has run or is known to
    pass; expr is genpoly_to_expr(Hn), built for the first detection."""

    reason: Optional[str] = None
    H: Optional[GenPoly] = None
    Hn: Optional[GenPoly] = None
    lie: Optional[tuple] = None
    expr: Optional[ex.Expr] = None


def _construct(s2i, p: Permutation, m: Match) -> _Gate:
    """The integral of a GenPoly match on the integer view s2i of relabeling
    p, up to its Lie gate.

    The T1/T2 direction and the exponents do not scale with (b, A, e), so
    the residual, the targets and the potential read s2i, with the
    direction scaled to primitive integers too (each is linear in it).  On
    these views T f and the potential are positive multiples of those on
    the Fraction system; the zero tests are unchanged, and
    normalize_for_output removes the scale.  T f/R is built once and read
    by the residual and the targets; the targets and the potential work on
    the match's exponent lattice (module docstring), and a stated integral
    is taken in x.  H mapped back to x and to the original coordinates is
    what the key and the output read.
    """
    n = s2i.dim
    if m.H_gen is not None:
        Hy, d = m.H_gen, (1,) * n
    else:
        kind, abg, l = m.ansatz
        l = tuple(map(canonical, l))
        abg = (1,) if kind == "2d-exponents" else primitive(abg)
        t = oracle._t_components(n, s2i.b, s2i.A, s2i.e, kind, abg)
        d = lattice(l)
        comps = ansatz_residual(s2i, kind, abg, l, t=t, scale=lcm(*d))
        if not all(c.is_zero() for c in comps):
            return _Gate("curl residual not identically zero")
        try:
            if n == 2:
                targets = gradient_targets_2d(s2i, l, t=t, lattice=d)
            else:
                targets = gradient_targets_3d(s2i, kind, abg, l, t=t, lattice=d)
            Hy = potential(targets)
        except ConstructionError as exc:
            return _Gate(f"construction: {exc}")
    H = normalize_for_output(_permute_genpoly(from_lattice(Hy, d), p.sigma))
    if H.is_zero():
        # H is constant, so its Lie derivative is zero
        return _Gate("constant integral")
    return _Gate(H=H, Hn=_canonical_monomial(H), lie=(Hy, s2i, d))


def _gate_and_build(
    rule: Rule, s2, s2i, p: Permutation, m: Match, seen: set,
    gates: Optional[dict] = None, fkey: Optional[tuple] = None,
):
    """Gate one match on the relabeled system s2 (Fractions) and its integer
    view s2i.  Returns (None, None) for an integral already in seen
    (_integral_key), and adds the key of one that passes.

    A GenPoly match's gate outcome (_Gate) is looked up in gates under its
    integrating factor fkey (_factor_key), and built (_construct) and stored
    there when missing.  For T' = c T, H' = c H + const, and a relabeling
    renames the coordinates, so every step of the gate agrees on matches
    with one key, whatever their family or relabeling; each still yields
    its own Candidate or Detection.  The key of an emitted integral is
    checked before the Lie gate: an integral already emitted passed it, up
    to a scalar and an additive constant.  The Lie gate reads the integer
    view the integral was built on, the original system's integer view with
    the coordinates renamed, so its zero test is the one in the original
    coordinates.  A detection's paper_formula_deviation is its rule's
    audited verdict on the printed integral (Rule.compare_printed), which
    reads s2 and H pulled back to the coordinates of s2.
    """
    if m.H_expr is not None:
        return _gate_expr(rule, s2, p, m)
    gate = None if gates is None else gates.get(fkey)
    if gate is None:
        gate = _construct(s2i, p, m)
        if gates is not None and fkey is not None:
            gates[fkey] = gate
    if gate.reason is None:
        key = _integral_key(rule.family, gate.Hn)
        if key in seen:
            gate.lie = None
            return None, None
        if gate.lie is not None:
            Hy, si, d = gate.lie
            gate.lie = None
            if not lie_genpoly(Hy, si, lattice=d).is_zero():
                gate.reason = "exact Lie derivative nonzero on original system"
    if gate.reason is not None:
        return None, Candidate(rule.id, p.sigma, m.params, gate.reason)
    seen.add(key)
    deviation = None
    if rule.compare_printed is not None:
        H2 = _permute_genpoly(gate.H, p.inverse().sigma)
        deviation = rule.compare_printed(s2, m, H2)
    if gate.expr is None:
        gate.expr = genpoly_to_expr(gate.Hn)
    return _detection(
        rule, p, m, gate.expr,
        "curl-residual-zero" if m.ansatz is not None else "exact-lie-zero",
        paper_formula_deviation=deviation, H_gen=gate.Hn,
    ), None


def _gate_expr(rule: Rule, s2, p: Permutation, m: Match):
    """Gate an integral outside the GenPoly algebra (log of a polynomial)
    on the Fraction system s2.  The separable chart's parameters carry the
    coefficients' scale, so its residual reads s2 too."""
    if m.ansatz is not None and not all(c.is_zero() for c in ansatz_residual(s2, *m.ansatz)):
        return None, Candidate(rule.id, p.sigma, m.params, "curl residual not identically zero")
    if m.lie_zero_check is not None and not m.lie_zero_check(s2):
        return None, Candidate(rule.id, p.sigma, m.params, "exact Lie-derivative check failed")
    H_expr = ex.substitute_vars(m.H_expr, {i: p.sigma[i] for i in range(s2.dim)})
    oracle_kind = "curl-residual-zero" if m.ansatz is not None else "exact-lie-zero"
    return _detection(rule, p, m, ex.simplify(H_expr), oracle_kind), None


def _detection(rule: Rule, p: Permutation, m: Match, integral, oracle_kind, **kw) -> Detection:
    return Detection(
        rule_id=rule.id + (f"/{m.subid}" if m.subid else ""),
        citation=rule.citation,
        sigma=p.sigma,
        params=m.params,
        integral=integral,
        oracle_kind=oracle_kind,
        ansatz=m.ansatz,
        **kw,
    )


def _canonical_monomial(H: GenPoly) -> GenPoly:
    """A single log-free power product x^p is the same integral as x^(c p);
    canonicalize by scaling the exponent vector so its first nonzero entry
    is 1 (powers of one monomial integral then print identically)."""
    if len(H.terms) != 1:
        return H
    (p, k), _ = next(iter(H.terms.items()))
    if any(k):
        return H
    lead = next((q for q in p if q != 0), None)
    if lead is None or lead == 1:
        return H
    return GenPoly.term(H.nvars, 1, [Fraction(q) / lead for q in p], k)


def _integral_key(family: str, Hn: GenPoly) -> tuple:
    """Key of an integral in output form (normalize_for_output, then
    _canonical_monomial), which already fixes its scale and sign, so
    integrals equal up to a nonzero scalar and an additive constant, and
    powers of one monomial integral, share it."""
    return (family, frozenset(Hn.terms.items()))


def _expr_key(rule: Rule, m: Match, sigma: tuple[int, ...]) -> tuple:
    """Key of an integral outside GenPoly, in original coordinates: the
    match's dedup_key with its vector permuted to original coordinates and
    the common scale normalized, so sign/scale-equivalent integrals
    collide."""
    vec, scalars, invariants = m.dedup_key
    nv = [None] * len(vec)
    for i, v in enumerate(vec):
        nv[sigma[i]] = v
    lead = next((v for v in nv if v), None) or next((v for v in scalars if v), Fraction(1))
    return (
        rule.family,
        tuple(v / lead for v in nv),
        tuple(v / lead for v in scalars),
        tuple(invariants),
    )
