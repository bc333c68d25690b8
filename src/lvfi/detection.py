"""Detection records and the shared rule-matching engine.

A rule is tried on every coordinate relabeling that maps the system onto the
rule's canonical constant-term pattern, so the "follows by symmetry" cases are
covered mechanically instead of by hand-written mirror rules.  Every match
must pass an exact gate before it becomes a Detection:

  * rules realized inside an integrating-factor Ansatz: the curl residual must
    be the zero Laurent polynomial, then the integral is reconstructed from
    the gradient field T f and the reconstruction is verified termwise;
  * rules stated directly (monomial/log integrals outside the Ansatz charts,
    and R2D-E, whose factor e^(c.x) has a stated integral): the symbolic
    Lie derivative f . grad H must be identically zero in exact arithmetic.

Every integral is a GenPoly H, plus c ln|P| for a polynomial P where the
match states one (Match.log; R2D-E's G + b2 ln|e1 + a12 x1 x2|).  So one Lie
test (potential.lie_genpoly), one key (_integral_key) and one output form
(normalize_for_output, genpoly_to_expr) serve every rule.

A match whose exact gate fails is demoted to a diagnostic candidate, never
silently dropped.  Match, Rule, Detection, Candidate and _Gate are mutable
records (record.Record): slotted, compared by class and fields, unhashable;
Rule's list fields default to a new empty list per instance.

The decisions run on integers.  For c > 0, the system with (b, A, e)
scaled by c is the same flow with time t' = c t, so it has the same first
integrals, and a condition polynomial homogeneous in (b, A, e) of degree k
takes c^k times its value, so it has the same zero set.  Every printed
residual, guard and solve row, every oracle condition row, the
DependentRows and L5-6 columns and R2D-E's conditions are homogeneous
(tests/test_integer_view.py checks this), each row of a solve homogeneous
of one degree, so the row space, the nullspace and the solution are
unchanged, and every param is a ratio of such numbers.  run_rules
therefore hands every matcher integer_view(s), scaled to primitive
integers, and reads the Fraction system only where a printed form's
audited verdict tests an exception condition (Rule.compare_printed).  The
integral built on the integer view is a nonzero multiple of the one built
on the Fraction system, and normalize_for_output removes the multiple.  A
stated integral is gated on the integer view too, whose field, and so the
Lie derivative, is a positive multiple of the Fraction system's.

The exponents stay on integers too.  An Ansatz factor x^(l-1) has rational
exponents l_i; with d_i the denominator of l_i, the gate builds T f/R once
per factor and works on the lattice y_i = x_i^(1/d_i) (potential.lattice).
The curl residual is scaled by D = lcm(d), so its factors D (p + l - 1) are
ints; the gradient targets, the potential and the Lie gate are taken in y,
where every power is an int, and H is mapped back to x and to the original
coordinates in one pass (potential.from_lattice).  A stated monomial x^v
with proper-fraction powers is gated on the lattice of v the same way
(_stated_on_lattice).  Each step is a change of variables or a nonzero
scale, so every zero test is the one in x, and the H mapped back is the
x-space potential term for term.  Whole exponents are the lattice of all
ones, where each step is the x-space one.  The coefficients stay ints
too: the targets are scaled by the lcm of the divisors their
antiderivatives meet (potential.integer_field), so the potential, the Lie
gate and the output form have int coefficients.

Exact work that rules and relabelings share is done once per run_rules
call, in tables that live only for that call.  The relabelings whose integer
view fits a constant-term pattern are listed once per distinct pattern, so
the case split on which e_i vanish is made once for all the rules that share
it.  The nullspace of each set of rows is computed once (RowNullspaces), so
L4-3, L5-5 and L5-6 share the nullspaces of each coordinate pair, and not
at all when a nonzero entry or 2x2 minor shows it trivial.  Each
relabeling's integer view is permuted once, and its Fraction view only when
a verdict's exception condition reads it.  Each integrating factor is
gated once, and each integral is emitted once, with the detections and
candidates of gating every match and collapsing duplicates afterwards (the
reference in tests/test_detection.py):

  * the gate's outcome, the failure reason or the integral, is kept under
    _factor_key: the factor in the original coordinates up to a scalar,
    whatever rule family or relabeling built it.  For T' = c T,
    H' = c H + const, so every step of the gate agrees, and a later match
    with that factor reuses the outcome for its own Detection or Candidate;
  * a match is skipped when an earlier match of its rule family with the
    same factor passed the gate: it would have been collapsed.  A factor
    whose match failed never skips a later match, whose candidate must
    still be reported;
  * the gate keys an integral in output form (_integral_key) right after
    construction, and a key the rule family already emitted collapses the
    match before the Lie gate, whose outcome is the same for the same
    integral up to a scalar and an additive constant.
    That is the one collapse of a stated integral with no Ansatz, which has
    no factor key, and of a differing factor that builds an emitted
    integral (L5-8c).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm
from typing import Callable, Optional

from . import expr as ex
from . import oracle
from .linalg import nullspace_candidates, primitive
from .model import LVSystem, Permutation, lift_exact, permute_system
from .oracle import residual_3d
from .oracle import residual_2d  # noqa: F401  (perfbench/spans.py wraps this name)
from .poly import GenPoly, canonical
from .potential import (
    ConstructionError,
    from_lattice,
    genpoly_to_expr,
    gradient_targets_2d,
    gradient_targets_3d,
    integer_field,
    lattice,
    lie_genpoly,
    normalize_for_output,
    potential,
)
from .record import Record


class Match(Record):
    """One successful rule instantiation on a (possibly permuted) system."""

    __slots__ = ("params", "ansatz", "H_gen", "log", "subid")

    def __init__(self, params: dict[str, Fraction], ansatz: Optional[tuple] = None,
                 H_gen: Optional[GenPoly] = None, log: Optional[tuple] = None, subid: str = ""):
        self.params = params
        # (kind, abg, l); in 2D abg is c of the factor e^(c.x) x^(l-1), () for c = 0
        self.ansatz = ansatz
        self.H_gen = H_gen  # directly stated integral
        self.log = log  # (c, P): the stated integral is H_gen + c ln|P|
        self.subid = subid  # branch label appended to the rule id


class Rule(Record):
    """One catalog rule; residuals, guards, notes and subcases default to a
    new empty list."""

    __slots__ = ("id", "citation", "dim", "pattern", "match", "residuals", "guards",
                 "sample", "compare_printed", "notes", "ansatz", "subcases")

    def __init__(self, id: str, citation: str, dim: int, pattern: Optional[tuple],
                 match: Callable[..., list[Match]], residuals: Optional[list[str]] = None,
                 guards: Optional[list[str]] = None, sample: Optional[Callable] = None,
                 compare_printed: Optional[Callable] = None, notes: Optional[list[str]] = None,
                 ansatz: Optional[tuple] = None, subcases: Optional[list[tuple]] = None):
        self.id = id
        self.citation = citation
        self.dim = dim
        self.pattern = pattern  # per-coordinate: True nonzero, False zero, None any
        # (s, nullspaces) -> matches on s, the relabeled primitive-integer
        # view; nullspaces is run_rules' table of row nullspaces
        # (RowNullspaces), and a matcher called without it computes its own
        self.match = match
        self.residuals = [] if residuals is None else residuals
        self.guards = [] if guards is None else guards
        self.sample = sample  # rng -> on-manifold LVSystem
        # (s2, Match) -> str: the audited verdict on the paper's printed
        # integral (catalog3d._PrintedVerdict), a detection's
        # paper_formula_deviation.  s2 is a zero-argument callable that
        # builds the relabeled Fraction system, called only where a verdict
        # tests an exception condition.
        self.compare_printed = compare_printed
        self.notes = [] if notes is None else notes
        # (kind, direction template, exponent template) when the matcher is
        # derived from the Ansatz (catalog3d._ConstantDirection)
        self.ansatz = ansatz
        # (condition on the match, label) for a derived matcher: the first
        # that holds labels a match (Match.subid), and a match none fits is
        # dropped
        self.subcases = [] if subcases is None else subcases

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
        """nullspace_candidates of the columns, read from run_rules' table
        (RowNullspaces) when it hands one over with the integer view."""
        rows = list(zip(*[(s.b[i], *s.A[i]) for i in self.coords]))
        return (nullspaces or nullspace_candidates)(rows)

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
    call and read by the matchers.  The candidates depend on the row space
    alone (the reduced row echelon form is unique, linalg), so the rows are
    keyed as a set: two relabelings list the columns of one pair of
    coordinates in different orders (L5-6, and L5-5's DependentRows).  Rows
    of one or two columns are first tested for independence
    (_independent_columns), and where an entry or a 2x2 minor shows it the
    kept answer is no candidate, with no reduction.  Those zero tests read
    the rows alone, so they are scale-free, and the verdict is kept with
    the row set like a nullspace."""

    def __init__(self) -> None:
        self.table: dict = {}

    def __call__(self, rows) -> list:
        key = frozenset(rows)
        found = self.table.get(key)
        if found is None:
            if rows and len(rows[0]) <= 2 and _independent_columns(rows):
                found = self.table[key] = []
            else:
                found = self.table[key] = nullspace_candidates(rows)
        return found


class Detection(Record):
    """A matched rule with its instantiated first integral."""

    __slots__ = ("rule_id", "citation", "sigma", "params", "integral", "oracle_kind",
                 "paper_formula_deviation", "verification", "H_gen", "log", "ansatz")

    def __init__(self, rule_id: str, citation: str, sigma: tuple[int, ...],
                 params: dict[str, Fraction], integral: ex.Expr, oracle_kind: str,
                 paper_formula_deviation: Optional[str] = None, verification: Optional[dict] = None,
                 H_gen: Optional[GenPoly] = None, log: Optional[tuple] = None,
                 ansatz: Optional[tuple] = None):
        self.rule_id = rule_id
        self.citation = citation
        self.sigma = sigma
        self.params = params
        self.integral = integral
        self.oracle_kind = oracle_kind  # "curl-residual-zero" | "exact-lie-zero"
        self.paper_formula_deviation = paper_formula_deviation
        self.verification = verification
        self.H_gen = H_gen
        self.log = log  # (c, P) when the integral is H_gen + c ln|P|
        self.ansatz = ansatz  # (kind, abg, l) when Ansatz-realized

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


class Candidate(Record):
    """A rule match that failed its exact gate (diagnostic, not a result)."""

    __slots__ = ("rule_id", "sigma", "params", "reason")

    def __init__(self, rule_id: str, sigma: tuple[int, ...], params: dict[str, Fraction],
                 reason: str):
        self.rule_id = rule_id
        self.sigma = sigma
        self.params = params
        self.reason = reason


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
    term exponent at position i moves to position sigma(i): from_lattice on
    the lattice of all ones.
    """
    return from_lattice(H, (1,) * H.nvars, sigma)


def run_rules(s: LVSystem, rules: list[Rule]) -> tuple[list[Detection], list[Candidate]]:
    """Apply every rule under every pattern-compatible relabeling.

    Each relabeling has an integer view (integer_view, permuted once per
    relabeling), which every decision reads: the pattern test, the
    matchers, the curl residual, the gradient targets, the potential and
    the Lie gate.  Its Fraction view, which only the printed-form verdicts'
    exception conditions read, is permuted when first read.  The exact
    work that rules and relabelings share is done once per call: the
    relabelings that fit each distinct constant-term pattern (pattern_ok,
    tested when a rule with that pattern first comes up), the nullspace of
    each set of rows (RowNullspaces) and the gate of each integrating
    factor (_gate_and_build).  Rules run in order, each over its fitting
    relabelings in Permutation.all order, as if every relabeling were
    tested for every rule.
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
            for m in rule.match(s2i, nullspaces):
                fkey = _factor_key(m, p.sigma)
                pkey = None if fkey is None else (rule.family, fkey)
                if pkey in passed:
                    continue
                det, cand = _gate_and_build(
                    rule, partial(fraction_view, p), s2i, p, m, seen, gates, fkey
                )
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
    and up to a nonzero scalar, or None for a match with no Ansatz.

    Entry (i, j) of T/R on the relabeled system is a monomial c x^w
    (oracle.T_WEIGHTS; -x^0 at (1, 2) in 2D), so T holds c x^(l-1+w) at
    (sigma(i), sigma(j)) of the original coordinates, and -c x^(l-1+w) at
    (sigma(j), sigma(i)).  The key is D, the common denominator of the
    exponents l, and the upper triangle of T: the exponents times D as ints,
    and the coefficients scaled to primitive integers with a positive first
    entry.  Every exponent vector holds all of l - 1, so equal factors have
    one D, and the key is the same exactly for proportional factors,
    whatever the rule or the relabeling.  A 2D factor e^(c.x) x^(l-1) with
    c != 0 adds c in the original coordinates, which no scalar changes.
    """
    if m.ansatz is None:
        return None
    kind, abg, l = m.ansatz
    n = len(sigma)
    c = [0] * n
    if kind == "2d-exponents":
        for k, ck in enumerate(abg):
            c[sigma[k]] = canonical(ck)
        abg = (1,)
    den = lcm(*(v.denominator for v in l))
    lm1 = [v.numerator * (den // v.denominator) - den for v in l]
    entries = []
    for (i, j), w, t in zip(combinations(range(n), 2), oracle.T_WEIGHTS[kind], primitive(abg)):
        if not t:
            continue
        exps = [0] * n
        for k, q in enumerate(lm1):
            exps[sigma[k]] = q + den * w[k]
        si, sj = sigma[i], sigma[j]
        entries.append(((si, sj), -t, tuple(exps)) if si < sj else ((sj, si), t, tuple(exps)))
    entries.sort()
    if entries and entries[0][1] < 0:
        entries = [(ij, -t, exps) for ij, t, exps in entries]
    return (den, tuple(entries), tuple(c)) if any(c) else (den, tuple(entries))


def ansatz_residual(s: LVSystem, kind: str, abg, l, *, t=None, scale=1) -> list[GenPoly]:
    """Curl-residual components of an Ansatz (kind, abg, l) on system s, in
    the coordinates of s, times scale; all zero exactly when T is an
    integrating factor.  In 2D, abg is c of the factor e^(c.x) x^(l-1), ()
    for c = 0.  t is T f/R (oracle._t_components) when the caller has it."""
    if kind == "2d-exponents":
        # resolved on the oracle module at call time, so a tracer patching
        # oracle.residual_2d_exponents sees this call
        return [
            oracle.residual_2d_exponents(
                (s.b, s.A, s.e), *map(canonical, l), *abg, t=t, scale=scale
            )
        ]
    return residual_3d(s, oracle.T1 if kind == "3d-t1" else oracle.T2, abg, l, t=t, scale=scale)


class _Gate(Record):
    """The gate's outcome for one integrating factor, or for one stated
    integral: why it failed, or the integral.  Hn and log are the output
    form of the integral in the original coordinates (normalize_for_output,
    then _canonical_monomial where there is no log).  lie holds (the
    integral on the lattice, the integer view it was built on, the lattice,
    the match's log) until the Lie gate has run or is known to pass; expr
    is genpoly_to_expr(Hn, log), built for the first detection."""

    __slots__ = ("reason", "Hn", "log", "lie", "expr")

    def __init__(self, reason: Optional[str] = None, Hn: Optional[GenPoly] = None,
                 log: Optional[tuple] = None, lie: Optional[tuple] = None,
                 expr: Optional[ex.Expr] = None):
        self.reason = reason
        self.Hn = Hn
        self.log = log
        self.lie = lie
        self.expr = expr


def _construct(s2i, p: Permutation, m: Match) -> _Gate:
    """The integral of a match on the integer view s2i of relabeling p, up
    to its Lie gate.

    The curl residual of every match with an Ansatz must be zero.  The
    T1/T2 direction, the exponents and the 2D c do not scale with (b, A, e),
    so the residual, the targets and the potential read s2i, with the
    direction scaled to primitive integers too (each is linear in it).  On
    these views T f and the potential are positive multiples of those on
    the Fraction system; the zero tests are unchanged, and
    normalize_for_output removes the scale.  T f/R is built once and read
    by the residual and the targets; the targets and the potential work on
    the match's exponent lattice (module docstring), the targets scaled by
    potential.integer_field so the potential has int coefficients.  A match
    that states its integral is not reconstructed: its integral is the one
    gated, a monomial with proper-fraction powers on their lattice
    (_stated_on_lattice).  H mapped back to x and to the original
    coordinates, in one pass, is what the key and the output read.
    """
    n = s2i.dim
    if m.ansatz is not None:
        kind, abg, l = m.ansatz
        l = tuple(map(canonical, l))
        if n == 3:  # in 2D, abg is c and T/R is the unit skew entry
            abg = primitive(abg)
        t = oracle._t_components(n, s2i.b, s2i.A, s2i.e, kind, abg if n == 3 else (1,))
        d = lattice(l)
        comps = ansatz_residual(s2i, kind, abg, l, t=t, scale=lcm(*d))
        if not all(c.is_zero() for c in comps):
            return _Gate("curl residual not identically zero")
    if m.H_gen is not None:
        Hy, d = _stated_on_lattice(m.H_gen)
    else:
        try:
            if n == 2:
                targets = gradient_targets_2d(s2i, l, t=t, lattice=d)
            else:
                targets = gradient_targets_3d(s2i, kind, abg, l, t=t, lattice=d)
            Hy = potential(integer_field(targets))
        except ConstructionError as exc:
            return _Gate(f"construction: {exc}")
    log = m.log
    if log is not None:
        log = (log[0], _permute_genpoly(log[1], p.sigma))
    H, log = normalize_for_output(from_lattice(Hy, d, p.sigma), log)
    if H.is_zero() and log is None:
        # H is constant, so its Lie derivative is zero
        return _Gate("constant integral")
    Hn = H if log is not None else _canonical_monomial(H)
    return _Gate(Hn=Hn, log=log, lie=(Hy, s2i, d, m.log))


def _stated_on_lattice(H: GenPoly) -> tuple[GenPoly, tuple]:
    """A stated integral and the exponent lattice its gate works on.  A
    monomial c x^v with proper-fraction powers is c y^(d v) on the lattice
    d = lattice(v), where every power is an int, as an Ansatz integral is;
    every other stated integral (whole powers, logs) is taken in x, the
    lattice of all ones."""
    n = H.nvars
    if len(H.terms) == 1:
        ((p, k), c), = H.terms.items()
        d = lattice(p)
        if not any(k) and any(di != 1 for di in d):
            powers = tuple(q.numerator * (di // q.denominator) for q, di in zip(p, d))
            return GenPoly._of(n, {(powers, k): c}), d
    return H, (1,) * n


def _gate_and_build(
    rule: Rule, s2, s2i, p: Permutation, m: Match, seen: set,
    gates: Optional[dict] = None, fkey: Optional[tuple] = None,
):
    """Gate one match on relabeling p: s2i is its integer view, and s2 a
    zero-argument callable that builds its Fraction view.  Returns
    (None, None) for an integral already in seen (_integral_key), and adds
    the key of one that passes.

    A match's gate outcome (_Gate) is looked up in gates under its
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
    calls s2 only to test its exception conditions.
    """
    gate = None if gates is None else gates.get(fkey)
    if gate is None:
        gate = _construct(s2i, p, m)
        if gates is not None and fkey is not None:
            gates[fkey] = gate
    if gate.reason is None:
        key = _integral_key(rule.family, gate.Hn, gate.log)
        if key in seen:
            gate.lie = None
            return None, None
        if gate.lie is not None:
            Hy, si, d, log = gate.lie
            gate.lie = None
            if not lie_genpoly(Hy, si, lattice=d, log=log).is_zero():
                gate.reason = "exact Lie derivative nonzero on original system"
    if gate.reason is not None:
        return None, Candidate(rule.id, p.sigma, m.params, gate.reason)
    seen.add(key)
    deviation = None
    if rule.compare_printed is not None:
        deviation = rule.compare_printed(s2, m)
    if gate.expr is None:
        gate.expr = genpoly_to_expr(gate.Hn, gate.log)
    return Detection(
        rule_id=rule.id + (f"/{m.subid}" if m.subid else ""),
        citation=rule.citation,
        sigma=p.sigma,
        params=m.params,
        integral=gate.expr,
        oracle_kind="curl-residual-zero" if m.ansatz is not None else "exact-lie-zero",
        paper_formula_deviation=deviation,
        H_gen=gate.Hn,
        log=gate.log,
        ansatz=m.ansatz,
    ), None


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


def _integral_key(family: str, Hn: GenPoly, log: Optional[tuple] = None) -> tuple:
    """Key of an integral Hn + c ln|P| (log = (c, P), or None) in output
    form (normalize_for_output, then _canonical_monomial where there is no
    log), which already fixes its scale and sign, so integrals equal up to
    a nonzero scalar and an additive constant, and powers of one monomial
    integral, share it."""
    if log is not None:
        log = (log[0], frozenset(log[1].terms.items()))
    return (family, frozenset(Hn.terms.items()), log)
