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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import expr as ex
from . import oracle
from .model import LVSystem, Permutation, lift_exact, permute_system
from .oracle import AnsatzSpec, residual_2d, residual_3d
from .poly import GenPoly, ratio
from .potential import (
    ConstructionError,
    genpoly_to_expr,
    gradient_targets_2d,
    gradient_targets_3d,
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
    dedup_key: Optional[tuple] = None  # extra key for H_expr rules
    deviation: Optional[str] = None
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
    compare_printed: Optional[Callable] = None  # (s2, Match, GenPoly) -> str|None
    notes: list[str] = field(default_factory=list)

    @property
    def family(self) -> str:
        return self.id.split("/")[0]


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
        np = [Fraction(0)] * len(p)
        nk = [0] * len(k)
        for i in range(len(p)):
            np[sigma[i]] = p[i]
            nk[sigma[i]] = k[i]
        out[(tuple(np), tuple(nk))] = c
    return GenPoly(H.nvars, out)


def run_rules(
    s: LVSystem, rules: list[Rule], collect_candidates: bool = True
) -> tuple[list[Detection], list[Candidate]]:
    """Apply every rule under every pattern-compatible relabeling."""
    sx = lift_exact(s)
    perms = Permutation.all(s.dim)
    detections: list[Detection] = []
    candidates: list[Candidate] = []
    seen: set = set()
    relabeled = [(p, permute_system(sx, p)) for p in perms]
    for rule in rules:
        for p, s2 in relabeled:
            if not pattern_ok(rule.pattern, s2):
                continue
            for m in rule.match(s2):
                det, cand = _gate_and_build(rule, s2, sx, p, m)
                if cand is not None:
                    candidates.append(cand)
                    continue
                key = _dedup_key(rule, det, m)
                if key in seen:
                    continue
                seen.add(key)
                detections.append(det)
    return detections, candidates


def ansatz_residual(s: LVSystem, kind: str, abg, l) -> list[GenPoly]:
    """Curl-residual components of an Ansatz (kind, abg, l) on system s, in
    the coordinates of s; all zero exactly when T is an integrating factor."""
    if kind == "2d-separable":
        return [residual_2d(s, *abg)]
    if kind == "2d-exponents":
        # resolved on the oracle module at call time, so a tracer patching
        # oracle.residual_2d_exponents sees this call
        return [oracle.residual_2d_exponents((s.b, s.A, s.e), l[0], l[1])]
    return residual_3d(s, AnsatzSpec(kind), abg, l)


def _gate_and_build(rule: Rule, s2, sx, p: Permutation, m: Match):
    deviation = m.deviation
    if m.ansatz is not None:
        comps = ansatz_residual(s2, *m.ansatz)
        if not all(c.is_zero() for c in comps):
            return None, Candidate(
                rule.id, p.sigma, m.params, "curl residual not identically zero"
            )
        oracle_kind = "curl-residual-zero"
    else:
        oracle_kind = "exact-lie-zero"

    if m.H_expr is not None:
        # Integral outside the GenPoly algebra (log of a polynomial).
        if m.lie_zero_check is not None and not m.lie_zero_check(s2):
            return None, Candidate(
                rule.id, p.sigma, m.params, "exact Lie-derivative check failed"
            )
        H_expr = ex.substitute_vars(m.H_expr, {i: p.sigma[i] for i in range(s2.dim)})
        det = Detection(
            rule_id=rule.id + (f"/{m.subid}" if m.subid else ""),
            citation=rule.citation,
            sigma=p.sigma,
            params=m.params,
            integral=ex.simplify(H_expr),
            oracle_kind=oracle_kind,
            paper_formula_deviation=deviation,
            ansatz=m.ansatz,
        )
        return det, None

    if m.H_gen is not None:
        H2 = m.H_gen
    else:
        kind, abg, l = m.ansatz
        try:
            if s2.dim == 2:
                targets = gradient_targets_2d(s2, l)
            else:
                targets = gradient_targets_3d(s2, kind, abg, l)
            H2 = potential(targets)
        except ConstructionError as exc:
            return None, Candidate(rule.id, p.sigma, m.params, f"construction: {exc}")
    if rule.compare_printed is not None and deviation is None:
        deviation = rule.compare_printed(s2, m, H2)
    H = _permute_genpoly(H2, p.sigma)
    if not lie_genpoly(H, sx).is_zero():
        return None, Candidate(
            rule.id, p.sigma, m.params, "exact Lie derivative nonzero on original system"
        )
    Hn = normalize_for_output(H)
    if Hn.is_zero():
        return None, Candidate(rule.id, p.sigma, m.params, "constant integral")
    Hn = _canonical_monomial(Hn)
    det = Detection(
        rule_id=rule.id + (f"/{m.subid}" if m.subid else ""),
        citation=rule.citation,
        sigma=p.sigma,
        params=m.params,
        integral=genpoly_to_expr(Hn),
        oracle_kind=oracle_kind,
        paper_formula_deviation=deviation,
        H_gen=Hn,
        ansatz=m.ansatz,
    )
    return det, None


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
    return GenPoly(H.nvars, {(tuple(q / lead for q in p), k): Fraction(1)})


def _dedup_key(rule: Rule, det: Detection, m: Match):
    if det.H_gen is not None:
        # H_gen is already canonical (_canonical_monomial), so powers of one
        # monomial integral share this key.
        return (rule.family, frozenset(det.H_gen.normalized().terms.items()))
    if m.dedup_key is not None:
        key = m.dedup_key
        if key and key[0] == "permvec":
            # (vec over variables, co-scaling scalars, scale-invariants):
            # permute the vector to original coordinates, then normalize the
            # common scale so sign/scale-equivalent integrals collide.
            _, vec, scalars, invariants = key
            nv = [None] * len(vec)
            for i, v in enumerate(vec):
                nv[det.sigma[i]] = v
            lead = next((v for v in nv if v), None) or next(
                (v for v in scalars if v), Fraction(1)
            )
            return (
                rule.family,
                tuple(v / lead for v in nv),
                tuple(v / lead for v in scalars),
                tuple(invariants),
            )
        return (rule.family, key)
    return (rule.family, det.sigma, frozenset(det.params.items()))


def gradient_proportional(p: GenPoly, q: GenPoly) -> Optional[Fraction]:
    """Ratio c with grad p == c * grad q (ignores additive constants)."""

    def grad(h: GenPoly) -> dict:
        return {
            (i, key): c for i in range(h.nvars) for key, c in h.diff(i).terms.items()
        }

    return ratio(grad(p), grad(q))
