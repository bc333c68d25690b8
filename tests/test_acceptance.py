"""Acceptance suite: one test per criterion, tolerances pinned.

Every criterion prints a one-line PASS summary (visible with -v via the test
name, and in captured output via the print).  Soundness is property-based:
instances are drawn on each rule's condition manifold with exact rational
arithmetic, the curl residual (or, for directly-stated integrals, the exact
symbolic Lie derivative) must vanish identically, and the float checks must
meet their bounds.
"""

import random
from fractions import Fraction

from lvfi import expr as ex
from lvfi.catalog2d import SAMPLERS_2D, detect2d
from lvfi.catalog3d import RULES_3D, SAMPLERS_3D, detect3d
from lvfi.detection import _canonical_monomial, _permute_genpoly, ansatz_residual
from lvfi.model import Permutation, make_system, permute_system
from lvfi.oracle import AnsatzSpec, derive_conditions
from lvfi.poly import SymPoly, ratio
from lvfi.potential import lie_genpoly
from lvfi.verify import conservation_report, integrate, lie_check

from conftest import normalized, rand_fraction, random_expr, slowed, subs_partial
from printed_forms import audit

F = Fraction
LIE_TOL = 1e-10
DRIFT_TOL = 1e-6


def _family(det):
    return det.rule_id.split("/")[0]


def _exact_zero_certificate(det, s) -> bool:
    """Residual exactly zero: the curl residual for Ansatz-realized rules (in
    the match's own coordinates), or the exact symbolic Lie derivative for
    directly-stated integrals (always checked in original coordinates)."""
    if det.H_gen is not None and not lie_genpoly(det.H_gen, s, log=det.log).is_zero():
        return False
    if det.ansatz is not None:
        s2 = permute_system(s, Permutation(det.sigma))
        return all(c.is_zero() for c in ansatz_residual(s2, *det.ansatz))
    return det.H_gen is not None  # direct rules must carry the exact form


def _soundness_run(sampler, family, detect, rng, count, branch=None):
    worst_lie = 0.0
    for _ in range(count):
        s = sampler(rng)
        dets = [d for d in detect(s) if _family(d) == family]
        if branch is not None:
            dets = [d for d in dets if d.rule_id == branch] or dets
        assert dets, f"{family}: no detection on its own manifold"
        d = dets[0]
        assert _exact_zero_certificate(d, s), f"{family}: residual not exactly zero"
        lie = lie_check(d.integral, s, n=50, region=(0.1, 10.0), seed=42)
        assert lie <= LIE_TOL, f"{family}: lie_check {lie} > {LIE_TOL}"
        worst_lie = max(worst_lie, lie)
    return worst_lie


BRANCHES_2D = [
    ("R2D-A", "R2D-A"),
    ("R2D-B", "R2D-B"),
    ("R2D-B/l2=0", "R2D-B"),
    ("R2D-C/main", "R2D-C"),
    ("R2D-C/l1=0", "R2D-C"),
    ("R2D-C/l1=0,l2=-1", "R2D-C"),
    ("R2D-C/l1=l2=0", "R2D-C"),
    ("R2D-C/main-mirror", "R2D-C"),
    ("R2D-C/l2=0-mirror", "R2D-C"),
    ("R2D-C/l2=0,l1=-1-mirror", "R2D-C"),
    ("R2D-D", "R2D-D"),
    ("R2D-E", "R2D-E"),
]


def test_criterion_1_2d_catalog_soundness():
    rng = random.Random(101)
    worst = 0.0
    for key, family in BRANCHES_2D:
        branch = key if key in {"R2D-B/l2=0"} else None
        worst = max(
            worst,
            _soundness_run(SAMPLERS_2D[key], family, detect2d, rng, 100, branch),
        )
    print(
        f"ACCEPTANCE 1 PASS: 2D soundness, {len(BRANCHES_2D)} branches x 100 "
        f"on-manifold instances, residuals exactly zero, worst lie_max = {worst:.2e}"
    )


def test_criterion_2_3d_catalog_soundness():
    rng = random.Random(202)
    worst = 0.0
    for rule in RULES_3D:
        worst = max(
            worst,
            _soundness_run(rule.sample, rule.id, detect3d, rng, 20),
        )
    print(
        f"ACCEPTANCE 2 PASS: 3D soundness, {len(RULES_3D)} rule families x 20 "
        f"on-manifold instances, residuals exactly zero, worst lie_max = {worst:.2e}"
    )


_X0_3 = [(1.0, 1.0, 1.0), (0.9, 1.1, 1.05), (1.3, 0.7, 1.1), (0.5, 1.5, 0.8)]
_X0_2 = [(1.0, 1.0), (0.9, 1.1), (1.3, 0.7), (0.5, 1.5)]


def _is_singular_integral(d):
    """True when H has coordinate singularities (logs or non-positive-integer
    powers), in which case the drift check needs an orbit clear of the axes."""
    if d.log is not None:
        return True  # log of a polynomial (exponential-factor rule)
    for (p, k), _ in d.H_gen.terms.items():
        if any(k):
            return True
        if any(q < 0 or q.denominator != 1 for q in p):
            return True
    return False


def _conserved_drift(d, s, step=1e-3):
    """Drift from the first candidate start point whose orbit stays where H
    is well conditioned (the all-ones default unless logs, blow-up or
    near-singular excursions demand another point).

    Conditioning is an a-priori acceptance criterion, independent of the
    measured drift: a fixed-step integrator cannot certify 1e-6 conservation
    where |grad H| amplifies the O(h^4) state error beyond the tolerance, so
    such orbits are rejected rather than measured.
    """
    import numpy as np

    h = d.integral
    singular = _is_singular_integral(d)
    grads = [ex.diff(h, i) for i in range(s.dim)]

    def orbit_ok(tr) -> bool:
        if tr.blew_up or np.max(np.abs(tr.states)) > 1e5:
            return False
        if singular and (
            np.min(np.abs(tr.states)) < 1e-2 or np.max(np.abs(tr.states)) > 1e3
        ):
            return False
        states = np.asarray(tr.states, dtype=float)
        amp = 0.0
        for g in grads:
            gv = ex.eval_vec(g, states)
            if not np.all(np.isfinite(gv)):
                return False
            amp += float(np.max(np.abs(gv)))
        H0 = abs(ex.eval_expr(h, tuple(states[0])))
        return amp <= 5e2 * (1.0 + H0)

    for x0 in _X0_2 if s.dim == 2 else _X0_3:
        try:
            # cheap screening pass before the fine-step measurement
            if not orbit_ok(integrate(s, x0, 10.0, 1e-2, "rk4")):
                continue
            tr = integrate(s, x0, 10.0, step, "rk4")
            if not orbit_ok(tr):
                continue
            rep = conservation_report(h, tr)
            return rep.max_rel_drift
        except (ex.EvalDomainError, Exception) as exc:  # noqa: BLE001
            if isinstance(exc, AssertionError):
                raise
            continue
    return None


def test_criterion_3_conservation_and_rk4_order():
    rng = random.Random(303)
    keys_2d = ["R2D-A", "R2D-B", "R2D-B/l2=0", "R2D-C/main", "R2D-C/l1=l2=0", "R2D-D", "R2D-E"]
    checked = 0
    order_candidates = []
    for key in keys_2d:
        family = key.split("/")[0]
        done = attempts = 0
        while done < 10:
            attempts += 1
            assert attempts < 500, f"{key}: no tame trajectories found"
            s = slowed(SAMPLERS_2D[key](rng))
            dets = [d for d in detect2d(s) if _family(d) == family]
            assert dets
            drift = _conserved_drift(dets[0], s)
            if drift is None:
                continue  # blow-up or domain trouble from every start point
            assert drift <= DRIFT_TOL, f"{key}: drift {drift}"
            order_candidates.append((dets[0], s))
            done += 1
            checked += 1
    for rule in RULES_3D:
        done = attempts = 0
        while done < 5:
            attempts += 1
            assert attempts < 500, f"{rule.id}: no tame trajectories found"
            s = slowed(rule.sample(rng))
            dets = [d for d in detect3d(s) if _family(d) == rule.id]
            assert dets
            drift = _conserved_drift(dets[0], s)
            if drift is None:
                continue
            assert drift <= DRIFT_TOL, f"{rule.id}: drift {drift}"
            order_candidates.append((dets[0], s))
            done += 1
            checked += 1
    # order-4 check: halving the step cuts the drift of a true integral by
    # >= 8x on three spot checks (measured above the roundoff floor)
    spot = 0
    for det, s in order_candidates:
        if spot == 3:
            break
        for h0 in (4e-2, 2e-2, 8e-3):
            d1 = _conserved_drift(det, s, step=h0)
            if d1 is None or d1 < 1e-11 or d1 > 1e-2:
                continue
            d2 = _conserved_drift(det, s, step=h0 / 2)
            if d2 is None:
                continue
            assert d2 <= d1 / 8 or d2 < 1e-12, (d1, d2)
            spot += 1
            break
    assert spot == 3, "could not find three instances with measurable drift"
    print(
        f"ACCEPTANCE 3 PASS: conservation drift <= {DRIFT_TOL} on {checked} "
        "trajectories (rk4, h = 1e-3, t in [0,10]); order-4 halving check on 3 instances"
    )


PERTURB = [
    ("R2D-A", "b", 1),
    ("R2D-B", "b", 0),
    ("R2D-C/main", "b", 0),
    ("R2D-D", "A", (0, 0)),
    ("R2D-E", "b", 0),
    ("L2-i", "b", 1),
    ("L2-ii", "b", 1),
    ("L2-iii", "b", 1),
    ("L3-1", "b", 1),
    ("L3-2", "b", 1),
    ("L3-3", "b", 1),
    ("L4-1", "b", 0),
    ("L4-2", "b", 1),
    ("L4-4", "b", 0),
    ("L4-5", "b", 1),
    ("L4-7", "b", 0),
    ("L5-1", "A", (0, 0)),
    ("L5-4", "b", 1),
    ("L5-7d", "b", 1),
    ("L5-8b", "b", 0),
]


def _perturb(s, where, idx):
    b, A, e = list(s.b), [list(r) for r in s.A], list(s.e)
    if where == "b":
        b[idx] += 1
    else:
        A[idx[0]][idx[1]] += 1
    return make_system(b=b, A=tuple(tuple(r) for r in A), e=e)


def test_criterion_4_negative_controls():
    rng = random.Random(404)
    checked = 0
    for k in range(200):
        dim = 2 if k % 2 == 0 else 3
        s = make_system(
            b=tuple(rand_fraction(rng) for _ in range(dim)),
            A=tuple(
                tuple(rand_fraction(rng) for _ in range(dim)) for _ in range(dim)
            ),
            e=tuple(rand_fraction(rng) for _ in range(dim)),
        )
        dets = detect2d(s) if dim == 2 else detect3d(s)
        assert dets == [], f"random system #{k} unexpectedly matched: {dets[0].rule_id}"
        checked += 1
    # perturbing one dependent parameter breaks detection and the old
    # integral stops being conserved
    samplers = dict(SAMPLERS_2D)
    samplers.update(SAMPLERS_3D)
    for key, where, idx in PERTURB:
        family = key.split("/")[0]
        s = samplers[key](rng)
        detect = detect2d if s.dim == 2 else detect3d
        dets = [d for d in detect(s) if _family(d) == family]
        assert dets
        h = dets[0].integral
        sp = _perturb(s, where, idx)
        still = [d for d in detect(sp) if _family(d) == family]
        assert still == [], f"{key}: detection survived the perturbation"
        lie = lie_check(h, sp, n=50, region=(0.1, 10.0), seed=42)
        assert lie > 1e-3, f"{key}: perturbed lie_check only {lie}"
    print(
        "ACCEPTANCE 4 PASS: 200 random systems detect nothing; 20 perturbed "
        "on-manifold instances all break detection with lie_check > 1e-3"
    )


def _sym(name):
    return SymPoly.sym(name)


def _dedup_sympoly(polys):
    out = []
    for p in polys:
        if p and not any(ratio(p.terms, q.terms) is not None for q in out):
            out.append(p)
    return out


def _sets_match(derived, printed):
    return all(
        any(ratio(p.terms, q.terms) is not None for q in derived) for p in printed
    ) and all(any(ratio(q.terms, p.terms) is not None for p in printed) for q in derived)


def test_criterion_5_derivation_equivalence():
    al, be, ga = _sym("al"), _sym("be"), _sym("ga")
    l1, l2, l3 = _sym("l1"), _sym("l2"), _sym("l3")
    a = {(i, j): _sym(f"a{i}{j}") for i in (1, 2, 3) for j in (1, 2, 3)}
    b = {i: _sym(f"b{i}") for i in (1, 2, 3)}
    e = {i: _sym(f"e{i}") for i in (1, 2, 3)}

    # 2D: the five printed conditions, cleared of their a12/a21 denominators
    # (the derivation multiplies the divergence identity by a12*a21)
    rows2 = derive_conditions(AnsatzSpec("2d-separable"))
    derived2 = _dedup_sympoly([r.poly for r in rows2])
    a12, a21 = a[1, 2], a[2, 1]
    printed2 = [
        al * a[1, 1] * a21,                     # x1^2 row
        al * a[2, 2] * a12,                     # x2^2 row
        be * e[1] * a21,                        # 1/x1 row
        ga * e[2] * a12,                        # 1/x2 row
        (ga * a12 + al * b[1] + be * a[1, 1]) * a21
        + (SymPoly.const(2) * a[1, 1] + a21) * a12 * a21,
        (be * a21 - al * b[2] + ga * a[2, 2]) * a12
        + (SymPoly.const(2) * a[2, 2] + a12) * a12 * a21,
        (al * e[1] + be * b[1] + b[1] * a12) * a21
        - (al * e[2] - ga * b[2] - b[2] * a21) * a12,
    ]
    assert _sets_match(derived2, _dedup_sympoly(printed2))

    # 3D T1 at unit exponents: the twelve printed parameter conditions
    rows_t1 = derive_conditions(AnsatzSpec("3d-t1"))
    ones = {"l1": F(1), "l2": F(1), "l3": F(1)}
    derived_t1 = _dedup_sympoly([subs_partial(r.poly, ones) for r in rows_t1])
    printed_t1 = [
        al * (b[1] + b[2]),
        be * (b[1] + b[3]),
        ga * (b[2] + b[3]),
        al * (SymPoly.const(2) * a[1, 1] + a[2, 1]),
        al * (SymPoly.const(2) * a[2, 2] + a[1, 2]),
        be * (SymPoly.const(2) * a[1, 1] + a[3, 1]),
        be * (SymPoly.const(2) * a[3, 3] + a[1, 3]),
        ga * (SymPoly.const(2) * a[2, 2] + a[3, 2]),
        ga * (SymPoly.const(2) * a[3, 3] + a[2, 3]),
        -al * a[1, 3] + be * a[1, 2] + ga * (a[2, 1] + a[3, 1]),
        al * a[2, 3] + be * (a[1, 2] + a[3, 2]) + ga * a[2, 1],
        al * (a[1, 3] + a[2, 3]) + be * a[3, 2] - ga * a[3, 1],
    ]
    assert _sets_match(derived_t1, _dedup_sympoly(printed_t1))

    # 3D T1, all constant terms nonzero: the e-rows force l = 1 in each
    # single-parameter branch
    for branch, others in (
        ("al", {"be": F(0), "ga": F(0)}),
        ("be", {"al": F(0), "ga": F(0)}),
        ("ga", {"al": F(0), "be": F(0)}),
    ):
        forced = set()
        for r in rows_t1:
            p = subs_partial(r.poly, others)
            if not p:
                continue
            names = {nm for mono in p.terms for nm, _ in mono}
            if branch not in names or not any(f"e{i}" in names for i in (1, 2, 3)):
                continue
            for j in (1, 2, 3):
                if f"l{j}" in names and not subs_partial(p, {f"l{j}": F(1)}):
                    forced.add(j)
        assert forced == {1, 2, 3}, f"branch {branch} does not force unit exponents"

    # 3D T2: the twelve bilinear rows plus the three constant-term rows
    B1 = b[1] * al - b[3] * ga
    B2 = b[2] * al + b[3] * be
    B3 = b[1] * be + b[2] * ga
    A1 = {i: a[1, i] * al - a[3, i] * ga for i in (1, 2, 3)}
    A2 = {i: a[2, i] * al + a[3, i] * be for i in (1, 2, 3)}
    A3 = {i: a[1, i] * be + a[2, i] * ga for i in (1, 2, 3)}
    printed_t2 = [
        B1 * l1 + B2 * l2,
        B3 * l1 + B2 * l3,
        B3 * l2 - B1 * l3,
        A1[3] * l1 + A2[3] * l2,
        A3[2] * l1 + A2[2] * l3,
        A3[1] * l2 - A1[1] * l3,
        A1[1] * l1 + A2[1] * l2 + A1[1],
        A1[2] * l1 + A2[2] * l2 + A2[2],
        A3[1] * l1 + A2[1] * l3 + A3[1],
        A3[3] * l1 + A2[3] * l3 + A2[3],
        A3[2] * l2 - A1[2] * l3 + A3[2],
        A3[3] * l2 - A1[3] * l3 - A1[3],
        ga * e[2] * (l2 - SymPoly.const(1)),
        ga * e[3] * (l3 - SymPoly.const(1)),
        (be * l2 - al * l3) * e[1],
        be * e[1] * (l1 - SymPoly.const(1)),
        be * e[3] * (l3 - SymPoly.const(1)),
        (al * l3 + ga * l1) * e[2],
        al * e[1] * (l1 - SymPoly.const(1)),
        al * e[2] * (l2 - SymPoly.const(1)),
        (be * l2 - ga * l1) * e[3],
    ]
    rows_t2 = derive_conditions(AnsatzSpec("3d-t2"))
    derived_t2 = _dedup_sympoly([r.poly for r in rows_t2])
    assert _sets_match(derived_t2, _dedup_sympoly(printed_t2))
    print(
        "ACCEPTANCE 5 PASS: derived condition systems match the printed 2D "
        "five-row system, the T1 twelve-row system, the T2 fifteen-row system "
        "(up to ordering/scaling), and the T1 constant-term rows force unit exponents"
    )


def test_criterion_6_typo_arbitration():
    rng = random.Random(606)
    outcomes = {}
    for rule_id in ("L5-7d", "L5-8c", "L4-1"):
        agree = deviate = 0
        for _ in range(20):
            s = SAMPLERS_3D[rule_id](rng)
            dets = [d for d in detect3d(s) if _family(d) == rule_id]
            assert dets, rule_id
            d = dets[0]
            assert _exact_zero_certificate(d, s)
            # the audit's verdict on the printed formula at that detection,
            # which is the note the detection reports
            verdict, note = next((v, n) for rid, v, n in audit([s]) if rid == rule_id)
            assert verdict == note == d.paper_formula_deviation
            assert verdict is not None, f"{rule_id}: no printed-formula comparison recorded"
            if verdict.startswith("agrees"):
                agree += 1
            else:
                deviate += 1
        outcomes[rule_id] = (agree, deviate)
    # The item-7d exponent formula lacks a division: generic instances deviate.
    assert outcomes["L5-7d"][1] > 0
    # Item 1 of the single-nonzero-constant case prints a correct formula.
    assert outcomes["L4-1"][0] == 20
    summary = ", ".join(
        f"{rid}: {a} agree/{d} deviate" for rid, (a, d) in outcomes.items()
    )
    print(
        "ACCEPTANCE 6 PASS: typo arbitration on 20 oracle-validated instances "
        f"each - {summary}"
    )


def _canonical_detections(dets, sigma=None):
    out = set()
    for d in dets:
        H = d.H_gen
        if H is None:
            continue
        if sigma is not None:
            H = _permute_genpoly(H, sigma)
        H = _canonical_monomial(H.drop_constant())
        out.add((_family(d), frozenset(normalized(H).terms.items())))
    return out


def test_criterion_7_equivariance():
    rng = random.Random(707)
    rule_ids = [r.id for r in RULES_3D]
    perms = Permutation.all(3)
    for k in range(50):
        rule_id = rule_ids[k % len(rule_ids)]
        s = SAMPLERS_3D[rule_id](rng)
        base = _canonical_detections(detect3d(s))
        assert base
        for p in perms:
            moved = _canonical_detections(detect3d(permute_system(s, p)), p.sigma)
            assert moved == base, (rule_id, p.sigma)
    print(
        "ACCEPTANCE 7 PASS: detect3d commutes with all 6 coordinate "
        "relabelings on 50 on-manifold systems"
    )


def test_criterion_8_gradient_correctness():
    rng = random.Random(808)
    step = 1e-5
    checked = 0
    worst = 0.0
    for _ in range(200):
        dim = rng.choice((2, 3))
        h = random_expr(rng, dim)
        grads = [ex.diff(h, i) for i in range(dim)]
        pts = 0
        while pts < 20:
            x = tuple(0.2 + 9.0 * rng.random() for _ in range(dim))
            i = rng.randrange(dim)
            xp = list(x)
            xm = list(x)
            xp[i] += step
            xm[i] -= step
            try:
                got = ex.eval_expr(grads[i], x)
                fd = (ex.eval_expr(h, xp) - ex.eval_expr(h, xm)) / (2 * step)
            except (ex.EvalDomainError, OverflowError):
                pts += 1  # off-domain draws count toward the budget
                continue
            if abs(got) > 1e8:  # fd comparison meaningless at huge magnitudes
                pts += 1
                continue
            rel = abs(got - fd) / (1.0 + abs(got))
            assert rel <= 1e-6, (ex.pretty(h), x, i, got, fd)
            worst = max(worst, rel)
            pts += 1
            checked += 1
    assert checked > 2000
    print(
        f"ACCEPTANCE 8 PASS: symbolic gradients match central differences on "
        f"{checked} point evaluations, worst relative error = {worst:.2e}"
    )
