"""Rules whose Ansatz direction is solved, and stated integrals, written as
data.

Thirteen 3D rules take their direction (alpha, beta, gamma) from a solve.
Seven (L2-ii, L2-iii, L4-1, L4-4, L5-1, L5-2, L5-3) fix their exponents and
take the direction from a nullspace of the oracle's condition rows.  Six
tie the direction to the exponents or solve both: L3-3, L4-7 and L5-8a take
their exponents from the printed solve rows, and L4-8, L5-7a and L5-7b take
the direction from the printed solve rows, then the exponents from the
oracle's rows at each direction.  Their matcher is derived from the rule's
Ansatz template (catalog3d._ConstantDirection), and so is that of the 2D
exponent rules R2D-A, R2D-B and R2D-C, whose subcases are labels.  Four
stated integrals (L4-3, L5-5, R3D-TRIV and R2D-B/rank0) share
detection.DependentRows.  The hand-written matchers they replace are kept
below as the reference, and the derived matchers must return the same
Ansatz and stated integral lists in the same order (for the 2D exponent
rules, the same params and subid too).
"""

import random
from fractions import Fraction

import pytest

from lvfi.catalog2d import RULES_2D, SAMPLERS_2D
from lvfi.catalog3d import RULES_3D, SAMPLERS_3D, _l_candidates, detect3d
from lvfi.detection import (
    DependentRows,
    Match,
    ansatz_residual,
    condition_function,
    condition_source,
    pattern_ok,
)
from lvfi.linalg import nullspace_candidates, solve_constrained
from lvfi.model import LVSystem, Permutation, lift_exact, make_system, permute_system
from lvfi.poly import GenPoly
from lvfi.potential import gradient_targets_3d, lie_genpoly, potential

from conftest import rank, same_integral, to_float
from printed_forms import _gp
from test_digest import DEGENERATE

F = Fraction


# -- the hand-written matchers, as they were in catalog3d ---------------------


def _ref_l2ii(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[0] + b[1],
        b[0] + b[2],
        2 * A[0][0] + A[1][0],
        2 * A[0][0] + A[2][0],
        2 * A[1][1] + A[0][1],
        2 * A[2][2] + A[0][2],
    )
    if any(conds):
        return []
    rows = [
        (A[0][2], -A[0][1]),
        (A[1][2], A[0][1] + A[2][1]),
        (A[0][2] + A[1][2], A[2][1]),
    ]
    out = []
    for v in nullspace_candidates(rows):
        if v[0] == 0 or v[1] == 0:
            continue  # the one-parameter cases belong to the first rule
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha'": abg[0], "beta'": abg[1], "gamma'": abg[2]},
                ansatz=("3d-t1", abg, (F(1), F(1), F(1))),
            )
        )
    return out


def _ref_l2iii(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if any(v != 0 for v in b):
        return []
    conds = []
    for i in range(3):
        for j in range(3):
            if i != j:
                conds.append(A[i][j] + 2 * A[j][j])
    if any(conds):
        return []
    rows = [
        (-A[0][2], A[0][1], A[1][0] + A[2][0]),
        (A[1][2], A[0][1] + A[2][1], A[1][0]),
        (A[0][2] + A[1][2], A[2][1], -A[2][0]),
    ]
    out = []
    for v in nullspace_candidates(rows):
        if any(c == 0 for c in v):
            continue
        out.append(
            Match(
                params={"alpha'": v[0], "beta'": v[1], "gamma'": v[2]},
                ansatz=("3d-t1", v, (F(1), F(1), F(1))),
            )
        )
    return out


def _ref_l4_1(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] or A[0][0] or A[0][1] or A[0][2]:
        return []
    out = []
    for v in nullspace_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": abg[0], "beta": abg[1], "gamma": F(0)},
                ansatz=("3d-t2", abg, (F(1), F(0), F(0))),
            )
        )
    return out


def _ref_l4_4(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] + b[2], A[0][0] + A[2][0], A[0][1] + A[2][1], A[0][2] + A[2][2])
    if any(conds):
        return []
    out = []
    for v in nullspace_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        if A33 == 0:
            continue
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -ga},
                ansatz=("3d-t2", (-ga, be, ga), (F(1), F(0), F(0))),
            )
        )
    return out


def _ref_l5_1(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][0] or A[0][1] or A[0][2] or b[0] == 0:
        return []
    out = []
    for v in nullspace_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": v[0], "beta": v[1]},
                ansatz=("3d-t2", abg, (F(0), F(0), F(0))),
            )
        )
    return out


def _ref_l5_2(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] or A[0][1] or A[0][2] or A[0][0] == 0:
        return []
    out = []
    for v in nullspace_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": v[0], "beta": v[1]},
                ansatz=("3d-t2", abg, (F(-1), F(0), F(0))),
            )
        )
    return out


def _ref_l5_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] - b[1] or A[0][1] - A[1][1] or A[0][2] - A[1][2]:
        return []
    out = []
    for v in nullspace_candidates([(b[0], b[2]), (A[0][2], A[2][2])]):
        al, be = v
        ga = -be
        A22 = A[1][1] * al + A[2][1] * be
        A11 = A[0][0] * al + A[2][0] * be
        A31 = be * (A[0][0] - A[1][0])
        if A22 == 0 or (A11 == 0 and A31 == 0):
            continue
        out.append(
            Match(
                params={"alpha": al, "beta": be, "gamma": ga},
                ansatz=("3d-t2", (al, be, ga), (F(-1), F(0), F(0))),
            )
        )
    return out




def _ref_l3_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] - b[1] or any(A[0][i] - A[1][i] for i in range(3)):
        return []
    col = (b[2], A[2][0], A[2][1], A[2][2])
    if all(v == 0 for v in col):
        return []  # any exponent works; the trivial-row rule reports x3
    out = solve_constrained(
        tuple((v,) for v in col), (-b[0], -A[0][0], -A[0][1], -A[0][2])
    )
    if out.status != "unique":
        return []
    l3 = out.solution[0]
    return [
        Match(
            params={"l3": l3, "alpha": F(1), "beta": l3, "gamma": -l3},
            ansatz=("3d-t2", (F(1), l3, -l3), (F(1), F(1), l3)),
        )
    ]


def _ref_l4_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    rows = [(b[1], b[2]), (A[1][0], A[2][0]), (A[1][1], A[2][1]), (A[1][2], A[2][2])]
    out = []
    for v in nullspace_candidates(rows):
        H = _gp([(v[0], (0, 0, 0), (0, 1, 0)), (v[1], (0, 0, 0), (0, 0, 1))])
        if H.is_zero():
            continue
        out.append(Match(params={"alpha": v[0], "beta": v[1]}, H_gen=H))
    return out


def _ref_l4_7(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][1] or A[0][2]:
        return []
    m = (
        (b[1], b[2]),
        (A[1][0], A[2][0]),
        (A[1][1], A[2][1]),
        (A[1][2], A[2][2]),
    )
    out = solve_constrained(m, (-b[0], -2 * A[0][0], F(0), F(0)))
    matches = []
    for l2, l3 in _l_candidates(out):
        if l2 == 0 and l3 == 0:
            continue  # constant integral
        matches.append(
            Match(
                params={"l2": l2, "l3": l3},
                ansatz=("3d-t2", (l2, l3, F(0)), (F(1), l2, l3)),
            )
        )
    return matches


def _ref_l4_8(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] + b[2], A[0][0] + A[2][0], A[0][1] + A[2][1])
    if any(conds):
        return []
    if A[0][2] + A[2][2] == 0:
        return []
    out = []
    for v in nullspace_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        if ga == 0:
            continue
        A23 = -ga * A[1][2] + be * A[2][2]
        A33 = A[0][2] * be + A[1][2] * ga
        if A23 == 0 or A33 == 0:
            continue
        l2 = ga * (A[0][2] + A[2][2]) / A23
        l3 = -be * (A[0][2] + A[2][2]) / A23
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -ga, "l2": l2, "l3": l3},
                ansatz=("3d-t2", (-ga, be, ga), (F(1), l2, l3)),
            )
        )
    return out


def _ref_l5_5(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    rows = [(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1]), (A[0][2], A[1][2])]
    out = []
    for v in nullspace_candidates(rows):
        be, ga = v
        if be == 0 and ga == 0:
            continue
        out.append(
            Match(
                params={"beta": be, "gamma": ga},
                H_gen=GenPoly.term(3, 1, (be, ga, 0)),
            )
        )
    return out


def _ref_l5_7a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[1] - b[2] or A[1][0] - A[2][0]:
        return []
    out = []
    for v in nullspace_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        A13 = -A[0][2] * be - A[2][2] * ga
        A23 = be * (A[2][2] - A[1][2])
        A12 = -A[0][1] * be - A[2][1] * ga
        if A33 == 0 or A13 == 0 or A23 == 0 or A12 == 0:
            continue
        l1 = -A23 / A33
        l2 = A13 / A33
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -be, "l1": l1, "l2": l2},
                ansatz=("3d-t2", (-be, be, ga), (l1, l2, F(0))),
            )
        )
    return out


def _ref_l5_7b(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[2][0] or A[2][1] or b[2] == 0 or A[2][2] == 0:
        return []
    out = []
    for v in nullspace_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        if A33 == 0:
            continue
        l1 = -A[2][2] * be / A33
        l2 = -A[2][2] * ga / A33
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": F(0), "l1": l1, "l2": l2},
                ansatz=("3d-t2", (F(0), be, ga), (l1, l2, F(0))),
            )
        )
    return out


def _ref_l5_8a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][1] or A[0][2]:
        return []
    if A[1][1] * A[2][2] - A[2][1] * A[1][2] != 0:
        return []
    if b[0] == 0 and A[0][0] == 0:
        return []
    m = (
        (b[0], b[1], b[2]),
        (A[0][0], A[1][0], A[2][0]),
        (F(0), A[1][1], A[2][1]),
        (F(0), A[1][2], A[2][2]),
    )
    out = solve_constrained(m, (F(0), -A[0][0], F(0), F(0)))
    matches = []
    for l1, l2, l3 in _l_candidates(out):
        if l2 == 0 and l3 == 0 and (b[0] == 0 or l1 == 0):
            continue
        matches.append(
            Match(
                params={"l1": l1, "l2": l2, "l3": l3},
                ansatz=("3d-t2", (l2, l3, F(0)), (l1, l2, l3)),
            )
        )
    return matches


def _ref_triv3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[2] == 0 and all(A[2][j] == 0 for j in range(3)):
        return [Match(params={}, H_gen=GenPoly.term(3, 1, (0, 0, 1)))]
    return []


# -- the hand-written 2D exponent matchers, as they were in catalog2d ---------


def _ref_a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] + b[1] or 2 * A[0][0] + A[1][0] or A[0][1] + 2 * A[1][1]:
        return []
    one = F(1)
    return [Match(params={"l1": one, "l2": one}, ansatz=("2d-exponents", (), (one, one)))]


def _ref_b(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    col = (A[1][0], A[1][1], b[1])
    if col == (0, 0, 0):
        return []  # trivial-row rule covers this
    m = ((col[0],), (col[1],), (col[2],))
    r = (-2 * A[0][0], -(A[1][1] + A[0][1]), -b[0])
    out = solve_constrained(m, r)
    if out.status != "unique":
        return []
    l2 = out.solution[0]
    return [
        Match(
            params={"l1": F(1), "l2": l2},
            ansatz=("2d-exponents", (), (F(1), l2)),
            subid="l2=0" if l2 == 0 else "",
        )
    ]


def _ref_c(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    m = ((A[0][0], A[1][0]), (A[0][1], A[1][1]), (b[0], b[1]))
    if rank(m) != 2:
        return []
    out = solve_constrained(m, (-A[0][0], -A[1][1], F(0)))
    if out.status != "unique":
        return []
    l1, l2 = out.solution
    if l1 == 0 and l2 == 0:
        subid = "l1=l2=0"
    elif l1 == 0 and l2 == -1:
        subid = "l1=0,l2=-1"
    elif l1 == 0:
        subid = "l1=0"
    elif l2 != 0:
        subid = "main"
    else:
        return []  # l2 = 0, l1 != 0: found as an l1 subcase of the mirror run
    return [
        Match(params={"l1": l1, "l2": l2}, ansatz=("2d-exponents", (), (l1, l2)), subid=subid)
    ]


def _ref_b_rank0(s: LVSystem) -> list[Match]:
    if s.b[1] == 0 and s.A[1][0] == 0 and s.A[1][1] == 0:
        return [Match(params={}, H_gen=GenPoly.term(2, 1, (0, 1)), subid="")]
    return []


REFERENCE = {
    "L2-ii": _ref_l2ii,
    "L2-iii": _ref_l2iii,
    "L3-3": _ref_l3_3,
    "L4-1": _ref_l4_1,
    "L4-3": _ref_l4_3,
    "L4-4": _ref_l4_4,
    "L4-7": _ref_l4_7,
    "L4-8": _ref_l4_8,
    "L5-1": _ref_l5_1,
    "L5-2": _ref_l5_2,
    "L5-3": _ref_l5_3,
    "L5-5": _ref_l5_5,
    "L5-7a": _ref_l5_7a,
    "L5-7b": _ref_l5_7b,
    "L5-8a": _ref_l5_8a,
    "R3D-TRIV": _ref_triv3,
}
REFERENCE_2D = {"R2D-B/rank0": _ref_b_rank0}
REFERENCE_2D_EXPONENTS = {"R2D-A": _ref_a, "R2D-B": _ref_b, "R2D-C": _ref_c}
STATED = ("L4-3", "L5-5", "R3D-TRIV", "R2D-B/rank0")
RULES = {r.id: r for r in RULES_2D + RULES_3D}


def _ansatz_and_integral(m: Match) -> tuple:
    return m.ansatz, m.H_gen


def _ansatz_params_and_label(m: Match) -> tuple:
    return m.ansatz, repr(m.params), m.subid


def _assert_same_as_reference(systems, reference=REFERENCE, key=_ansatz_and_integral):
    """Compares the derived and the hand-written matchers on every system
    and each rule whose pattern it fits: the same lists of key(match), by
    default the Ansatz and the stated integral, in order.  Returns the
    matches per rule."""
    found = dict.fromkeys(reference, 0)
    for k, s in enumerate(systems):
        s = lift_exact(s)
        for rid, ref in reference.items():
            if not pattern_ok(RULES[rid].pattern, s):
                continue
            want = [key(m) for m in ref(s)]
            assert [key(m) for m in RULES[rid].match(s)] == want, (rid, k, s)
            found[rid] += len(want)
    return found


def _relabeled(systems, dim=3):
    for s in systems:
        for p in Permutation.all(dim):
            yield permute_system(s, p)


def test_derived_matchers_equal_reference_on_samplers_and_float_copies():
    rng = random.Random(23)
    systems = [sampler(rng) for _, sampler in sorted(SAMPLERS_3D.items()) for _ in range(2)]
    relabeled = list(_relabeled(systems))
    found = _assert_same_as_reference(relabeled)
    assert all(found.values()), found
    _assert_same_as_reference(to_float(s)[0] for s in relabeled)


def _sparse_integer_systems(seed, n, dim=3):
    """Small-integer systems, about three entries in four zero, cycling
    through the zero patterns of e."""
    rng = random.Random(seed)

    def entry():
        return 0 if rng.random() < 0.75 else rng.choice((1, -1, 2, -2, 3))

    for k in range(n):
        yield make_system(
            b=[entry() for _ in range(dim)],
            A=[[entry() for _ in range(dim)] for _ in range(dim)],
            e=[rng.choice((1, -1, 2)) if k >> i & 1 else 0 for i in range(dim)],
        )


def test_derived_matchers_equal_reference_on_sparse_integer_systems():
    for seed in (8, 77):
        found = _assert_same_as_reference(_relabeled(_sparse_integer_systems(seed, 960)))
        # L2-iii needs b = 0 and a_ij = -2 a_jj, which sparse draws miss; the
        # samplers cover it
        assert sum(found.values()) >= 300, found


def test_derived_matchers_equal_reference_on_degenerate_systems():
    _assert_same_as_reference(_relabeled(s for s in DEGENERATE if s.dim == 3))


def test_stated_2d_matcher_equals_reference():
    rng = random.Random(23)
    systems = [sampler(rng) for _, sampler in sorted(SAMPLERS_2D.items()) for _ in range(2)]
    systems += list(_sparse_integer_systems(8, 480, dim=2))
    relabeled = list(_relabeled(systems, dim=2))
    found = _assert_same_as_reference(relabeled, REFERENCE_2D)
    assert found["R2D-B/rank0"] >= 100, found
    _assert_same_as_reference((to_float(s)[0] for s in relabeled), REFERENCE_2D)


# The degenerate systems restricted to (x1, x2): the zero system among them
DEGENERATE_2D = [
    make_system(b=s.b[:2], A=[row[:2] for row in s.A[:2]], e=s.e[:2]) for s in DEGENERATE
]


def test_derived_2d_exponent_matchers_equal_reference():
    """R2D-A, R2D-B and R2D-C, derived from the factor x1^(l1-1) x2^(l2-1)
    with subcases as labels, give the hand-written matchers' Ansatz, params
    and subid, in order: on sampler draws under both relabelings and their
    float copies, on sparse integer systems through all four e-patterns and
    on the 2D degenerate systems."""
    rng = random.Random(29)
    systems = [sampler(rng) for _, sampler in sorted(SAMPLERS_2D.items()) for _ in range(3)]
    relabeled = list(_relabeled(systems, dim=2))
    ref, key = REFERENCE_2D_EXPONENTS, _ansatz_params_and_label
    found = _assert_same_as_reference(relabeled, ref, key)
    assert all(found.values()), found
    labels = {
        (rid, m.subid) for s in relabeled for rid in ref
        if pattern_ok(RULES[rid].pattern, s) for m in RULES[rid].match(s)
    }
    assert labels == {
        (rid, label) for rid in ref for _, label in RULES[rid].subcases or [("", "")]
    }
    _assert_same_as_reference((to_float(s)[0] for s in relabeled), ref, key)
    for seed in (8, 77):
        sparse = _relabeled(_sparse_integer_systems(seed, 960, dim=2), dim=2)
        found = _assert_same_as_reference(sparse, ref, key)
        assert min(found.values()) >= 20, found
    _assert_same_as_reference(_relabeled(DEGENERATE_2D, dim=2), ref, key)


def test_stated_integrals_share_the_dependent_rows_matcher():
    assert all(isinstance(RULES[rid].match, DependentRows) for rid in STATED)


DATA_RULES = [r for r in RULES_2D + RULES_3D if r.ansatz]


@pytest.mark.parametrize("rule", DATA_RULES, ids=lambda r: r.id)
def test_data_rule_conditions_compile_and_guards_are_bools(rule):
    """Every residual of a data rule compiles, and every guard evaluates to
    a bool (not, say, a tuple, which would always hold) on a sampler system
    at each of its match directions and exponents."""
    for text in rule.residuals:
        condition_source(text)
    guards = [condition_function(condition_source(g)) for g in rule.guards]
    s = rule.sample(random.Random(rule.id))
    matches = rule.match(s)
    assert matches
    for m in matches:
        for text, guard in zip(rule.guards, guards):
            assert type(guard(s.b, s.A, s.e, *m.ansatz[1:])) is bool, (rule.id, text)


def test_solved_direction_rules_are_data():
    solved = [r.id for r in DATA_RULES if any(isinstance(v, str) for v in r.ansatz[1])]
    want = [rid for rid in REFERENCE if rid not in STATED]
    assert solved == sorted(want, key=[r.id for r in RULES_3D].index)


# A catalog gap: the L5-1 rows admit the direction (1, 0, 0) with l = 0 here,
# and the integral it gives passes the exact gate, but a12 != 0 breaks the
# printed residuals and no rule reports it.  It is the Volterra integral
# ln|x2| - ln|x1| + 6 x2 + 2 x1 of the (x1, x2) subsystem, free of x3.
GAP = make_system(b=(F(1, 2), F(1, 2), 0), A=((0, 3, 0), (-1, 0, 0), (0, 1, 3)), e=(0, 0, 0))
GAP_H = (
    GenPoly.term(3, 1, (0, 0, 0), (0, 1, 0))
    + GenPoly.term(3, -1, (0, 0, 0), (1, 0, 0))
    + GenPoly.term(3, 6, (0, 1, 0))
    + GenPoly.term(3, 2, (1, 0, 0))
)


def test_l5_1_rows_without_residuals_admit_an_integral():
    b, A, e = GAP.b, GAP.A, GAP.e
    matcher = RULES["L5-1"].match
    assert not matcher.holds(b, A, e)
    ((names, rows),) = matcher.stages
    (v,) = nullspace_candidates(rows(b, A, e)[0])
    abg, l = matcher.direction(**dict(zip(names, v))), (0, 0, 0)
    assert abg == (1, 0, 0)
    assert all(c.is_zero() for c in ansatz_residual(GAP, "3d-t2", abg, l))
    H = potential(gradient_targets_3d(GAP, "3d-t2", abg, l))
    assert lie_genpoly(H, GAP).is_zero()
    assert same_integral(GAP_H, H)


@pytest.mark.xfail(strict=True, reason="catalog gap: a 2D Volterra subsystem in 3D")
def test_l5_1_gap_integral_is_detected():
    assert any(
        d.H_gen is not None and same_integral(GAP_H, d.H_gen)
        for d in detect3d(GAP)
    )


# An L5-7a draw (b = 0, e = 0) whose direction stage has a 2-dimensional
# nullspace in (beta, gamma).  The sampler's own direction (1, -lambda) passes
# the guards, but the three points tried do not.
L5_7A_FAMILY = make_system(
    b=(0, 0, 0),
    A=((0, 0, Fraction(5, 3)), (0, 0, -1), (0, 6, Fraction(-5, 3))),
    e=(0, 0, 0),
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="linalg.nullspace_candidates tries only a 2-dimensional nullspace's basis "
    "vectors (1, 0), (0, 1) and their sum (1, 1), and each fails an L5-7a guard; "
    "the members that pass are never tried (ROADMAP: positive-dimensional "
    "solution sets are decided, not sampled)",
)
def test_l5_7a_is_detected_on_a_two_dimensional_direction_family():
    rules = {d.rule_id for d in detect3d(L5_7A_FAMILY)}
    assert {"L5-5", "L5-7d", "L5-8b", "L5-8c"} <= rules
    assert "L5-7a" in rules
