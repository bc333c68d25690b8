"""Audit of the paper's printed integrals against the exact construction.

Each 3D rule with a printed integral keeps only its audited verdict
(Rule.compare_printed, catalog3d._PrintedVerdict), which a detection reports
as paper_formula_deviation.  Here the printed forms (tests/printed_forms.py)
are evaluated at every match that detect3d emits on seeded draws of every
3D sampler, each under every relabeling, and on witnesses of the
subvarieties where a verdict differs; each verdict must be the note the
rule returned there.
"""

import random
from fractions import Fraction

import pytest

from lvfi.catalog3d import RULES_3D, SAMPLERS_3D
from lvfi.model import Permutation, make_system, permute_system

from printed_forms import PRINTED, audit

F = Fraction

DRAWS = 8  # per sampler, each under all six relabelings

# Systems on the subvarieties where a rule's verdict differs from its
# generic one, which seeded draws reach rarely.
WITNESSES = {
    # a11 = e1 = 0: L2-ii's two sign typos multiply zero
    "L2-ii": make_system(b=(1, -1, -1), A=((0, -2, -2), (0, 1, 1), (0, 1, 1)), e=(0, 2, 3)),
    # l1 = l2 = -1/2: the printed form is -1 times the construction
    "L5-7c": make_system(b=(3, 3, 3), A=((0, 3, 1), (0, 3, 0), (-3, -1, F(1, 2))), e=(0, 0, 0)),
    # l2 = l3 = -1/2: the swapped printed l2 is the exact l2
    "L5-8b": make_system(b=(0, 3, 3), A=((0, -3, 2), (0, 0, 12), (0, -12, 4)), e=(0, 0, 0)),
    # l3 = -1: the printed form divides by l3 + 1
    "L4-9": make_system(b=(3, -3, -3), A=((0, -3, 3), (0, 0, -3), (0, -3, -1)), e=(1, 0, 0)),
}


def _relabeled(s):
    return [permute_system(s, p) for p in Permutation.all(3)]


@pytest.fixture(scope="module")
def audited():
    systems = []
    for rule_id, sampler in sorted(SAMPLERS_3D.items()):
        rng = random.Random(f"printed {rule_id}")
        for _ in range(DRAWS):
            systems += _relabeled(sampler(rng))
    for s in WITNESSES.values():
        systems += _relabeled(s)
    return audit(systems)


def test_printed_verdicts_are_the_rules_notes(audited):
    wrong = [(rid, verdict, note) for rid, verdict, note in audited if verdict != note]
    assert not wrong, wrong[:5]
    assert {rid for rid, _, _ in audited} == set(PRINTED)
    assert set(PRINTED) == {r.id for r in RULES_3D if r.compare_printed is not None}


def test_every_verdict_and_exception_is_reached(audited):
    """The generic verdict of every rule and each exception's note occur, so
    every condition that names a subvariety is exercised."""
    reached = {(rid, note) for rid, _, note in audited}
    for rule in RULES_3D:
        if rule.compare_printed is None:
            continue
        verdict = rule.compare_printed
        for note in [verdict.verdict, *(n for _, n in verdict.exceptions)]:
            assert (rule.id, note) in reached, (rule.id, note)

