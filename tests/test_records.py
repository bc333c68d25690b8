"""lvfi's records are slotted classes (lvfi.record), not dataclasses.

A cold `import lvfi, lvfi.cli` loads neither dataclasses nor inspect, and
each record behaves as the dataclass it replaced: the same constructor,
repr, ==, hash, frozen assignment and default lists.  The dataclasses are
declared here, field by field with their defaults, as the package declared
them before.
"""

import copy
import inspect
import pickle
import subprocess
import sys
from dataclasses import field, fields, make_dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

import lvfi
from lvfi import expr as ex
from lvfi.catalog3d import TermTable
from lvfi.detection import Candidate, Detection, Match, Rule, _Gate
from lvfi.linalg import SolveOutcome
from lvfi.model import LVSystem, ModelError, Permutation
from lvfi.oracle import AnsatzSpec, ConditionRow
from lvfi.poly import SymPoly
from lvfi.verify import ConservationReport, Trajectory


def _frozen(name, names):
    return make_dataclass(name, names, frozen=True)


def _none(name):
    return (name, object, None)


def _list(name):
    return (name, list, field(default_factory=list))


DATACLASS = {
    LVSystem: _frozen("LVSystem", ["dim", "b", "A", "e", "kind"]),
    Permutation: _frozen("Permutation", ["sigma"]),
    ex.Const: _frozen("Const", ["value"]),
    ex.Var: _frozen("Var", ["index"]),
    ex.Add: _frozen("Add", ["args"]),
    ex.Mul: _frozen("Mul", ["args"]),
    ex.Pow: _frozen("Pow", ["base", "exponent"]),
    ex.LnAbs: _frozen("LnAbs", ["arg"]),
    ex.Exp: _frozen("Exp", ["arg"]),
    Match: make_dataclass("Match", [
        "params", _none("ansatz"), _none("H_gen"), _none("log"), ("subid", str, ""),
    ]),
    Rule: make_dataclass("Rule", [
        "id", "citation", "dim", "pattern", "match", _list("residuals"), _list("guards"),
        _none("sample"), _none("compare_printed"), _list("notes"), _none("ansatz"),
        _list("subcases"),
    ]),
    Detection: make_dataclass("Detection", [
        "rule_id", "citation", "sigma", "params", "integral", "oracle_kind",
        _none("paper_formula_deviation"), _none("verification"), _none("H_gen"), _none("log"),
        _none("ansatz"),
    ]),
    Candidate: make_dataclass("Candidate", ["rule_id", "sigma", "params", "reason"]),
    _Gate: make_dataclass("_Gate", [
        _none("reason"), _none("Hn"), _none("log"), _none("lie"), _none("expr"),
    ]),
    SolveOutcome: make_dataclass("SolveOutcome", ["status", _none("solution"), _list("basis")]),
    AnsatzSpec: _frozen("AnsatzSpec", ["kind"]),
    ConditionRow: _frozen("ConditionRow", ["component", "exponents", "poly"]),
    Trajectory: make_dataclass("Trajectory", [
        "times", "states", "method", "step", "steps", ("blew_up", bool, False),
    ]),
    ConservationReport: make_dataclass("ConservationReport", [
        "H0", "max_abs_drift", "max_rel_drift", _none("lie_max"), ("sample_count", int, 0),
        ("blew_up", bool, False),
    ]),
    TermTable: _frozen("TermTable", ["B", "A"]),
}

X = ex.Var(0)
# (class, args, kwargs): one instance built with the required fields only,
# one with defaults overridden (positionally or by keyword)
SAMPLES = [
    (LVSystem, (2, (F(1), F(-1)), ((F(0), F(-1)), (F(1), F(0))), (F(0), F(0)), "rational"), {}),
    (LVSystem, (), dict(dim=2, b=(1.5, -1.0), A=((0.0, -1.0), (1.0, 0.0)), e=(0.0, 0.25),
                        kind="float")),
    (Permutation, ((1, 0, 2),), {}),
    (ex.Const, (F(1, 2),), {}),
    (ex.Var, (), dict(index=2)),
    (ex.Add, ((X, ex.Const(F(2))),), {}),
    (ex.Mul, ((X, ex.Var(1)),), {}),
    (ex.Pow, (X, F(-1, 3)), {}),
    (ex.LnAbs, (ex.Add((X, ex.Var(1))),), {}),
    (ex.Exp, (X,), {}),
    (Match, ({"l1": F(1, 2)},), {}),
    (Match, ({}, ("3d-t1", (1, 0, 0), (F(1), F(2), F(3)))), dict(log=(F(2), None), subid="a")),
    (Rule, ("R2D-X", "a citation", 2, (True, None), len), {}),
    (Rule, ("L4-1", "c", 3, None, len, ["a12 = 0"], ["b1 != 0"], len, repr, ["note"],
            ("3d-t1", (), ()), [("l1 = 0", "l1=0")]), {}),
    (Detection, ("R2D-C", "c", (1, 0), {"l1": F(0)}, X, "curl-residual-zero"), {}),
    (Detection, ("R2D-E", "c", (0, 1), {}, X, "exact-lie-zero"),
     dict(paper_formula_deviation="agrees", verification={"lie_max": 1e-17}, ansatz=("2d",))),
    (Candidate, ("L5-1", (0, 2, 1), {"alpha": F(1)}, "nonzero curl residual"), {}),
    (_Gate, (), {}),
    (_Gate, ("a reason",), dict(log=(F(1), None), expr=X)),
    (SolveOutcome, ("infeasible",), {}),
    (SolveOutcome, ("underdetermined", (F(1), F(0))), dict(basis=[(F(0), F(1))])),
    (AnsatzSpec, ("3d-t2",), {}),
    (ConditionRow, (1, (0, 2, 1), SymPoly.sym("b1")), {}),
    (Trajectory, ([0.0, 0.1], [[1.0, 1.0], [1.1, 0.9]], "rk4", 0.1, 1), {}),
    (Trajectory, ([0.0], [[1.0, 1.0]], "rk45", 0.5, 0), dict(blew_up=True)),
    (ConservationReport, (1.0, 2e-16, 1e-16), {}),
    (ConservationReport, (1.0, 0.0, 0.0, 5e-17, 40, True), {}),
    (TermTable, ((F(1), F(2), F(3)), ((F(0),) * 3,) * 3), {}),
]


def _outcome(f, *args):
    """f(*args), or the exception it raised (AttributeError for the
    dataclasses' FrozenInstanceError, its subclass)."""
    try:
        return f(*args)
    except AttributeError:
        return AttributeError
    except Exception as exc:
        return type(exc)


def test_a_cold_import_loads_no_dataclasses_inspect_numpy_or_sympy():
    src = str(Path(lvfi.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import lvfi, lvfi.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'numpy', 'sympy'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_record_class_has_a_declared_dataclass():
    assert len(DATACLASS) == 20
    assert {cls for cls, _, _ in SAMPLES} == set(DATACLASS)


@pytest.mark.parametrize("cls", list(DATACLASS), ids=lambda c: c.__name__)
def test_constructor_takes_the_dataclass_fields_in_order(cls):
    names = [f.name for f in fields(DATACLASS[cls])]
    assert list(inspect.signature(cls).parameters) == names


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=[
    f"{c.__name__}-{sum(d is c for d, _, _ in SAMPLES[:i])}" for i, (c, _, _) in enumerate(SAMPLES)
])
def test_record_behaves_as_its_dataclass(cls, args, kwargs):
    ref = DATACLASS[cls]
    names = [f.name for f in fields(ref)]
    a, b, r = cls(*args, **kwargs), cls(*args, **kwargs), ref(*args, **kwargs)
    assert repr(a) == repr(r)
    assert (a == b, a != b) == (r == ref(*args, **kwargs), r != ref(*args, **kwargs))
    assert (a == b, a != b) == (True, False)
    assert (a == r, a != r) == (False, True)
    assert _outcome(hash, a) == _outcome(hash, r)
    if _outcome(hash, a) is not TypeError:
        assert hash(a) == hash(tuple(getattr(a, f) for f in names))
    assert _outcome(setattr, a, names[0], None) == _outcome(setattr, r, names[0], None)
    assert _outcome(delattr, b, names[0]) == _outcome(delattr, ref(*args, **kwargs), names[0])
    fresh = cls(*args, **kwargs)
    assert copy.copy(fresh) == fresh == copy.deepcopy(fresh) == pickle.loads(pickle.dumps(fresh))


def test_equal_fields_of_another_class_are_not_equal():
    assert ex.LnAbs(X) != ex.Exp(X) and not ex.LnAbs(X) == ex.Exp(X)
    assert ex.Add((X, X)) != ex.Mul((X, X))
    assert ex.Const(F(1)) != ex.Const(F(2)) and ex.Const(F(1)) == ex.Const(1)
    assert Candidate("R", (0, 1), {}, "r") != Candidate("R", (1, 0), {}, "r")
    assert SolveOutcome("unique", (F(1),)) != SolveOutcome("unique", (F(2),))


def test_default_lists_are_fresh_per_instance():
    r1, r2 = Rule("A", "c", 2, None, len), Rule("B", "c", 2, None, len)
    for name in ("residuals", "guards", "notes", "subcases"):
        assert getattr(r1, name) == [] and getattr(r1, name) is not getattr(r2, name)
    r1.residuals.append("a12 = 0")
    assert r2.residuals == []
    assert SolveOutcome("unique").basis is not SolveOutcome("unique").basis


@pytest.mark.parametrize("make, error", [
    (lambda: ex.Add(()), ValueError),
    (lambda: ex.Mul(()), ValueError),
    (lambda: Permutation((0, 0, 2)), ModelError),
    (lambda: AnsatzSpec("4d"), ValueError),
])
def test_constructor_checks_are_kept(make, error):
    with pytest.raises(error):
        make()
