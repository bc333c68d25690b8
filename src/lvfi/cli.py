"""Command-line front end.

Subcommands: detect, verify, oracle, sweep, catalog.  Exit-code contract:
0 success/found, 1 input error, 2 usage or internal/domain error, 3 clean
negative (no detection, nonzero residual, failed sweep samples).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache

from . import expr as ex
from .catalog2d import RULES_2D, SAMPLERS_2D, detect2d_full
from .catalog3d import RULES_3D, SAMPLERS_3D, detect3d_full
from .model import ModelError, parse_system, rhs_floats
from .oracle import AnsatzError, AnsatzSpec, residual_2d, residual_3d, residual_dump
from .verify import (
    DomainViolation,
    conservation_report,
    integrate,
    lie_check,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_NEGATIVE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


# Type functions: a bad value is a usage error (exit 2) when the command line
# is parsed, before any detection runs.  argparse reports a ValueError as
# "invalid <type> value" and an ArgumentTypeError with its message.


def _frac(text: str) -> Fraction:
    # a ValueError, not a ZeroDivisionError, which argparse would not catch
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _count(text: str) -> int:
    # a sweep of no samples has no worst case to report, and a Lie check of
    # no points checks nothing
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return n


def _positive(text: str) -> float:
    # a step or a time span that is not positive integrates nothing
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return x


def _tolerance(text: str) -> float:
    # a NaN or negative tolerance fails every check, whatever the integral
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return x


def _region(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(",")
    if not sep:
        raise argparse.ArgumentTypeError(f"must be lo,hi, got {text!r}")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"must be lo,hi with lo < hi, got {text!r}")
    return lo, hi


def _point(text: str) -> tuple[float, ...]:
    x0 = tuple(float(v) for v in text.split(","))
    if not all(math.isfinite(v) for v in x0):
        raise argparse.ArgumentTypeError(f"must be finite numbers, got {text!r}")
    return x0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: LVFI_SEED or 42)")
    p.add_argument("--points", type=_count, default=50, help="Lie-check sample count")
    p.add_argument(
        "--region", type=_region, default="0.1,10",
        help="sampling box lo,hi per axis (a negative lo as --region=-1,1)",
    )
    p.add_argument("--t-end", type=_positive, default=10.0, dest="t_end")
    p.add_argument("--step", type=_positive, default=1e-3)
    p.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    p.add_argument("--tol-lie", type=_tolerance, default=1e-10, dest="tol_lie")
    p.add_argument("--tol-drift", type=_tolerance, default=1e-6, dest="tol_drift")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LVFI_SEED")
    return int(env) if env else 42


# argparse reads "--x0 -1,0.5" as a flag with no value; "--x0=-1,0.5" works
_X0_HELP = "initial point for conservation, comma separated (a negative first one as --x0=-1,0.5)"


def _detect_arguments(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="system JSON path or - for stdin")
    p.add_argument("--no-verify", action="store_true", help="skip numerical verification")
    p.add_argument("--x0", type=_point, default=None, help=_X0_HELP)


def _verify_arguments(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True)
    p.add_argument("--integral", required=True, help="integral AST JSON path or - for stdin")
    p.add_argument("--x0", type=_point, default=None, help=_X0_HELP)


def _oracle_arguments(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True)
    p.add_argument("--ansatz", choices=("2d", "t1", "t2"), required=True)
    p.add_argument("--alpha", type=_frac, default=Fraction(0))
    p.add_argument("--beta", type=_frac, default=Fraction(0))
    p.add_argument("--gamma", type=_frac, default=Fraction(0))
    p.add_argument("--l1", type=_frac, default=Fraction(1))
    p.add_argument("--l2", type=_frac, default=Fraction(1))
    p.add_argument("--l3", type=_frac, default=Fraction(1))


def _sweep_arguments(p: argparse.ArgumentParser):
    p.add_argument("--rule", required=True)
    p.add_argument("--count", type=_count, default=20)


# name: (help, the subcommand's own arguments)
_SUBCOMMANDS = {
    "detect": ("detect first integrals of a system", _detect_arguments),
    "verify": ("verify a given integral against a system", _verify_arguments),
    "oracle": ("dump the curl residual for given Ansatz parameters", _oracle_arguments),
    "sweep": ("sample a rule's condition manifold and verify", _sweep_arguments),
    "catalog": ("print the full rule catalog", lambda p: None),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the command line argv.

    When argv[0] names a subcommand, only that one is registered, with the
    full list as the metavar so that usage lines read as before; otherwise
    every subcommand is.  Parsing argv, help and usage errors included, is
    as with all five registered, for one subparser's cost instead of five.

    Each of the six parsers is built once per process (_parser) and shared
    by every later call: parsing keeps no state in a parser (the namespace
    is new per parse, help and usage are formatted at the terminal width of
    the moment).  A build of the detect parser costs 0.4-0.6 ms, six to
    eight times what parsing a detect command line with it costs (CPython
    3.11, 2-core Xeon).
    """
    return _parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)


@lru_cache(maxsize=None)
def _parser(named) -> argparse.ArgumentParser:
    """The parser with only the subcommand named registered, or every one
    when named is None."""
    ap = argparse.ArgumentParser(
        prog="lvfi",
        description="Detect and verify first integrals of 2D/3D Lotka-Volterra "
        "systems with constant terms.",
    )
    metavar = None if named is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            _add_common(p)
    return ap


def _detections_payload(s, dets, args, do_verify: bool, x0=None):
    seed = _seed_of(args)
    out = []
    # every detection of one system checks the same field, built once
    field = rhs_floats(s) if do_verify and dets else None
    trajectories: dict = {}
    for d in dets:
        rec = d.to_json_obj()
        if do_verify:
            ver: dict = {}
            try:
                ver["lie_max"] = lie_check(
                    d.integral, s, n=args.points, region=args.region, seed=seed, field=field
                )
            except (DomainViolation, ex.EvalDomainError) as exc:
                ver["lie_max"] = None
                ver["lie_error"] = str(exc)
            start, rep = _drift_from_point(d.integral, s, args, x0, trajectories)
            if start is None:
                ver.update({"x0": None, "max_rel_drift": None, "drift_error": rep})
            else:
                ver.update({
                    "x0": list(start),
                    "max_rel_drift": rep.max_rel_drift,
                    "max_abs_drift": rep.max_abs_drift,
                    "H0": rep.H0,
                    "blew_up": rep.blew_up,
                })
            rec["verification"] = ver
            d.verification = ver
        out.append(rec)
    return out


_X0_CANDIDATES = ((1.0,), (0.9, 1.1), (1.3, 0.7, 1.1), (0.5, 1.5, 0.8))


def _drift_from_point(h, s, args, x0, trajectories):
    """Conservation drift from x0 (default all-ones, falling back to nearby
    in-domain points when logs, blow-up or an equilibrium demand it).

    A start point whose trajectory is constant, an equilibrium above all, is
    skipped: every function has drift 0.0 along it, so the drift would
    certify nothing.  Every detection of one system integrates the same
    field, so trajectories are shared within one call: ``trajectories`` maps
    each start point already tried to its Trajectory, or to the error that
    rules it out.

    Returns (start point, ConservationReport) from the first usable start
    point, or (None, the message of the last error) when none is usable.
    """
    candidates = []
    if x0 is not None:
        candidates.append(tuple(x0))
    else:
        candidates.append(tuple(1.0 for _ in range(s.dim)))
        for c in _X0_CANDIDATES:
            if len(c) == s.dim:
                candidates.append(c)
        candidates.append(tuple(0.9 + 0.05 * i for i in range(s.dim)))
    last_err = None
    for cand in candidates:
        if cand not in trajectories:
            try:
                tr = integrate(s, cand, args.t_end, args.step, args.method)
            except (DomainViolation, OverflowError) as exc:
                tr = exc
            else:
                if (tr.states == tr.states[0]).all():
                    tr = DomainViolation(
                        f"the trajectory from x0 = {list(cand)} is constant, "
                        "so no drift can show"
                    )
            trajectories[cand] = tr
        tr = trajectories[cand]
        if isinstance(tr, Exception):
            last_err = str(tr)
            continue
        try:
            rep = conservation_report(h, tr)
        except (DomainViolation, ex.EvalDomainError, OverflowError) as exc:
            last_err = str(exc)
            continue
        return cand, rep
    return None, last_err


def _check_x0(x0, s) -> None:
    """Reject a start point whose length is not the system's dimension
    before any detection or integration runs; main reports the ValueError
    as an input error."""
    if x0 is not None and len(x0) != s.dim:
        raise ValueError(f"--x0 has {len(x0)} components but the system has dimension {s.dim}")


def cmd_detect(args) -> int:
    try:
        s = parse_system(_read_text(args.input))
    except (OSError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _check_x0(args.x0, s)
    dets, cands = detect2d_full(s) if s.dim == 2 else detect3d_full(s)
    payload = _detections_payload(s, dets, args, do_verify=not args.no_verify, x0=args.x0)
    doc = {
        "detections": payload,
        "candidates_failed_oracle": [
            {"rule": c.rule_id, "sigma": [i + 1 for i in c.sigma], "reason": c.reason}
            for c in cands
        ],
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=str))
    else:
        if not dets:
            print("no first integral found within the Ansatz catalog")
        for rec in payload:
            print(f"rule {rec['rule']}  [{rec['citation']}]")
            if rec["sigma"] != list(range(1, s.dim + 1)):
                print(f"  coordinates relabeled via sigma = {rec['sigma']}")
            if rec["params"]:
                print(f"  parameters: {json.dumps(rec['params'])}")
            print(f"  H = {rec['integral_pretty']}")
            print(f"  oracle: {rec['oracle']}")
            if rec.get("paper_formula_deviation"):
                print(f"  paper_formula_deviation: {rec['paper_formula_deviation']}")
            ver = rec.get("verification")
            if ver:
                print(
                    f"  verification: lie_max = {ver.get('lie_max')}, "
                    f"max_rel_drift = {ver.get('max_rel_drift')}"
                    + (f" (x0 = {ver.get('x0')})" if ver.get("x0") else "")
                )
                # why a check gave no number
                for name in ("lie_error", "drift_error"):
                    if ver.get(name):
                        print(f"    {name}: {ver[name]}")
        for c in doc["candidates_failed_oracle"]:
            print(f"candidate (failed oracle): {c['rule']} - {c['reason']}")
    return EXIT_OK if dets else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    try:
        s = parse_system(_read_text(args.input))
        text = _read_text(args.integral)
    except (OSError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        h = ex.from_json(text)
    except ValueError as exc:
        print(f"error: the integral in --integral {args.integral} failed to parse: {exc}",
              file=sys.stderr)
        return EXIT_INPUT
    if ex.max_var_index(h) >= s.dim:
        print("error: integral uses variables beyond the system dimension", file=sys.stderr)
        return EXIT_INPUT
    _check_x0(args.x0, s)
    try:
        lie = lie_check(h, s, n=args.points, region=args.region, seed=_seed_of(args))
    except (DomainViolation, ex.EvalDomainError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    start, rep = _drift_from_point(h, s, args, args.x0, {})
    if start is None:
        print(f"domain error: {rep}", file=sys.stderr)
        return EXIT_INTERNAL
    rep.lie_max = lie
    doc = rep.to_json_obj()
    ok = lie <= args.tol_lie and rep.max_rel_drift <= args.tol_drift
    doc["pass"] = ok
    doc["x0"] = list(start)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"x0             = {list(start)}")
        print(f"lie_max        = {lie}")
        print(f"H0             = {rep.H0}")
        print(f"max_abs_drift  = {rep.max_abs_drift}")
        print(f"max_rel_drift  = {rep.max_rel_drift}")
        if rep.blew_up:
            print("trajectory stopped early (blow-up guard)")
        print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    try:
        s = parse_system(_read_text(args.input))
    except (OSError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.ansatz == "2d":
            if s.dim != 2:
                raise AnsatzError("2d ansatz needs a 2D system")
            comps = [residual_2d(s, args.alpha, args.beta, args.gamma)]
        else:
            if s.dim != 3:
                raise AnsatzError(f"{args.ansatz} ansatz needs a 3D system")
            spec = AnsatzSpec("3d-" + args.ansatz)
            comps = residual_3d(
                s, spec, (args.alpha, args.beta, args.gamma), (args.l1, args.l2, args.l3)
            )
    except AnsatzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    dump = residual_dump(comps)
    if args.format == "json":
        print(json.dumps({"residual": dump}, indent=2))
    else:
        if not dump:
            print("residual is identically zero")
        for rec in dump:
            print(
                f"component {rec['component']}  x^{tuple(rec['exponents'])}  "
                f"coefficient {rec['coefficient']}"
            )
    return EXIT_OK if not dump else EXIT_NEGATIVE


def cmd_sweep(args) -> int:
    samplers = dict(SAMPLERS_2D)
    samplers.update(SAMPLERS_3D)
    if args.rule not in samplers:
        known = ", ".join(sorted(samplers))
        print(f"error: unknown rule {args.rule!r}; known: {known}", file=sys.stderr)
        return EXIT_INPUT
    sampler = samplers[args.rule]
    rng = random.Random(_seed_of(args))
    family = args.rule.split("/")[0]
    results = []
    for k in range(args.count):
        s = sampler(rng)
        dets, _ = detect2d_full(s) if s.dim == 2 else detect3d_full(s)
        hits = [d for d in dets if d.rule_id.split("/")[0] == family]
        if not hits:
            results.append({"index": k, "pass": False, "reason": "no detection"})
            continue
        d = hits[0]
        lie = lie_check(d.integral, s, n=args.points, region=args.region, seed=_seed_of(args))
        rec = {
            "index": k,
            "pass": lie <= args.tol_lie,
            "lie_max": lie,
            "rule": d.rule_id,
        }
        if d.paper_formula_deviation:
            rec["paper_formula_deviation"] = d.paper_formula_deviation
        results.append(rec)
    npass = sum(1 for r in results if r["pass"])
    worst = max((r.get("lie_max", 0.0) or 0.0) for r in results)
    if args.format == "json":
        print(
            json.dumps(
                {"rule": args.rule, "pass": npass, "total": len(results),
                 "worst_lie_max": worst, "samples": results},
                indent=2,
            )
        )
    else:
        print(f"rule {args.rule}: {npass}/{len(results)} pass, worst lie_max = {worst}")
        notes = {r.get("paper_formula_deviation") for r in results if r.get("paper_formula_deviation")}
        for n in sorted(notes):
            print(f"  paper_formula_deviation: {n}")
        for r in results:
            if not r["pass"]:
                print(f"  sample {r['index']}: FAIL ({r.get('reason', 'lie check')})")
    return EXIT_OK if npass == len(results) else EXIT_NEGATIVE


def cmd_catalog(args) -> int:
    records = [r.conditions() for r in RULES_2D + RULES_3D]
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        for rec in records:
            print(f"{rec['id']}  ({rec['dim']}D)  {rec['citation']}")
            if rec["residuals"]:
                print(f"  vanishing: {'; '.join(rec['residuals'])}")
            if rec["guards"]:
                print(f"  guards:    {'; '.join(rec['guards'])}")
            for n in rec["notes"]:
                print(f"  note:      {n}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        handler = {
            "detect": cmd_detect,
            "verify": cmd_verify,
            "oracle": cmd_oracle,
            "sweep": cmd_sweep,
            "catalog": cmd_catalog,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the exit flush of what is left cannot
        # raise again; print nothing, as a process SIGPIPE ended would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (DomainViolation, ex.EvalDomainError, AnsatzError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
