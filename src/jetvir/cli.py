"""Command-line front-end.

Commands:

  charges   print the eight closed-form charges for one parameter point;
            with --measure, also run the contraction engine and compare.
  verify    run all verification sweeps; exit 0 iff everything matches.
  sums      tabulate the five lattice sums, closed vs brute.
  cocycle   evaluate one residue extension term.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Rationals are always printed exactly (num/den), never as floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .charges import (
    ChargeSet,
    GRepTraces,
    Statistics,
    closed_form,
    compare,
    fraction_json,
    from_sl_gl1,
)
from .cocycles import (
    Trajectory,
    affine_cocycle,
    mixed_cocycle,
    reparam_current_cocycle,
    reparam_reparam_cocycle,
    reparam_vector_cocycle,
    virasoro_cocycle,
)
from .exactpoly import Poly, parse_poly
from .jetsums import SumKind, sum_brute, sum_closed
from .multiindex import check_int
from .verify import run_all
from .wickcocycle import extract_charges

USAGE_ERROR = 2

# kind -> (cocycle, its operand flags in call order, its charge flags).
# --f and --g are Laurent polynomials in z, --traj is the loop, and every
# other operand is a comma-separated field in d variables.
COCYCLES = {
    "virasoro": (virasoro_cocycle, ("xi", "eta", "traj"), ("c1", "c2")),
    "affine": (affine_cocycle, ("x", "y", "traj"), ("c5", "c8")),
    "mixed": (mixed_cocycle, ("xi", "x", "traj"), ("c7",)),
    "reparam-reparam": (reparam_reparam_cocycle, ("f", "g"), ("c4",)),
    "reparam-vector": (reparam_vector_cocycle, ("f", "xi", "traj"), ("c3",)),
    "reparam-current": (reparam_current_cocycle, ("f", "x", "traj"), ("c6",)),
}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _check_ranges(d: int, p: int) -> None:
    """The (d, p) range of ``charges`` and ``sums``."""
    if not (1 <= d <= 6 and 0 <= p <= 10):
        raise ValueError("supported ranges are 1 <= d <= 6, 0 <= p <= 10")


def _parse_components(text: str, d: int, varname: str = "x") -> list[Poly]:
    return [parse_poly(part.strip(), d, varname) for part in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetvir",
        description="Exact computations with jet-truncated current, "
                    "vector-field and reparametrization algebras.",
    )
    parser.add_argument("--version", action="version", version=f"jetvir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("charges", help="closed-form (and measured) charges")
    pc.set_defaults(run=cmd_charges)
    pc.add_argument("--d", type=int, required=True, help="spatial dimension")
    pc.add_argument("--p", type=int, required=True, help="jet order")
    pc.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(0),
                    help="conformal weight of the reparametrization sector")
    pc.add_argument("--kappa", type=_fraction, default=Fraction(0),
                    help="density weight of the field")
    pc.add_argument("--y-rho", type=_fraction, default=Fraction(0))
    pc.add_argument("--delta-rho", type=int, default=1)
    pc.add_argument("--delta-m", type=int, default=1)
    pc.add_argument("--y-m", type=_fraction, default=Fraction(0))
    pc.add_argument("--z-m", type=_fraction, default=Fraction(0))
    pc.add_argument("--w-m", type=_fraction, default=Fraction(0))
    pc.add_argument("--statistics", choices=["bose", "fermi"], default="bose")
    pc.add_argument("--measure", action="store_true",
                    help="also measure the charges with the contraction engine")
    pc.add_argument("--format", choices=["text", "json", "csv"], default="text")

    pv = sub.add_parser("verify", help="run all verification sweeps")
    pv.set_defaults(run=cmd_verify)
    pv.add_argument("--d-max", type=int, default=2)
    pv.add_argument("--p-max", type=int, default=3)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--self-test-fault", action="store_true",
                    help="inject a deliberate mismatch into every suite; must exit 1")

    ps = sub.add_parser("sums", help="lattice sum table, closed vs brute")
    ps.set_defaults(run=cmd_sums)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--format", choices=["text", "json", "csv"], default="text")

    pk = sub.add_parser("cocycle", help="evaluate one extension term")
    pk.set_defaults(run=cmd_cocycle)
    pk.add_argument("--kind", required=True, choices=list(COCYCLES))
    pk.add_argument("--d", type=int, default=1)
    pk.add_argument("--xi", help="comma-separated vector-field components in x0..")
    pk.add_argument("--eta", help="comma-separated vector-field components")
    pk.add_argument("--x", metavar="X_COMP", help="comma-separated gauge components")
    pk.add_argument("--y", metavar="Y_COMP", help="comma-separated gauge components")
    pk.add_argument("--f", help="Laurent polynomial in z")
    pk.add_argument("--g", help="Laurent polynomial in z")
    pk.add_argument("--traj", help="comma-separated trajectory components in z")
    for i in range(1, 9):
        pk.add_argument(f"--c{i}", type=_fraction, default=Fraction(0))
    return parser


def cmd_charges(args) -> int:
    _check_ranges(args.d, args.p)
    glrep = from_sl_gl1(args.kappa, args.y_rho, args.delta_rho, args.d)
    grep = GRepTraces(args.delta_m, args.y_m, args.z_m, args.w_m,
                      Statistics(args.statistics))
    cs = closed_form(args.d, args.p, args.lam, glrep, grep)
    measured = extract_charges(args.d, args.p, args.lam, glrep, grep) \
        if args.measure else None
    table = None if measured is None else compare(cs, measured)
    ok = table is None or all(m == c for _, m, c in table if m is not None)

    if args.format == "json":
        payload = cs.to_json()
        if measured is not None:
            # the charge slots in order: c1, c2, c1_plus_c2, c3..c8
            payload["measured"] = {name: fraction_json(getattr(measured, name))
                                   for name in ChargeSet.__slots__[5:]}
            payload["match"] = ok
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    rows = _charge_rows(cs, table)
    if args.format == "csv":
        _print_csv(rows)
        return 0 if ok else 1
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    if table is not None:
        print(f"engine match: {'exact' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _print_csv(rows) -> None:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    print(out.getvalue(), end="")


def _charge_rows(cs, table):
    if table is None:
        return [["charge", "closed"]] + [[name, str(value)]
                                         for name, value in cs.charges().items()]
    rows = [["charge", "closed", "measured", "match"]]
    for name, m, value in table:
        if m is None:
            rows.append([name, str(value), "-", "n/a (d=1 measures c1+c2)"])
        else:
            rows.append([name, str(value), str(m), "yes" if m == value else "NO"])
    return rows


def cmd_verify(args) -> int:
    suites = run_all(d_max=args.d_max, p_max=args.p_max, seed=args.seed,
                     fault=args.self_test_fault)
    # a run with no suite has shown nothing, so it does not pass
    ok = bool(suites) and all(s.ok for s in suites)
    width = max((len(s.name) for s in suites), default=0)
    for s in suites:
        status = "pass" if s.ok else "FAIL"
        print(f"{s.name.ljust(width)}  {s.checks:5d} checks  {status}")
        if s.failures:
            print(f"  first failing witness: {s.failures[0]}")
    print("result:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_sums(args) -> int:
    _check_ranges(args.d, args.p)
    d, p = args.d, args.p
    rows = [["kind", "closed", "brute"]]
    rows.append(["A", sum_closed(SumKind.A, d, p), sum_brute(SumKind.A, d, p)])
    for kind in (SumKind.B, SumKind.C):
        rows.append([kind.value, sum_closed(kind, d, p, 0),
                     sum_brute(kind, d, p, 0)])
    if d >= 2:
        for kind in (SumKind.D, SumKind.E):
            rows.append([kind.value, sum_closed(kind, d, p, 0, 1),
                         sum_brute(kind, d, p, 0, 1)])
    if args.format == "json":
        print(json.dumps({"d": d, "p": p,
                          "sums": {r[0]: {"closed": r[1], "brute": r[2]}
                                   for r in rows[1:]}}, indent=2))
    elif args.format == "csv":
        _print_csv(rows)
    else:
        for r in rows:
            print("  ".join(str(v).ljust(6) for v in r).rstrip())
    return 0


def cmd_cocycle(args) -> int:
    d = args.d
    check_int("--d", d, 1)
    traj = None
    if args.traj is not None:
        comps = _parse_components(args.traj, 1, "z")
        if len(comps) != d:
            raise ValueError(f"trajectory needs {d} components")
        traj = Trajectory(tuple(comps))

    cocycle, operands, charges = COCYCLES[args.kind]
    values = []
    for flag in operands:
        text = getattr(args, flag)
        if text is None:
            raise ValueError(f"--{flag} is required for kind {args.kind}")
        values.append(traj if flag == "traj"
                      else parse_poly(text, 1, "z") if flag in ("f", "g")
                      else _parse_components(text, d))
    print(cocycle(*values, *(getattr(args, c) for c in charges)))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
