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
    pv.add_argument("--d-max", type=int, default=2)
    pv.add_argument("--p-max", type=int, default=3)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--self-test-fault", action="store_true",
                    help="inject a deliberate mismatch; must exit 1")

    ps = sub.add_parser("sums", help="lattice sum table, closed vs brute")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--format", choices=["text", "json", "csv"], default="text")

    pk = sub.add_parser("cocycle", help="evaluate one extension term")
    pk.add_argument("--kind", required=True,
                    choices=["virasoro", "affine", "mixed",
                             "reparam-reparam", "reparam-vector",
                             "reparam-current"])
    pk.add_argument("--d", type=int, default=1)
    pk.add_argument("--xi", help="comma-separated vector-field components in x0..")
    pk.add_argument("--eta", help="comma-separated vector-field components")
    pk.add_argument("--x", dest="x_comp", help="comma-separated gauge components")
    pk.add_argument("--y", dest="y_comp", help="comma-separated gauge components")
    pk.add_argument("--f", help="Laurent polynomial in z")
    pk.add_argument("--g", help="Laurent polynomial in z")
    pk.add_argument("--traj", help="comma-separated trajectory components in z")
    pk.add_argument("--c1", type=_fraction, default=Fraction(0))
    pk.add_argument("--c2", type=_fraction, default=Fraction(0))
    pk.add_argument("--c3", type=_fraction, default=Fraction(0))
    pk.add_argument("--c4", type=_fraction, default=Fraction(0))
    pk.add_argument("--c5", type=_fraction, default=Fraction(0))
    pk.add_argument("--c6", type=_fraction, default=Fraction(0))
    pk.add_argument("--c7", type=_fraction, default=Fraction(0))
    pk.add_argument("--c8", type=_fraction, default=Fraction(0))
    return parser


def cmd_charges(args) -> int:
    _check_ranges(args.d, args.p)
    glrep = from_sl_gl1(args.kappa, args.y_rho, args.delta_rho, args.d)
    grep = GRepTraces(args.delta_m, args.y_m, args.z_m, args.w_m,
                      Statistics(args.statistics))
    cs = closed_form(args.d, args.p, args.lam, glrep, grep)
    table = compare(cs, extract_charges(args.d, args.p, args.lam, glrep, grep)) \
        if args.measure else None
    ok = table is None or all(m == c for _, m, c in table if m is not None)

    if args.format == "json":
        payload = cs.to_json()
        if table is not None:
            # the json layout lists c1+c2 right after c2 (stable sort on the last digit)
            payload["measured"] = {
                name.replace("+", "_plus_"): None if m is None else fraction_json(m)
                for name, m, _ in sorted(table, key=lambda row: row[0][-1])}
            payload["match"] = ok
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    rows = _charge_rows(cs, table)
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(rows[0])
        writer.writerows(rows[1:])
        print(out.getvalue(), end="")
        return 0 if ok else 1
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    if table is not None:
        print(f"engine match: {'exact' if ok else 'MISMATCH'}")
    return 0 if ok else 1


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
    report = run_all(d_max=args.d_max, p_max=args.p_max, seed=args.seed,
                     fault=args.self_test_fault)
    width = max(len(s.name) for s in report.suites)
    for s in report.suites:
        status = "pass" if s.ok else "FAIL"
        print(f"{s.name.ljust(width)}  {s.checks:5d} checks  {status}")
        if not s.ok:
            print(f"  first failing witness: {s.failures[0]}")
    print("result:", "pass" if report.ok else "FAIL")
    return 0 if report.ok else 1


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
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerows(rows)
        print(out.getvalue(), end="")
    else:
        for r in rows:
            print("  ".join(str(v).ljust(6) for v in r).rstrip())
    return 0


def cmd_cocycle(args) -> int:
    d = args.d
    check_int("--d", d, 1)

    def need(value, flag):
        if value is None:
            raise ValueError(f"--{flag} is required for kind {args.kind}")
        return value

    traj = None
    if args.traj is not None:
        comps = _parse_components(args.traj, 1, "z")
        if len(comps) != d:
            raise ValueError(f"trajectory needs {d} components")
        traj = Trajectory(tuple(comps))

    if args.kind == "virasoro":
        xi = _parse_components(need(args.xi, "xi"), d)
        eta = _parse_components(need(args.eta, "eta"), d)
        value = virasoro_cocycle(xi, eta, need(traj, "traj"), args.c1, args.c2)
    elif args.kind == "affine":
        x = _parse_components(need(args.x_comp, "x"), d)
        y = _parse_components(need(args.y_comp, "y"), d)
        value = affine_cocycle(x, y, need(traj, "traj"), args.c5, args.c8)
    elif args.kind == "mixed":
        xi = _parse_components(need(args.xi, "xi"), d)
        x = _parse_components(need(args.x_comp, "x"), d)
        value = mixed_cocycle(xi, x, need(traj, "traj"), args.c7)
    elif args.kind == "reparam-reparam":
        f = parse_poly(need(args.f, "f"), 1, "z")
        g = parse_poly(need(args.g, "g"), 1, "z")
        value = reparam_reparam_cocycle(f, g, args.c4)
    elif args.kind == "reparam-vector":
        f = parse_poly(need(args.f, "f"), 1, "z")
        xi = _parse_components(need(args.xi, "xi"), d)
        value = reparam_vector_cocycle(f, xi, need(traj, "traj"), args.c3)
    else:  # reparam-current
        f = parse_poly(need(args.f, "f"), 1, "z")
        x = _parse_components(need(args.x_comp, "x"), d)
        value = reparam_current_cocycle(f, x, need(traj, "traj"), args.c6)
    print(value)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "charges":
            return cmd_charges(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sums":
            return cmd_sums(args)
        if args.command == "cocycle":
            return cmd_cocycle(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
