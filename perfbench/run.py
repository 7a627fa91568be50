"""jetvir benchmark: time to an exact verdict on three workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--fault]

Run from anywhere; the program measured is the jetvir source in ``src/``
next to this directory.  Each pass of the workload runs in a fresh Python
process (``onepass.py``), one after another, until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics as medians over the
passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics as medians over the traced ones.  ``--fault``
perturbs one expected value in every pass, which must fail the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every comparison held and every pass made its fixed number of
comparisons, 1 when not, and 2 when the jetvir source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL, WALL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "jetvir"

# Exact comparisons in one pass; a pass that makes a different number failed.
CHECKS_PER_PASS = {
    "closures": 8 * 4,                      # 8 (d, p) points x 4 closures
    "charges-measure": 4 * 9,               # 4 extract_charges calls x 9 charges
    "dense-fields": 4 * 115 + 8 * 4 + 14 + 9 + 576,
    # delta: 4 pairs x sum over d<=3, p<=4 of (1 + d + d^2); cocycles: 8 x 2
    # dimensions x 2 kinds, 14 level reductions, 9 monomials; sums: 576.
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "exactpoly.self_s": "s", "exactpoly.new.calls": "count",
    "exactpoly.mul.calls": "count", "exactpoly.mul.self_s": "s",
    "exactpoly.mul.term_pairs": "count", "exactpoly.add.calls": "count",
    "exactpoly.add.self_s": "s", "exactpoly.compose.calls": "count",
    "exactpoly.compose.self_s": "s", "cocycles.self_s": "s", "jetsums.self_s": "s",
    "jetreps.self_s": "s", "jetreps.mat_mul.calls": "count",
    "jetreps.mat_mul.self_s": "s", "jetreps.build.self_s": "s",
    "jetreps.mat_mul.nonzero_ratio": "ratio", "multiindex.calls": "count",
    "multiindex.self_s": "s", "deltacalc.self_s": "s", "deltacalc.pair.calls": "count",
    "deltacalc.pair.self_s": "s", "deltacalc.pair.nonzero_ratio": "ratio",
    "deltacalc.closed.self_s": "s", "wickcocycle.self_s": "s",
    "wickcocycle.contraction.calls": "count", "wickcocycle.useful_oracle_ratio": "ratio",
    "charges.self_s": "s", "charges.closed.self_s": "s", "trace.overhead_ratio": "ratio",
}

LAYER_SELF = tuple(n for n in PER_LAYER if n.count(".") == 1 and n.endswith(".self_s"))

MIN_PASSES = 3          # untraced passes in a --trace 0 run
DEADLINE_S = 165        # start no pass that would end after this


def run_pass(workload, seed, index, traced, fault, timeout):
    cmd = [sys.executable, str(HERE / "onepass.py"), workload, str(seed), str(index),
           "1" if traced else "0", "1" if fault else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pass {index} of {workload} did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass {index} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS_PER_PASS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", action="store_true",
                    help="perturb one expected value per pass; the run must fail")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        print(f"jetvir source not found at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    start = time.monotonic()
    plain, traced = [], []
    need_plain, need_traced = (1, 1) if args.trace else (MIN_PASSES, 0)
    index = 0
    while True:
        trace_this = bool(args.trace) and index % 2 == 1
        elapsed = time.monotonic() - start
        res = run_pass(args.workload, args.seed, index, trace_this, args.fault,
                       timeout=max(DEADLINE_S - elapsed, 1))
        (traced if trace_this else plain).append(res)
        index += 1
        elapsed = time.monotonic() - start
        enough = len(plain) >= need_plain and len(traced) >= need_traced
        longest = max(r["verdict_s"][WALL] + r["import_s"][WALL] + r["gen_s"][WALL]
                      for r in plain + traced)
        if enough and (elapsed >= args.seconds or elapsed + 2 * longest > DEADLINE_S):
            break

    expected = CHECKS_PER_PASS[args.workload]
    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    bad_counts = [r["attempted"] for r in passes if r["attempted"] != expected]
    correct = failed == 0 and not bad_counts
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {expected} comparisons per pass")
    print(f"check_fail_ratio {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} attempted)")
    if bad_counts:
        print(f"FAIL: passes made {sorted(set(bad_counts))} comparisons, expected {expected}")
    for r in passes:
        if r["first_failure"]:
            print(f"FAIL: first mismatch {r['first_failure']}")
            break

    verdicts = [r["verdict_s"][NOMINAL] for r in plain]
    values = {}
    if args.trace:
        for name in PER_LAYER:
            if name != "trace.overhead_ratio":
                values[name] = statistics.median(r["layers"][name] for r in traced)
        traced_verdict = statistics.median(r["verdict_s"][NOMINAL] for r in traced)
        values["trace.overhead_ratio"] = traced_verdict / statistics.median(verdicts)
        shares = {name: statistics.median(r["layers"][name] / r["verdict_s"][NOMINAL]
                                          for r in traced) for name in LAYER_SELF}
        print(f"self-time share of a traced pass ({traced_verdict:.3f} s): "
              + ", ".join(f"{name[:-7]} {share:.1%}" for name, share in shares.items()))
        spans = statistics.median(r["layers"]["trace.spans"] for r in traced)
        print(f"spans per traced pass: {spans:.0f}")
        units = PER_LAYER
    else:
        values["verdict_s"] = statistics.median(verdicts)
        values["setup_s"] = statistics.median(r["import_s"][NOMINAL] + r["gen_s"][NOMINAL]
                                              for r in plain)
        values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in plain)
        for name in ("verdict_s", "import_s", "gen_s"):
            for kind, k in (("nominal", NOMINAL), ("wall", WALL)):
                q1, med, q3 = statistics.quantiles([r[name][k] for r in plain], n=4)
                print(f"{name} ({kind}): median {med:.6f} s, quartiles {q1:.6f} .. "
                      f"{q3:.6f} s over {len(plain)} passes")
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u}
                                  for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
