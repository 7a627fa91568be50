"""One pass of one workload in a fresh process; prints its figures as JSON.

Usage: python3 perfbench/onepass.py WORKLOAD SEED PASS TRACE FAULT

``run.py`` starts one such process per pass, so every pass pays the import
and input generation a user of ``jetvir`` pays, and no pass finds state
left by an earlier one.  Each time is reported as ``[wall seconds, nominal
seconds]`` (see ``speed.py``).  Only ``os``, ``sys``, ``time``, ``math`` and
``signal`` are imported before the import of jetvir is timed.
"""

import os
import sys
import time


def main(argv):
    workload, seed, index, trace, fault = argv
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    from speed import NOMINAL, Clock
    clock = Clock()

    clock.start()
    import importlib
    import jetvir
    for layer in jetvir.__all__:
        importlib.import_module(f"jetvir.{layer}")
    import_s = clock.stop()
    if os.path.dirname(os.path.dirname(os.path.abspath(jetvir.__file__))) != src:
        raise SystemExit(f"imported jetvir from {jetvir.__file__}, not from {src}")

    import json
    import resource

    import workloads

    make_inputs, run = workloads.WORKLOADS[workload]
    clock.start()
    inputs = make_inputs(workloads.pass_rng(workload, int(seed), int(index)))
    gen_s = clock.stop()

    checks = workloads.Checks(fault=fault == "1")
    out = {}
    if trace == "1":
        import tracer
        tr = tracer.Tracer()
        with tr.installed():
            clock.start()
            t0 = time.perf_counter()
            run(inputs, checks)
            spanned_s = time.perf_counter() - t0
            verdict_s = clock.stop()
        # Spans also cover the clock's samples; scaling by the nominal time
        # over the spanned time puts self times in nominal seconds that add
        # up to at most the pass's verdict_s.
        scale = verdict_s[NOMINAL] / spanned_s
        out["layers"] = {k: v * scale if k.endswith("self_s") else v
                         for k, v in tr.metrics().items()}
    else:
        clock.start()
        run(inputs, checks)
        verdict_s = clock.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(import_s=import_s, gen_s=gen_s, verdict_s=verdict_s,
               peak_rss_mib=peak_kib / 1024, attempted=checks.attempted,
               failed=checks.failed, first_failure=checks.first_failure)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
