"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from jetvir import deltacalc, exactpoly, jetreps, wickcocycle  # noqa: E402


def _snapshot():
    owners = list(tracer._layer_modules().values()) + [exactpoly.Poly,
                                                        jetreps.StructureConstants]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _shape(value):
    """The structure of an input with each Poly reduced to its term count."""
    if isinstance(value, exactpoly.Poly):
        return ("poly", value.dim, len(value.terms))
    if isinstance(value, (tuple, list)):
        return tuple(_shape(v) for v in value)
    if hasattr(value, "components"):
        return _shape(value.components)
    return type(value).__name__


def test_tracer_wraps_every_lookup_name_and_restores_them():
    before = _snapshot()
    original = deltacalc.delta_pair_integral
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert wickcocycle.delta_pair_integral is deltacalc.delta_pair_integral
            assert deltacalc.delta_pair_integral is not original
            assert exactpoly.Poly.__mul__ is not before[(id(exactpoly.Poly), "__mul__")]
            x = exactpoly.Poly.variable(2, 0)
            jetreps.mat_mul(((x,),), ((x * x,),))
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    m = tr.metrics()
    assert m["exactpoly.mul.calls"] == 2 and m["jetreps.mat_mul.calls"] == 1
    assert m["exactpoly.mul.term_pairs"] == 2
    assert m["jetreps.mat_mul.nonzero_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_same_work(name):
    make, _ = workloads.WORKLOADS[name]
    first = make(workloads.pass_rng(name, 7, 0))
    assert first == make(workloads.pass_rng(name, 7, 0))
    for seed, index in ((8, 0), (7, 1)):
        other = make(workloads.pass_rng(name, seed, index))
        assert other != first
        assert _shape(other) == _shape(first)


def test_charge_inputs_keep_generator_terms_fixed():
    for seed in range(20):
        cases = workloads.charge_inputs(workloads.pass_rng("charges-measure", seed, 0))
        assert [(d, p) for d, p, *_ in cases] == [
            (d, p) for d, p, draws in workloads.CHARGE_POINTS for _ in range(draws)]
        for d, p, lam, gl, gr in cases:
            assert len(wickcocycle.build_reparam(lam, d, p).terms) == 2


@pytest.mark.parametrize("traced", (False, True))
def test_dense_fields_pass_makes_its_fixed_checks(traced):
    make, run_pass = workloads.WORKLOADS["dense-fields"]
    inputs = make(workloads.pass_rng("dense-fields", 3, 0))
    checks = workloads.Checks()
    tr = tracer.Tracer()
    if traced:
        with tr.installed():
            run_pass(inputs, checks)
        m = tr.metrics()
        assert m["deltacalc.self_s"] > 0 and m["cocycles.self_s"] > 0
        assert m["deltacalc.pair.calls"] == 4 * 5 * (3 + 7 + 13)
    else:
        run_pass(inputs, checks)
    assert (checks.attempted, checks.failed) == (run.CHECKS_PER_PASS["dense-fields"], 0)


def test_fault_perturbs_the_first_comparison_only():
    checks = workloads.Checks(fault=True)
    checks(Fraction(1, 2), Fraction(1, 2), "first")
    checks(Fraction(1, 2), Fraction(1, 2), "second")
    assert (checks.attempted, checks.failed, checks.first_failure) == (2, 1, "first")
    op = jetreps.gauge_operator([exactpoly.Poly.variable(1, 0)],
                                jetreps.MatrixRep.g_abelian(1), 1, 1)
    assert workloads._perturbed(op) != op


def test_fault_run_fails(capsys):
    assert run.main(["--workload", "dense-fields", "--seed", "1", "--seconds", "1",
                     "--fault"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_missing_source_exits_2_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-source")
    assert run.main(["--workload", "closures", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_clock_samples_during_the_work_and_leaves_no_timer():
    clock = speed.Clock()
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.5 * speed.TICK_S:
        pass
    wall, nominal = clock.stop()
    assert len(clock._segments) >= 4
    assert 3 * speed.TICK_S < wall < time.perf_counter() - t0
    assert nominal > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.CHECKS_PER_PASS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
