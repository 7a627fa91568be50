"""``verify`` runs its suites from one table: every ``suite_*`` function is
a row of ``verify.SUITES`` with the parameters (seed, d_max, p_max, fault)
and no defaults, and neither ``run_all`` nor the CLI calls a suite by name,
so adding a suite means adding one row rather than one more call."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "jetvir"
PARAMETERS = ["seed", "d_max", "p_max", "fault"]


def _called_suites(tree):
    """The lines of every call of a ``suite_*`` function by name."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")).startswith("suite_")]


def _violations(verify_source, cli_source):
    tree = ast.parse(verify_source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    suites = {name: f for name, f in functions.items() if name.startswith("suite_")}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SUITES")
    rows = {row.elts[0].id for row in table.elts}
    return {
        "called in run_all": _called_suites(functions["run_all"]),
        "called in cli": _called_suites(ast.parse(cli_source)),
        "not a row": sorted(set(suites) - rows),
        "row of no suite": sorted(rows - set(suites)),
        "other parameters": sorted(
            name for name, f in suites.items()
            if [a.arg for a in f.args.args] != PARAMETERS or f.args.defaults
            or f.args.vararg or f.args.kwonlyargs or f.args.kwarg),
    }


CLEAN = {"called in run_all": [], "called in cli": [], "not a row": [],
         "row of no suite": [], "other parameters": []}


def test_each_suite_is_one_row_and_no_caller_names_it():
    verify_source = (SOURCE / "verify.py").read_text()
    assert _violations(verify_source, (SOURCE / "cli.py").read_text()) == CLEAN


def test_a_direct_suite_call_in_run_all_is_found():
    source = (SOURCE / "verify.py").read_text()
    row = "    return [suite(seed"
    assert source.count(row) == 1
    source = source.replace(row, "    extra = suite_delta(seed, 3, 4, fault)\n" + row)
    found = _violations(source, "")
    assert len(found.pop("called in run_all")) == 1
    assert found == {k: v for k, v in CLEAN.items() if k != "called in run_all"}


def test_a_suite_off_the_table_or_with_defaults_is_found():
    source = ("def suite_a(seed, d_max, p_max, fault): pass\n"
              "def suite_b(seed, d_max=2, p_max=3, fault=False): pass\n"
              "def suite_c(d_max, p_max): pass\n"
              "SUITES = ((suite_a, None), (suite_b, None), (suite_gone, None))\n"
              "def run_all(): return [suite(0, 1, 0, False) for suite, _ in SUITES]\n")
    assert _violations(source, "from .verify import suite_a\nsuite_a(0, 1, 0, True)\n") == {
        "called in run_all": [], "called in cli": [2], "not a row": ["suite_c"],
        "row of no suite": ["suite_gone"], "other parameters": ["suite_b", "suite_c"]}
