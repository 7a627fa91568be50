"""Bad arguments raise one-line ValueErrors from the shared checks.

Each test below pins an argument that used to be misread (a bool taken as
an int, a string taken as an enum member, a field in the wrong number of
variables) or to fail late with a bare TypeError, IndexError or
AttributeError.  The checks are ``multiindex.check_int``,
``multiindex.check_direction``, ``exactpoly.check_field`` and
``charges.check_traces``; the entries
of rep matrices and structure constants must be ints or Fractions, and a
float or a non-number fails in ``exactpoly._ratio``.
"""

from fractions import Fraction

import pytest

from jetvir import verify
from jetvir.charges import GRepTraces, closed_form, from_sl_gl1
from jetvir.cli import main
from jetvir.deltacalc import DerivSpec, SmearMode, delta_pair_closed, delta_pair_integral
from jetvir.exactpoly import Poly, check_field, parse_poly
from jetvir.jetreps import MatrixRep, StructureConstants, embed_gauge_operator, gauge_operator
from jetvir.multiindex import check_direction, check_int
from jetvir.wickcocycle import extract_charges


def _one_line_value_error(call, match):
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert "\n" not in str(info.value)


# -- the three checks --------------------------------------------------------------

@pytest.mark.parametrize("bad", [True, False, 1.0, -1, None, "0"])
def test_check_int_takes_only_ints_at_or_above_the_minimum(bad):
    check_int("size", 0, 0)
    _one_line_value_error(lambda: check_int("size", bad, 0), "size must be an integer >= 0")


@pytest.mark.parametrize("bad", [True, False, 1.0, -1, 2, None])
def test_check_direction_takes_only_ints_in_range(bad):
    check_direction(1, 2, "mu")
    _one_line_value_error(lambda: check_direction(bad, 2, "mu"), r"^mu: .* is not an int in \[0, 2\)")


def test_check_field_needs_the_count_and_the_variables():
    x = parse_poly("x0", 2)
    check_field("xi", [x, x], 2, 2)
    check_field("X", [x], 2)
    for comps, count in (([], None), ([], 0), ([x], 2), ([x, x, x], 2)):
        _one_line_value_error(lambda: check_field("xi", comps, 2, count), "xi needs")
    for comps in ([parse_poly("x0", 1)], [x, "x0"], [x, None]):
        _one_line_value_error(lambda: check_field("xi", comps, 2), "each component of xi")


# -- exactpoly: directions, dimensions and orders ------------------------------------

@pytest.mark.parametrize("bad", [True, False, 1.0, -1, 2])
def test_poly_directions_are_ints_in_range(bad):
    # deriv(True) differentiated along x1, deriv(1.0) raised a bare
    # TypeError, and variable(2, True) returned x1.
    f = parse_poly("x0^2 + x1", 2)
    _one_line_value_error(lambda: f.deriv(bad), "direction")
    _one_line_value_error(lambda: Poly.variable(2, bad), "variable index")


@pytest.mark.parametrize("bad", [True, 1.0, -1])
def test_poly_dimension_is_an_int(bad):
    # Poly(True, ...) took True as its dimension.
    _one_line_value_error(lambda: Poly(bad, {(1,): 1}), "dimension must be")


@pytest.mark.parametrize("terms", [[((1,), 2)], (((1,), 2),), "x0"])
def test_poly_terms_are_a_mapping(terms):
    # Poly(1, [((1,), 2)]) raised a bare AttributeError.
    _one_line_value_error(lambda: Poly(1, terms), "terms must map exponents to coefficients")


@pytest.mark.parametrize("bad", [3, None, 1.5])
def test_poly_exponents_are_sequences(bad):
    # Poly(1, {3: 1}) raised a bare TypeError.
    _one_line_value_error(lambda: Poly(1, {bad: 1}), "exponents must be sequences of integers")
    _one_line_value_error(lambda: Poly.zero(1).coeff(bad), "exponents must be sequences of integers")


@pytest.mark.parametrize("bad", [3, None, 1.5])
def test_poly_sequence_arguments_are_sequences(bad):
    # Poly.monomial(3) raised "'int' object is not iterable", and eval(3) and
    # compose_univariate(3) "object of type 'int' has no len()".
    f = parse_poly("x0 + x1", 2)
    _one_line_value_error(lambda: Poly.monomial(bad), "exponents must be sequences of integers")
    _one_line_value_error(lambda: f.eval(bad), "needs 2 coordinates")
    _one_line_value_error(lambda: f.compose_univariate(bad), "one substitution polynomial per")
    assert Poly.monomial([1, 0]) == parse_poly("x0", 2) and f.eval([1, 2]) == 3
    # an iterator is read once: Poly.monomial(x for x in (1, 2)) raised
    # "exponent (1, 2) has wrong dimension (expected -1)"
    assert Poly.monomial(x for x in (1, 2)) == Poly.monomial((1, 2))
    assert f.compose_univariate([f, f]) == f.scale(2)


@pytest.mark.parametrize("bad", [(1.0, 0), (True, 0), ("a", 0), (0, False)])
def test_coeff_checks_its_exponent_like_the_constructor(bad):
    # coeff((1.0, 0)) and coeff((True, 0)) read the x0 term, coeff(("a", 0)) returned 0.
    f = parse_poly("5 x0 + 3 x1^2", 2)
    _one_line_value_error(lambda: f.coeff(bad), "exponents must be integers")
    _one_line_value_error(lambda: Poly(2, {bad: 1}), "exponents must be integers")
    assert f.coeff((1, 0)) == 5 and f.coeff([0, 2]) == 3 and f.coeff(range(2)) == 0


# -- charges: the dimension of from_sl_gl1, the statistics and the trace records ----

@pytest.mark.parametrize("bad", [True, 1.5, 0])
def test_from_sl_gl1_dimension_is_a_positive_int(bad):
    # d=True was accepted, and d=1.5 raised a bare TypeError.
    _one_line_value_error(lambda: from_sl_gl1(0, 0, 1, bad), "dimension must be")


@pytest.mark.parametrize("bad", ["fermi", "bose", -1, None])
def test_statistics_must_be_a_statistics(bad):
    # "fermi" was stored, and closed_form raised AttributeError later.
    _one_line_value_error(lambda: GRepTraces(1, 0, 0, 0, bad), "statistics")
    assert closed_form(1, 0, 0, from_sl_gl1(0, 0, 1, 1), GRepTraces(1, 1, 0, 0)).c5 == -1


_GL = from_sl_gl1(0, 0, 1, 2)
_GR = GRepTraces(1, 1, 0, 0)


@pytest.mark.parametrize("glrep, grep, name", [
    (_GL, None, "grep"),
    (None, _GR, "glrep"),
    (_GL, (1, 1, 0, 0), "grep"),
    ((1, 0, 0, 0), _GR, "glrep"),
    (_GR, _GL, "glrep"),
    (_GL, _GL, "grep"),
])
@pytest.mark.parametrize("charges", [closed_form, extract_charges])
def test_the_charges_take_their_two_trace_records_in_order(charges, glrep, grep, name):
    # grep=None and swapped records raised AttributeError from the formulas.
    _one_line_value_error(lambda: charges(2, 1, 0, glrep, grep), f"^{name} must be a ")


# -- jetreps: the gl-rep size and both sides of a bracket ---------------------------

@pytest.mark.parametrize("bad", [True, 1.0])
def test_embed_gauge_operator_size_is_an_int(bad):
    # embed_gauge_operator(j, True) was accepted.
    J = gauge_operator([parse_poly("x0", 1)], MatrixRep.g_abelian(1), 1, 1)
    _one_line_value_error(lambda: embed_gauge_operator(J, bad), "size")


def test_bracket_components_checks_both_sides():
    # abelian(1) with X in 1 variable and Y in 2 returned [0].
    sc = StructureConstants.abelian(1)
    x1, x2 = parse_poly("x0", 1), parse_poly("x0", 2)
    for x, y in (([x1], [x2]), ([x2], [x1]), (["x0"], [x1]), ([x1], [None])):
        _one_line_value_error(lambda: sc.bracket_components(x, y), "polynomial in")
    assert sc.bracket_components([x1], [x1]) == [Poly.zero(1)]


@pytest.mark.parametrize("bad", [True, 0, -1, 2.0])
def test_gl_reps_need_an_int_dimension_of_at_least_one(bad):
    # gl_vector(True) was taken as d = 1, gl_vector(0) and
    # gl_scalar_weight(-1, 1) returned empty reps, and gl_vector(2.0) raised
    # a bare TypeError.
    _one_line_value_error(lambda: MatrixRep.gl_vector(bad), "dimension must be an integer >= 1")
    _one_line_value_error(lambda: MatrixRep.gl_scalar_weight(bad, 1),
                          "dimension must be an integer >= 1")


@pytest.mark.parametrize("size, gens, match", [
    # passed, then gauge_operator raised IndexError
    (2, ((0, ((Fraction(1),),)),), "not a 2 x 2 matrix"),
    (1, ((0, ((Fraction(1), Fraction(0)),)),), "not a 1 x 1 matrix"),
    # passed, then gauge_operator raised AttributeError
    (1, ((0, ((0.5,),)),), "exact"),
    (1, ((0, (("1/2",),)),), "int or Fraction"),
    (1, ((0, ((None,),)),), "exact"),
    (0, (), "rep size must be an integer >= 1"),
    (True, ((0, ((Fraction(1),),)),), "rep size"),
    (1.0, ((0, ((Fraction(1),),)),), "rep size"),
])
def test_matrix_rep_needs_square_exact_matrices_of_its_size(size, gens, match):
    _one_line_value_error(lambda: MatrixRep(size, gens), match)
    assert MatrixRep(1, ((0, ((1,),)),)).matrix(0) == ((1,),)


@pytest.mark.parametrize("entry, match", [
    (0.5, "exact"),  # was AttributeError: 'float' object has no attribute 'denominator'
    (None, "exact"),
    ("0", "int or Fraction"),
])
def test_structure_constants_need_exact_entries(entry, match):
    f = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    f[1][1][1] = entry
    _one_line_value_error(lambda: StructureConstants(2, tuple(tuple(map(tuple, m)) for m in f)),
                          match)
    # A float dimension equal to the shape raised a bare TypeError.
    zero = tuple(tuple((Fraction(0),) * 2 for _ in range(2)) for _ in range(2))
    _one_line_value_error(lambda: StructureConstants(2.0, zero), "algebra dimension")


# -- deltacalc: the enum arguments of the oracle and the closed forms ----------------

F = parse_poly("1 + 2 x + 3 x^2", 1)
G = parse_poly("5 + 7 x", 1)
SHIFT_PLAIN = (SmearMode.SHIFTED, SmearMode.PLAIN)


@pytest.mark.parametrize("d1, d2, modes", [
    (DerivSpec.on_x(0), DerivSpec.none(), ("shifted", "plain")),   # returned 51
    (DerivSpec.on_x(0), DerivSpec.none(), (SmearMode.SHIFTED,)),   # bare IndexError
    (DerivSpec.on_x(0), DerivSpec.none(), SHIFT_PLAIN + (SmearMode.PLAIN,)),
    (DerivSpec("on_x", 0), DerivSpec.none(), SHIFT_PLAIN),         # returned -30
    (DerivSpec.none(), DerivSpec("on_y", 0), SHIFT_PLAIN),
    (DerivSpec("none", 0), DerivSpec.none(), SHIFT_PLAIN),
])
def test_pair_integral_enum_arguments_are_members(d1, d2, modes):
    assert delta_pair_integral(F, G, DerivSpec.on_x(0), DerivSpec.none(), SHIFT_PLAIN, 1, 2) == 30
    _one_line_value_error(lambda: delta_pair_integral(F, G, d1, d2, modes, 1, 2),
                          "SmearMode|Which")


def test_pair_integral_and_closed_forms_check_their_fields():
    for f, g in ((F, parse_poly("x0", 2)), (F, "5 + 7 x"), (None, G)):
        _one_line_value_error(lambda: delta_pair_integral(
            f, g, DerivSpec.none(), DerivSpec.none(), SHIFT_PLAIN, 1, 2), "smearing pair")
        _one_line_value_error(lambda: delta_pair_closed("i", f, g, None, None, 1, 2),
                              "smearing pair")


# -- verify ------------------------------------------------------------------------

@pytest.mark.parametrize("d_max, p_max, match", [
    (1.5, 0, "d_max must be an integer >= 1, got 1.5"),
    (True, 0, "d_max must be an integer >= 1, got True"),
    (0, 0, "d_max must be an integer >= 1, got 0"),
    (1, 0.0, "p_max must be an integer >= 0, got 0.0"),
    (1, False, "p_max must be an integer >= 0, got False"),
    (1, -1, "p_max must be an integer >= 0, got -1"),
    (3, 0, "verify grid out of range"),
])
def test_run_all_checks_its_grid_before_any_suite(monkeypatch, d_max, p_max, match):
    # run_all(1.5, 0) ran two suites and then raised a TypeError in the
    # closures suite; run_all(True, 0) ran as d_max = 1.
    def must_not_run(seed, d_max, p_max, fault):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(verify, "SUITES", ((must_not_run, None),))
    _one_line_value_error(lambda: verify.run_all(d_max, p_max), match)


# -- cli ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", ["0", "-1"])
def test_cocycle_checks_its_dimension_first(capsys, d):
    # --d 0 reported "trajectory needs 0 components".
    code = main(["cocycle", "--kind", "affine", "--d", d, "--x", "x0", "--y", "x0",
                 "--traj", "z"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --d must be an integer >= 1, got {d}\n"


def test_reparam_residue_is_read_past_the_degree_cap(capsys):
    # f'' g' = 62400 z^77 is past the cap, but only its z^-1 coefficient is read.
    code = main(["cocycle", "--kind", "reparam-reparam", "--f", "z^40", "--g", "z^40",
                 "--c4", "12"])
    assert (code, capsys.readouterr().out) == (0, "0\n")
