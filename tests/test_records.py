"""The record types of jetvir behave as value records: equal fields give
equal records with equal hashes, a changed field gives an unequal one, a
frozen field can be neither assigned nor deleted, and a mutable record owns
its containers.  The table below lists every record type with one valid
value and one other valid value per field, and ChargeSet once more as the
engine measures it at d = 1."""

import copy
import pickle
from fractions import Fraction

import pytest

from jetvir.charges import ChargeSet, GlRepTraces, GRepTraces, Statistics
from jetvir.cocycles import Trajectory
from jetvir.deltacalc import DerivSpec, Which
from jetvir.exactpoly import Poly, _Record, parse_poly
from jetvir.jetreps import JetOperator, MatrixRep, StructureConstants
from jetvir.verify import SuiteResult
from jetvir.wickcocycle import NormalBilinear, Term

ONE = Poly.constant(1, 1)
TWO = Poly.constant(1, 2)
Z = parse_poly("z + z^-1", 1, "z")
GL = GlRepTraces(1, 0, 1, 2)
GR = GRepTraces(2, 3, 4, 5)
TERM = Term(Fraction(1), ONE, (None, None))
CHARGES = {"c1": Fraction(1), "c2": Fraction(2), "c1_plus_c2": Fraction(3),
           **{f"c{i}": Fraction(i) for i in range(3, 9)}}

# label -> (type, the fields in order with a valid value each, another valid
# value for each field); a type's label is its name, and "MeasuredCharges" is
# a ChargeSet as the engine measures it at d = 1, with c1 = c2 = None
FROZEN = {t.__name__: (t, *variants) for t, variants in {
    DerivSpec: ({"which": Which.ON_X, "direction": 1},
                {"which": Which.ON_Y, "direction": 0}),
    StructureConstants: ({"dim": 3, "f": StructureConstants.epsilon().f},
                         {"f": StructureConstants.abelian(3).f}),
    MatrixRep: ({"size": 1, "generators": ()},
                {"size": 2, "generators": ((0, ((Fraction(1),),)),)}),
    JetOperator: ({"d": 1, "p": 0, "rep_size": 1, "vector": (), "matrix": ((ONE,),)},
                  {"d": 2, "p": 1, "rep_size": 2, "vector": (ONE,), "matrix": ((TWO,),)}),
    GlRepTraces: ({"delta_rho": 1, "k0": Fraction(0), "k1": Fraction(1), "k2": Fraction(2)},
                  {"delta_rho": 2, "k0": Fraction(1), "k1": Fraction(2), "k2": Fraction(3)}),
    GRepTraces: ({"delta_m": 2, "y_m": Fraction(3), "z_m": Fraction(4), "w_m": Fraction(5),
                  "statistics": Statistics.BOSE},
                 {"delta_m": 1, "y_m": Fraction(1), "z_m": Fraction(1), "w_m": Fraction(1),
                  "statistics": Statistics.FERMI}),
    ChargeSet: ({"d": 2, "p": 1, "conformal_weight": Fraction(1, 2), "glrep": GL,
                 "grep": GR, **CHARGES},
                {"d": 3, "p": 2, "conformal_weight": Fraction(1), "glrep": GlRepTraces(2, 0, 1, 2),
                 "grep": GRepTraces(1, 3, 4, 5), **{k: v + 1 for k, v in CHARGES.items()}}),
    Trajectory: ({"components": (Z,)},
                 {"components": (Z, Z)}),
    Term: ({"prefactor": Fraction(1), "coeff": ONE, "insertion": (None, None),
            "pi_dots": 0, "phi_dots": 0, "phi_deriv": None},
           {"prefactor": Fraction(2), "coeff": TWO, "insertion": (None, 0),
            "pi_dots": 1, "phi_dots": 1, "phi_deriv": 0}),
    NormalBilinear: ({"d": 1, "p": 0, "terms": (TERM,), "q_sector": ()},
                     {"d": 2, "p": 1, "terms": (), "q_sector": (TERM,)}),
}.items()}
FROZEN["MeasuredCharges"] = (
    ChargeSet,
    {"d": 1, "p": 2, "conformal_weight": Fraction(0), "glrep": GL, "grep": GR, "c1": None,
     "c2": None, "c1_plus_c2": Fraction(4), **{f"c{i}": Fraction(-i) for i in range(3, 9)}},
    {"d": 2, "p": 1, "conformal_weight": Fraction(1), "glrep": GlRepTraces(2, 0, 1, 2),
     "grep": GRepTraces(1, 3, 4, 5), "c1": Fraction(1), "c2": Fraction(2),
     "c1_plus_c2": Fraction(3), **{f"c{i}": Fraction(i) for i in range(3, 9)}})

FIELDS = [(label, name) for label, (_, _, other) in FROZEN.items() for name in other]


def _make(label, **changes):
    t, values, _ = FROZEN[label]
    return t(**{**values, **changes})


@pytest.mark.parametrize("label", FROZEN)
def test_equal_fields_give_equal_records_with_equal_hashes(label):
    t, values, _ = FROZEN[label]
    a, b = _make(label), t(*values.values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert [getattr(a, name) for name in values] == list(values.values())


@pytest.mark.parametrize("label, name", FIELDS, ids=[f"{t}.{n}" for t, n in FIELDS])
def test_a_changed_field_gives_an_unequal_record(label, name):
    other = FROZEN[label][2][name]
    assert _make(label, **{name: other}) != _make(label)
    assert getattr(_make(label, **{name: other}), name) == other


@pytest.mark.parametrize("label, name", FIELDS, ids=[f"{t}.{n}" for t, n in FIELDS])
def test_a_frozen_field_rejects_assignment_and_deletion(label, name):
    a = _make(label)
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, FROZEN[label][2][name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is before


@pytest.mark.parametrize("label", FROZEN)
def test_repr_names_every_field(label):
    t, values, _ = FROZEN[label]
    fields = ", ".join(f"{k}={v!r}" for k, v in values.items())
    assert repr(_make(label)) == f"{t.__name__}({fields})"


@pytest.mark.parametrize("label", FROZEN)
def test_a_record_equals_no_other_type(label):
    _, values, _ = FROZEN[label]
    a = _make(label)
    assert a.__eq__(tuple(values.values())) is NotImplemented
    assert a != tuple(values.values())


@pytest.mark.parametrize("label", FROZEN)
def test_copies_and_pickles_are_equal(label):
    a = _make(label)
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(other) is FROZEN[label][0] and other == a and hash(other) == hash(a)


def _records(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_the_charge_set_is_the_one_record_of_the_charges():
    """Every route to c1..c8 returns a ChargeSet: no other record type of the
    package has a charge slot."""
    import jetvir.cli  # noqa: F401  (imports every module of the package)

    holders = [t for t in _records() if t.__module__.startswith("jetvir.")
               and "c5" in t.__slots__]
    assert holders == [ChargeSet]
    assert ChargeSet.__slots__[5:] == ("c1", "c2", "c1_plus_c2", "c3", "c4", "c5", "c6",
                                       "c7", "c8")


def test_a_deriv_spec_is_not_a_tuple():
    assert DerivSpec.none() != (Which.NONE, 0)
    assert DerivSpec.on_x(1) != (Which.ON_X, 1)
    assert len({DerivSpec.none(), DerivSpec(), DerivSpec(Which.NONE, 0)}) == 1


def test_defaults():
    assert DerivSpec() == DerivSpec.none() == DerivSpec(Which.NONE, 0)
    assert GRepTraces(1, 0, 0, 0).statistics is Statistics.BOSE
    t = Term(Fraction(1), ONE, (None, None))
    assert (t.pi_dots, t.phi_dots, t.phi_deriv) == (0, 0, None)
    assert NormalBilinear(1, 0, ()).q_sector == ()
    assert SuiteResult("a").checks == 0 and SuiteResult("a").failures == []


def test_traces_are_normalised_to_fractions():
    gl = GlRepTraces(1, 1, "1/2", Fraction(3))
    gr = GRepTraces(1, 2, "2/3", 0)
    for value in (gl.k0, gl.k1, gl.k2, gr.y_m, gr.z_m, gr.w_m):
        assert type(value) is Fraction
    assert (gl.k1, gr.z_m) == (Fraction(1, 2), Fraction(2, 3))
    assert Trajectory([Z]).components == (Z,)


@pytest.mark.parametrize("build, message", [
    (lambda: GlRepTraces(0, 0, 0, 0), "delta_rho must be an integer >= 1, got 0"),
    (lambda: GlRepTraces(1, 0.5, 0, 0), "values must be exact, got the float 0.5"),
    (lambda: GRepTraces(True, 0, 0, 0), "delta_m must be an integer >= 1, got True"),
    (lambda: GRepTraces(1, 0, 0, 0, "bose"), "statistics must be a Statistics, got 'bose'"),
    (lambda: GRepTraces(1, 0, 0.5, 0), "values must be exact, got the float 0.5"),
    (lambda: Term(Fraction(1), ONE, (None, None), pi_dots=1, phi_dots=1),
     "at most one z-derivative per term"),
    (lambda: Term(Fraction(1), ONE, (None, None), phi_dots=2), "at most one z-derivative"),
    (lambda: Trajectory((Poly.constant(2, 1),)), "trajectory"),
    (lambda: StructureConstants(2, ()), "wrong shape"),
    (lambda: StructureConstants(1, (((Fraction(1),),),)), "not totally antisymmetric"),
    (lambda: MatrixRep(0, ()), "rep size must be an integer >= 1, got 0"),
    (lambda: MatrixRep(2, ((0, ((1,),)),)), "generator 0 is not a 2 x 2 matrix"),
])
def test_each_record_keeps_its_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


MUTABLE = {
    SuiteResult: (lambda: SuiteResult("a"), "failures"),
}


@pytest.mark.parametrize("t", MUTABLE, ids=lambda t: t.__name__)
def test_fresh_mutable_records_share_no_container(t):
    make, name = MUTABLE[t]
    a, b = make(), make()
    assert getattr(a, name) is not getattr(b, name)
    assert a == b
    assert a.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("t", MUTABLE, ids=lambda t: t.__name__)
def test_a_mutable_record_copies_like_a_dataclass(t):
    make, name = MUTABLE[t]
    a = make()
    assert getattr(copy.copy(a), name) is getattr(a, name)
    deep = copy.deepcopy(a)
    assert deep == a and getattr(deep, name) is not getattr(a, name)
    assert pickle.loads(pickle.dumps(a)) == a


def test_mutable_records_change_in_place():
    res = SuiteResult("a")
    res.record(False, "w")
    res.name = "b"
    assert (res.name, res.checks, res.failures) == ("b", 1, ["w"])
    assert SuiteResult("a").failures == [] and not res.ok
    assert repr(res) == "SuiteResult(name='b', checks=1, failures=['w'])"
