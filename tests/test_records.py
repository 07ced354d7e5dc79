"""The library's records: NamedTuples that cannot be assigned to, compare
and hash by value, and check their fields on construction and on _replace;
a Census, which holds arrays, is immutable too but equals only itself."""

import pickle

import pytest

from tentlab.backends import Binary64, DomainError, Rational
from tentlab.basins import NetSpec, sweep
from tentlab.cycles import enumerate_cycles, onset_threshold
from tentlab.experiments import detect_escape
from tentlab.fibonacci import decompose
from tentlab.stabilize import build_coefficients, classify_equilibria
from tentlab.tentmap import MapParams


# each record's type and one of its fields
RECORDS = [("MapParams", "h"), ("Coefficients", "a"), ("EquilibriumReport", "stable"),
           ("EscapeEvent", "escape_index"), ("EigenData", "a_u"), ("NetSpec", "kind"),
           ("SweepResult", "codes"), ("Cycle", "points"), ("OnsetRecord", "threshold"),
           ("Census", "period")]


def records():
    """One record of each of the ten kinds, from the functions that return them."""
    params, coeffs = MapParams(1.9, Binary64()), build_coefficients(1.2)
    census = enumerate_cycles(params, 3)
    return {
        "MapParams": params,
        "Coefficients": coeffs,
        "EquilibriumReport": classify_equilibria(params, 1, coeffs)[0],
        "EscapeEvent": detect_escape([0.5] * 40 + [0.9]),
        "EigenData": decompose(1.0, -0.618),
        "NetSpec": NetSpec.uniform(10),
        "SweepResult": sweep(NetSpec.uniform(10), params, 1, coeffs, 20, 1e-3),
        "Cycle": next(iter(census)),
        "OnsetRecord": onset_threshold(3),
        "Census": census,
    }


@pytest.mark.parametrize("name, field", RECORDS)
def test_records_cannot_be_assigned_to(name, field):
    record = records()[name]
    assert type(record).__name__ == name and hasattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_equal_parameters_compare_and_hash_equal():
    b = Rational()
    pairs = [(MapParams(b.parse("3/2"), b), MapParams.parse("3/2", Rational())),
             (NetSpec("triadic", 4), NetSpec.parse("triadic:4"))]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y)
    assert MapParams.parse("3/2", b) != MapParams.parse("7/5", b)
    assert len({NetSpec.uniform(10), NetSpec("uniform", 10), NetSpec.triadic(10)}) == 2


def test_a_census_equals_only_itself_and_pickles():
    params = MapParams(2.0, Binary64())
    census = enumerate_cycles(params, 5)
    assert census == census and census != enumerate_cycles(params, 5)
    copy = pickle.loads(pickle.dumps(census))
    assert type(copy) is type(census) and list(copy) == list(census)


def test_constructor_and_replace_check_fields():
    b = Binary64()
    params, coeffs, net = MapParams(1.5, b), build_coefficients(1.2), NetSpec.uniform(10)
    with pytest.raises(DomainError, match="unknown net kind"):
        NetSpec("cubic", 5)
    for bad in (lambda: params._replace(h=2.5), lambda: coeffs._replace(a=coeffs.a[:2]),
                lambda: net._replace(parameter=0), lambda: net._replace(kind="cubic")):
        with pytest.raises(DomainError):
            bad()
    assert params._replace(h=2.0) == MapParams(2.0, b)
    assert pickle.loads(pickle.dumps(net)) == net
