"""Instance containers, JSON round-trips, and the hardness family."""

import json
import math
import re
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcrs.errors import InvalidInstanceError
from fbcrs.instances import (
    BACKWARD,
    FORWARD,
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    ServiceType,
    SingleUnitInstance,
    SizeLaw,
    arrival,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    knapsack_hardness_instance,
    load_instance,
)
from fbcrs.knapsack import closed_form_knapsack_plan, run_knapsack_exact
from fbcrs.single_unit import closed_form_plan

from oracles import demand_cdf, inverse_cdf, split_element


@pytest.mark.parametrize("n, rows", [(1, [[0], [0]]), (4, [[0, 1, 2, 3], [3, 2, 1, 0]])], ids=["n1", "n4"])
def test_arrival_index_rows(n, rows):
    """arrival of the index rows lists each order's elements in arrival order."""
    assert arrival((range(n), range(n))).tolist() == rows


@pytest.mark.parametrize(
    "accessor", ["SelectionPlan.rates", "exact.rates", "exact.branches", "exact.traces"]
)
def test_unknown_order_tag_raises(accessor):
    # "f" and "b" are the Monte Carlo estimate keys, not order tags
    su = SingleUnitInstance((0.3, 0.5))
    knapsack = KnapsackInstance((SizeLaw(((0.5, 0.4),), 0.6), SizeLaw(((0.25, 0.8),), 0.2)))
    plan = closed_form_plan(su)
    exact = run_knapsack_exact(knapsack, closed_form_knapsack_plan(knapsack))
    read = {
        "SelectionPlan.rates": plan.rates,
        "exact.rates": exact.rates,
        "exact.branches": exact.branches,
        "exact.traces": exact.traces,
    }[accessor]
    assert read(FORWARD) != read(BACKWARD)
    for tag in ("f", "b", "Forward"):
        with pytest.raises(InvalidInstanceError, match=f"unknown order tag '{tag}'"):
            read(tag)


@pytest.mark.parametrize("x", [(), (1.2,), (-0.1, 0.5)])
def test_single_unit_rejects(x):
    with pytest.raises(InvalidInstanceError):
        SingleUnitInstance(x)


def test_single_unit_rho():
    inst = SingleUnitInstance((0.1,) * 10)
    assert inst.n == 10
    assert inst.rho == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "atoms, inactive",
    [
        (((1.5, 1.0),), 0.0),  # size above 1
        (((-0.1, 1.0),), 0.0),  # negative size
        (((0.5, 0.0), (0.6, 1.0)), 0.0),  # zero-probability atom
        (((0.5, 0.5), (0.5, 0.5)), 0.0),  # duplicate sizes
        (((0.5, 0.5),), 0.0),  # mass 0.5, no inactive
        (((0.5, 0.5),), -0.5),  # negative inactive mass
        (((0.5, math.nan),), 0.0),  # NaN probability
        (((0.5, 0.5),), math.nan),  # NaN inactive mass
        (((0.5, math.inf),), 0.0),  # infinite probability
        (((0.5, 0.5),), math.inf),  # infinite inactive mass
    ],
)
def test_size_law_rejects(atoms, inactive):
    with pytest.raises(InvalidInstanceError):
        SizeLaw(atoms, inactive)


def test_size_law_sorted_and_mean():
    law = SizeLaw(((0.7, 0.2), (0.1, 0.5)), 0.3)
    assert law.atoms == ((0.1, 0.5), (0.7, 0.2))
    assert law.mean == pytest.approx(0.19, abs=1e-15)
    assert law.active_mass == pytest.approx(0.7, abs=1e-15)


def test_knapsack_rejects_overweight_and_zero_mean():
    heavy = SizeLaw(((0.6, 1.0),))
    with pytest.raises(InvalidInstanceError):
        KnapsackInstance((heavy, heavy))
    zero = SizeLaw(((0.0, 1.0),))
    with pytest.raises(InvalidInstanceError):
        KnapsackInstance((zero,))
    with pytest.raises(InvalidInstanceError):
        KnapsackInstance(())


def test_knapsack_mu():
    inst = KnapsackInstance((SizeLaw(((0.25, 1.0),)), SizeLaw(((0.5, 0.5),), 0.5)))
    assert inst.mu == (0.25, 0.25)
    assert inst.total_mu == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "atoms",
    [
        ((-1.0, 1.0),),  # negative demand
        ((1.0, 0.5), (1.0, 0.5)),  # duplicates
        ((1.0, 0.7),),  # mass != 1
        ((0.0, 1.0),),  # zero mean
        ((math.nan, 1.0),),  # NaN demand
        ((1.0, 0.5), (math.inf, 0.5)),  # infinite demand
        ((1.0, math.nan),),  # NaN probability
        ((1.0, 0.5), (2.0, math.inf)),  # infinite probability
    ],
)
def test_demand_law_rejects(atoms):
    with pytest.raises(InvalidInstanceError):
        DemandLaw(atoms)


def test_demand_law_cdf_and_flags():
    law = DemandLaw(((0.0, 0.25), (2.0, 0.5), (0.5, 0.25)))
    assert law.atoms[0][0] == 0.0
    assert law.cum == pytest.approx((0.25, 0.5, 1.0))
    assert demand_cdf(law, 0.5) == pytest.approx(0.5)
    assert demand_cdf(law, 1.99) == pytest.approx(0.5)
    assert demand_cdf(law, 2.0) == pytest.approx(1.0)
    assert law.mean == pytest.approx(1.125)


def test_rationing_rejects():
    law = DemandLaw(((1.0, 1.0),))
    with pytest.raises(InvalidInstanceError):
        RationingInstance((law,), (ServiceType.TYPE_I, ServiceType.TYPE_II))
    with pytest.raises(InvalidInstanceError):
        RationingInstance((law,), ("TypeIV",))
    with pytest.raises(InvalidInstanceError):
        RationingInstance((), ())


@pytest.mark.parametrize("tag", [None, 1], ids=["none", "int"])
def test_rationing_rejects_a_service_entry_that_is_no_service_type(tag):
    with pytest.raises(InvalidInstanceError, match="unknown service type"):
        RationingInstance((DemandLaw(((1.0, 1.0),)),), (tag,))


def test_rationing_service_parse_and_flag():
    law = DemandLaw(((1.0, 1.0),))
    inst = RationingInstance((law, law), ("TypeII", ServiceType.TYPE_III))
    assert inst.service == (ServiceType.TYPE_II, ServiceType.TYPE_III)
    assert not inst.has_type_i
    assert RationingInstance((law,), ("TypeI",)).has_type_i


def test_inverse_cdf_boundaries():
    law = DemandLaw(((0.5, 0.25), (1.0, 0.5), (3.0, 0.25)))
    assert inverse_cdf(law, 0.0) == 0.5
    assert inverse_cdf(law, 0.25) == 0.5  # boundary belongs to the lower atom
    assert inverse_cdf(law, 0.2500001) == 1.0
    assert inverse_cdf(law, 1.0) == 3.0
    with pytest.raises(InvalidInstanceError):
        inverse_cdf(law, 1.5)


def test_inverse_cdf_clamps_float_shortfall():
    # cumulative mass tops out just below 1; q = 1 must still land on the
    # last atom
    law = DemandLaw(((0.5, 0.3), (1.0, 0.3), (2.0, 0.4 - 1e-13)))
    assert law.cum[-1] < 1.0
    assert inverse_cdf(law, 1.0) == 2.0


def test_empirical_cdf_dkw():
    """Quantile draws reproduce the demand CDF within the DKW envelope."""
    law = DemandLaw(((0.25, 0.2), (0.5, 0.3), (1.5, 0.4), (4.0, 0.1)))
    m = 200_000
    delta = 1e-6
    bound = math.sqrt(math.log(2.0 / delta) / (2.0 * m))
    rng = np.random.default_rng(12345)
    u = rng.random(m)
    # vectorized inverse CDF, independent of the library's bisect route
    cum = np.array(law.cum)
    idx = np.minimum(np.searchsorted(cum, u, side="left"), len(cum) - 1)
    draws = np.array([d for d, _ in law.atoms])[idx]
    for d, _ in law.atoms:
        emp = float(np.mean(draws <= d))
        assert abs(emp - demand_cdf(law, d)) <= bound


def test_vectorized_inverse_cdf_matches_library():
    law = DemandLaw(((0.25, 0.2), (0.5, 0.3), (1.5, 0.4), (4.0, 0.1)))
    cum = np.array(law.cum)
    values = np.array([d for d, _ in law.atoms])
    grid = np.concatenate([np.linspace(0, 1, 997), cum])
    for q in grid:
        idx = min(np.searchsorted(cum, q, side="left"), len(cum) - 1)
        assert values[idx] == inverse_cdf(law, float(q))


def test_split_element_semantics():
    inst = SingleUnitInstance((0.2, 0.7, 0.1))
    out = split_element(inst, 2)  # 1-based index
    assert out.x == (0.2, 0.35, 0.35, 0.1)
    assert out.rho == inst.rho  # halving is exact
    with pytest.raises(InvalidInstanceError):
        split_element(inst, 0)
    with pytest.raises(InvalidInstanceError):
        split_element(inst, 4)


def test_hardness_instance_small():
    kn, su = knapsack_hardness_instance(2)
    assert kn.n == su.n == 5
    assert su.x == (0.2,) * 5
    (size, p), = kn.laws[0].atoms
    assert size == 1.0 and p == pytest.approx(0.2, abs=1e-15)
    assert kn.laws[0].inactive_mass == pytest.approx(0.8, abs=1e-15)
    assert kn.total_mu == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [10, 100])
def test_hardness_instance_mass_one(n):
    kn, su = knapsack_hardness_instance(n)
    assert kn.n == 2 * n + 1
    assert abs(kn.total_mu - 1.0) <= 1e-12
    assert su.rho == pytest.approx(2.0 * n / (n + 2), abs=1e-12)


def test_hardness_instance_rejects_n1():
    with pytest.raises(InvalidInstanceError):
        knapsack_hardness_instance(1)


# --- JSON round-trips -------------------------------------------------------

AWKWARD = (0.1, 0.3, 1.0 / 3.0, 0.7 - 0.2)


def _examples():
    su = SingleUnitInstance(AWKWARD)
    kn = KnapsackInstance(
        (SizeLaw(((0.1, 0.25), (1.0 / 3.0, 0.25)), 0.5), SizeLaw(((0.25, 1.0),)))
    )
    ra = RationingInstance(
        (DemandLaw(((0.5, 0.5), (2.0, 0.5))), DemandLaw(((1.0, 1.0),))),
        (ServiceType.TYPE_II, ServiceType.TYPE_III),
    )
    return su, kn, ra


@pytest.mark.parametrize("inst", _examples(), ids=["single_unit", "knapsack", "rationing"])
def test_json_round_trip_bit_exact(inst, tmp_path):
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    back = load_instance(str(path))
    assert back == inst  # dataclass equality is field-exact on floats


@pytest.mark.parametrize("inst", _examples(), ids=["single_unit", "knapsack", "rationing"])
def test_instances_validate_against_schema(inst):
    schema = json.loads(
        resources.files("fbcrs").joinpath("schemas/instance.schema.json").read_text()
    )
    jsonschema.validate(instance_to_dict(inst), schema)


def test_schema_rejects_missing_kind():
    schema = json.loads(
        resources.files("fbcrs").joinpath("schemas/instance.schema.json").read_text()
    )
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"n": 1, "x": [0.5]}, schema)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "single_unit", "x": [0.5]},  # missing n
        {"kind": "mystery", "n": 1},  # unknown kind
        {"kind": "single_unit", "n": 3, "x": [0.5]},  # declared n mismatch
        [1, 2, 3],  # not a mapping
    ],
)
def test_instance_from_dict_rejects(data):
    with pytest.raises(InvalidInstanceError):
        instance_from_dict(data)


@pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_instance_from_dict_rejects_a_non_integer_n(n):
    # n is a JSON integer literal; JSON Schema's "integer" would also pass 1.0
    data = {"kind": "single_unit", "n": n, "x": [0.5]}
    with pytest.raises(InvalidInstanceError, match=f"'n' must be an integer, got {re.escape(repr(n))}$"):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "single_unit", "n": 1, "x": "0"},
        {"kind": "single_unit", "n": 2, "x": [0.5, "0.25"]},
        {"kind": "single_unit", "n": 1, "x": [True]},
        {"kind": "single_unit", "n": 1, "x": [None]},
        {"kind": "knapsack", "n": 1, "laws": [{"atoms": [["0.5", "1"]]}]},
        {"kind": "knapsack", "n": 1, "laws": [{"atoms": [[0.5, True]]}]},
        {"kind": "knapsack", "n": 1, "laws": [{"atoms": [[0.5, 0.5]], "inactive": "0.5"}]},
        {"kind": "knapsack", "n": 1, "laws": [{"atoms": [[0.5, 0.5]], "inactive": None}]},
        {"kind": "rationing", "n": 1, "demands": [{"atoms": [["1", 1.0]]}], "service": ["TypeI"]},
        {"kind": "rationing", "n": 1, "demands": [{"atoms": [[False, 1.0]]}], "service": ["TypeI"]},
    ],
    ids=[
        "x-string", "x-string-entry", "x-true", "x-null", "size-atom-strings", "atom-true",
        "inactive-string", "inactive-null", "demand-string", "demand-false",
    ],
)
def test_instance_from_dict_rejects_non_number_entries(data):
    # float() would take "0", "1" and true; the schema asks for numbers
    with pytest.raises(InvalidInstanceError, match="must be numbers, not strings, booleans or null"):
        instance_from_dict(data)


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(InvalidInstanceError):
        load_instance(str(tmp_path / "nope.json"))


def test_instance_to_dict_rejects_unknown():
    with pytest.raises(InvalidInstanceError):
        instance_to_dict(object())


# --- property checks --------------------------------------------------------

probs = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5)


@settings(max_examples=60)
@given(probs=probs, data=st.data())
def test_size_law_properties(probs, data):
    total = sum(probs)
    scale = data.draw(st.floats(0.2, 0.99))
    weights = [p / total * scale for p in probs]
    sizes = sorted(
        data.draw(
            st.lists(
                st.floats(0.01, 1.0),
                min_size=len(weights),
                max_size=len(weights),
                unique=True,
            )
        )
    )
    law = SizeLaw(tuple(zip(sizes, weights)), 1.0 - math.fsum(weights))
    assert law.atoms == tuple(sorted(law.atoms))
    assert 0.0 <= law.mean <= 1.0
    assert law.active_mass + law.inactive_mass == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60)
@given(data=st.data())
def test_demand_law_quantile_properties(data):
    k = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    weights = [w / total for w in weights]
    weights[-1] = 1.0 - math.fsum(weights[:-1])  # exact unit mass
    demands = sorted(
        data.draw(st.lists(st.floats(0.01, 5.0), min_size=k, max_size=k, unique=True))
    )
    law = DemandLaw(tuple(zip(demands, weights)))
    q = data.draw(st.floats(0.0, 1.0))
    d = inverse_cdf(law, q)
    assert demand_cdf(law, d) >= q - 1e-12
    # the next smaller atom (if any) has cdf strictly below q
    smaller = [a for a, _ in law.atoms if a < d]
    if smaller:
        assert demand_cdf(law, smaller[-1]) < q


@settings(max_examples=40)
@given(
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    data=st.data(),
)
def test_split_preserves_mass(xs, data):
    inst = SingleUnitInstance(tuple(xs))
    k = data.draw(st.integers(1, inst.n))
    out = split_element(inst, k)
    assert out.n == inst.n + 1
    assert out.rho == inst.rho
