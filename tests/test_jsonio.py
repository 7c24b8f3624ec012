"""JSON schemas for matrices, groups, groupoids, cocycles, and covers."""

import json

import numpy as np
import pytest

from anomlab.errors import CapacityError, FormatError
from anomlab.groupoid import PhaseCocycle, validate_local_data, zero_cocycle
from anomlab.instances import (
    cyclic_group,
    generator,
    group_catalog,
    point_groupoid,
    random_cover_instance,
    translation_groupoid,
)
from anomlab.jsonio import (
    cocycle_from_obj,
    cover_from_obj,
    cover_to_obj,
    group_from_obj,
    group_to_obj,
    groupoid_from_obj,
    groupoid_to_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    polarization_from_obj,
)
from anomlab.linalg import Polarization


def _cocycle_to_obj(c: PhaseCocycle) -> dict:
    """The cocycle file format: [x, y, exponent] rows, or [x, y, [re, im]] with modulus null."""
    values = np.stack([c.values.real, c.values.imag], axis=-1) if c.continuous else c.values
    x, y = c.pairs.T.tolist()
    return {"modulus": c.modulus, "values": list(map(list, zip(x, y, values.tolist())))}


def test_json_file_roundtrip(tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"b": [1, 2], "a": None}), encoding="utf-8")
    assert load_json(path) == {"a": None, "b": [1, 2]}


def test_load_json_failures(tmp_path):
    with pytest.raises(FormatError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_json(bad)


def test_matrix_roundtrip():
    rng = generator(801)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    obj = matrix_to_obj(m)
    assert obj["rows"] == 3 and obj["cols"] == 2
    np.testing.assert_allclose(matrix_from_obj(obj), m)


def test_matrix_schema_validation():
    with pytest.raises(FormatError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(FormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[1.0]]})
    with pytest.raises(FormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})
    with pytest.raises(FormatError):
        matrix_from_obj({"rows": 1, "data": [[1.0, 0.0]]})
    for entry in ([True, 0], [1.0, False]):
        with pytest.raises(FormatError, match="not an"):
            matrix_from_obj({"rows": 1, "cols": 1, "data": [entry]})


def test_polarization_from_obj():
    assert polarization_from_obj({"dim": 4, "plus_dim": 2}) == Polarization(4, 2)
    with pytest.raises(FormatError):
        polarization_from_obj({"dim": 3})


def test_group_roundtrip_and_validation():
    z3 = cyclic_group(3)
    again = group_from_obj(group_to_obj(z3))
    np.testing.assert_array_equal(again.mult, z3.mult)
    assert again.identity == z3.identity
    np.testing.assert_array_equal(again.inverse, z3.inverse)
    with pytest.raises(FormatError):
        group_from_obj({"elements": ["e", "s"], "mult": [[0, 1], [1, 1]]})
    with pytest.raises(FormatError):
        group_from_obj({"elements": ["e"], "mult": [[0, 0]]})


def _loop_identity_and_inverse(mult):
    """Reference recovery: the one two-sided unit, then each element's unique two-sided inverse."""
    n = len(mult)
    units = [e for e in range(n) if all(mult[e][i] == i and mult[i][e] == i for i in range(n))]
    if len(units) != 1:
        raise FormatError(f"group: object 0 has {len(units)} identity candidates")
    identity = units[0]
    inverse = []
    for i in range(n):
        invs = [j for j in range(n) if mult[i][j] == identity and mult[j][i] == identity]
        if len(invs) != 1:
            raise FormatError(f"group: arrow {i} has {len(invs)} inverse candidates")
        inverse.append(invs[0])
    return identity, inverse


def _loop_associativity_failures(mult):
    """Reference associativity check: every failing triple, in lexicographic order."""
    n = len(mult)
    return [
        f"associativity fails on ({i}, {j}, {k})"
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if mult[mult[i][j]][k] != mult[i][mult[j][k]]
    ]


def test_group_recovery_matches_loop():
    """Same identity, inverses and FormatError as the loop on seeded table mutations."""
    rng = np.random.default_rng(809)
    groups = list(group_catalog().values())
    outcomes = set()
    for trial in range(2000):
        obj = group_to_obj(groups[trial % len(groups)])
        mult, n = obj["mult"], len(obj["mult"])
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(v) for v in rng.integers(n, size=2))
            if rng.random() < 0.2:  # a second row or column acting as the identity
                mult[i], mult[j] = list(mult[j]), list(mult[i])
            else:
                mult[i][j] = int(rng.integers(n))
        try:
            identity, inverse = _loop_identity_and_inverse(mult)
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                group_from_obj(obj)
            assert str(info.value) == str(exc)
            outcomes.add(str(exc).split()[1])
            continue
        bad = _loop_associativity_failures(mult)
        if bad:
            with pytest.raises(FormatError) as info:
                group_from_obj(obj)
            # the one-object groupoid reports the first five failing triples
            assert str(info.value) == "group: " + "; ".join(bad[:5])
            outcomes.add("axioms")
        else:
            group = group_from_obj(obj)
            assert group.identity == identity and group.inverse.tolist() == inverse
            outcomes.add("group")
    assert outcomes == {"object", "arrow", "axioms", "group"}


def test_groupoid_roundtrip():
    g = translation_groupoid(cyclic_group(2))
    obj = groupoid_to_obj(g)
    again = groupoid_from_obj(obj)
    np.testing.assert_array_equal(again.source, g.source)
    np.testing.assert_array_equal(again.target, g.target)
    np.testing.assert_array_equal(again.identity, g.identity)
    np.testing.assert_array_equal(again.inverse, g.inverse)
    np.testing.assert_array_equal(again.compose, g.compose)


def test_groupoid_schema_validation():
    g = point_groupoid(cyclic_group(2))
    obj = groupoid_to_obj(g)
    dup = {**obj, "arrows": [dict(a, id=0) for a in obj["arrows"]]}
    with pytest.raises(FormatError):
        groupoid_from_obj(dup)
    bad_compose = {**obj, "compose": obj["compose"] + [obj["compose"][0]]}
    with pytest.raises(FormatError):
        groupoid_from_obj(bad_compose)


def test_cocycle_roundtrip_discrete_and_continuous():
    g = point_groupoid(cyclic_group(2))
    c = PhaseCocycle(2, {pair: 1 if pair == (1, 1) else 0
                         for pair in map(tuple, g.composable_pairs().tolist())})
    again = cocycle_from_obj(_cocycle_to_obj(c), g)
    assert again.modulus == 2
    np.testing.assert_array_equal(again.values, c.values)
    cont = zero_cocycle(g, None)
    back = cocycle_from_obj(_cocycle_to_obj(cont), g)
    assert back.continuous
    np.testing.assert_array_equal(back.values, cont.values)


def test_cocycle_schema_validation():
    g = point_groupoid(cyclic_group(2))
    with pytest.raises(FormatError):
        cocycle_from_obj({"values": []}, g)
    with pytest.raises(FormatError):
        cocycle_from_obj({"modulus": 2, "values": [[0, 9, 1]]}, g)
    with pytest.raises(FormatError):
        cocycle_from_obj({"modulus": 2, "values": [[0, 0, 1.5]]}, g)
    with pytest.raises(FormatError):
        cocycle_from_obj({"modulus": None, "values": [[0, 0, 1]]}, g)


@pytest.mark.parametrize(
    "value, reason",
    [
        ([float("nan"), 0.0], "finite"),
        ([1.0, float("inf")], "finite"),
        ([10**400, 0], "finite"),
        (["1", 0.0], r"\[re, im\]"),
        ([None, 0.0], r"\[re, im\]"),
        ([True, 0.0], r"\[re, im\]"),
    ],
)
def test_continuous_cocycle_values_must_be_finite_numbers(value, reason):
    g = point_groupoid(cyclic_group(2))
    obj = _cocycle_to_obj(zero_cocycle(g, None))
    obj["values"][1][2] = value
    with pytest.raises(FormatError, match=f"^cocycle entry 1: continuous value must be {reason}$"):
        cocycle_from_obj(obj, g)


def test_cover_roundtrip_with_source():
    rng = generator(803)
    _, _, _, _, cocycle, data, modulus = random_cover_instance(rng)
    obj = cover_to_obj(data, modulus, source_cocycle=cocycle)
    back, back_modulus, source = cover_from_obj(obj)
    assert back_modulus == modulus
    assert source == dict(zip(map(tuple, cocycle.pairs.tolist()), cocycle.values.tolist()))
    for name in ("phi", "phi_given", "omega", "omega_given"):
        np.testing.assert_array_equal(getattr(back, name), getattr(data, name))
    assert [set(c) for c in back.cover] == [set(c) for c in data.cover]
    validate_local_data(back, back_modulus)
    # source key is optional
    no_src = cover_from_obj(cover_to_obj(data, modulus))
    assert no_src[2] is None


def test_cover_schema_validation():
    rng = generator(804)
    _, _, _, _, cocycle, data, modulus = random_cover_instance(rng)
    obj = cover_to_obj(data, modulus)
    with pytest.raises(FormatError):
        cover_from_obj({**obj, "modulus": "four"})
    with pytest.raises(FormatError):
        cover_from_obj({**obj, "action": obj["action"][:-1]})
    with pytest.raises(FormatError):
        cover_from_obj({**obj, "charts": [[99]]})
    broken = [dict(rec) for rec in obj["local_cocycles"]]
    if broken:
        del broken[0]["k"]
        with pytest.raises(FormatError):
            cover_from_obj({**obj, "local_cocycles": broken})
    # every index field of a transition or local cocycle record is range-checked
    bounds = {"a": len(obj["charts"]), "b": len(obj["charts"]), "c": len(obj["charts"]),
              "f": len(obj["group"]["elements"]), "g": len(obj["group"]["elements"]),
              "x": len(obj["points"])}
    for key, fields in (("transitions", "abgx"), ("local_cocycles", "abcfgx")):
        assert obj[key], key
        for field in fields:
            for value in (-1, bounds[field]):
                recs = [dict(rec) for rec in obj[key]]
                recs[-1][field] = value
                with pytest.raises(FormatError, match=f"{len(recs) - 1}: field '{field}' = {value}"):
                    cover_from_obj({**obj, key: recs})
        recs = [dict(rec) for rec in obj[key]]
        recs[0]["k"] = 2**63
        with pytest.raises(FormatError, match="0: field 'k' = 9223372036854775808"):
            cover_from_obj({**obj, key: recs})
    # the local tables of 100 charts would exceed the capacity limit
    with pytest.raises(CapacityError):
        cover_from_obj({**obj, "charts": [list(range(len(obj["group"]["elements"])))] * 100})
    # an entry outside the required set is kept and written back; a repeated record replaces the earlier one
    extra = {"a": 0, "b": 0, "g": 0, "x": 0, "k": 5}
    back, _, _ = cover_from_obj({**obj, "transitions": obj["transitions"] + [extra, {**extra, "k": 7}]})
    assert back.phi_given[0, 0, 0, 0] and back.phi[0, 0, 0, 0] == 7
    assert cover_to_obj(back, modulus)["transitions"][0] == {**extra, "k": 7}
    validate_local_data(back, modulus)


@pytest.mark.parametrize("pair", [[-1, 0], [0, 6], [10**400, 0]])
def test_cover_source_cocycle_indices_must_be_arrows(pair):
    # the cover of seed 805 has 6 arrows
    with pytest.raises(FormatError, match=r"^cover: source cocycle entry 0: arrow index out of range$"):
        _cover_with("source_cocycle", [[*pair, 1]])


def test_cocycle_records_on_one_pair_are_a_format_error():
    # a cocycle holds one value per pair, as PhaseCocycle requires; transitions and local cocycles keep last-wins
    records = [[0, 0, 1], [0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]]
    with pytest.raises(FormatError, match=r"^cocycle entry 1: pair \(0, 0\) given twice$"):
        cocycle_from_obj({"modulus": 2, "values": records}, _Z2)
    phases = [[0, 0, [1.0, 0.0]], [0, 1, [1.0, 0.0]], [1, 1, [0.0, 1.0]], [0, 1, [1.0, 0.0]]]
    with pytest.raises(FormatError, match=r"^cocycle entry 3: pair \(0, 1\) given twice$"):
        cocycle_from_obj({"modulus": None, "values": phases}, _Z2)
    source = []

    def repeat(obj):
        source.extend(obj["source_cocycle"])
        return source[:3] + [source[1]]

    with pytest.raises(FormatError) as info:
        _cover_with("source_cocycle", repeat)
    x, y = source[1][:2]
    assert str(info.value) == f"cover: source cocycle entry 3: pair ({x}, {y}) given twice"


def _arrow_field(field, value):
    obj = groupoid_to_obj(point_groupoid(cyclic_group(2)))
    obj["arrows"][0][field] = value
    return groupoid_from_obj(obj)


def _cover_with(key, value):
    _, _, _, _, cocycle, data, modulus = random_cover_instance(generator(805))
    obj = cover_to_obj(data, modulus, source_cocycle=cocycle)
    obj[key] = value(obj) if callable(value) else value
    return cover_from_obj(obj)


_Z2 = point_groupoid(cyclic_group(2))

# bools pass isinstance(v, int), and floats and numeric strings pass int(v)
NON_INTEGER_FIELDS = {
    "matrix rows": lambda: matrix_from_obj({"rows": True, "cols": 1, "data": [[1.0, 0.0]]}),
    "matrix cols": lambda: matrix_from_obj({"rows": 1, "cols": True, "data": [[1.0, 0.0]]}),
    "polarization dim": lambda: polarization_from_obj({"dim": 2, "plus_dim": True}),
    "group mult": lambda: group_from_obj({"elements": ["e", "s"], "mult": [[False, True], [True, False]]}),
    "arrow src": lambda: _arrow_field("src", False),
    "arrow tgt": lambda: _arrow_field("tgt", False),
    "cocycle index": lambda: cocycle_from_obj({"modulus": 2, "values": [[True, 0, 1]]}, _Z2),
    "cocycle exponent": lambda: cocycle_from_obj({"modulus": 2, "values": [[0, 0, True]]}, _Z2),
    "cocycle modulus": lambda: cocycle_from_obj({"modulus": True, "values": [[0, 0, 0]]}, _Z2),
    "cover modulus": lambda: _cover_with("modulus", True),
    "cover action": lambda: _cover_with("action", lambda obj: [[0.0] + obj["action"][0][1:]] + obj["action"][1:]),
    "cover chart": lambda: _cover_with("charts", lambda obj: [[True]] + obj["charts"]),
    "cover transition": lambda: _cover_with(
        "transitions", [{"a": 0, "b": 1, "g": 0, "x": 0, "k": 1.7}]
    ),
    "cover local cocycle": lambda: _cover_with(
        "local_cocycles", lambda obj: [{**obj["local_cocycles"][0], "k": "1"}] + obj["local_cocycles"][1:]
    ),
    "cover source cocycle": lambda: _cover_with("source_cocycle", [[0, 0, 1.5]]),
}


@pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
def test_integer_fields_reject_bool_float_and_str(field):
    with pytest.raises(FormatError, match="must be an integer"):
        NON_INTEGER_FIELDS[field]()
