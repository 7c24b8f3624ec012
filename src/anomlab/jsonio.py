"""Readers and writers for the on-disk JSON formats.

Matrices: {"rows": n, "cols": m, "data": [[re, im], ...]} with row-major
data of exactly rows*cols entries. Frames add "plus_dim". Polarizations
are {"dim": n, "plus_dim": k}. Groupoids carry object labels, arrow
records {"id", "src", "tgt"}, and compose triples [x, y, xy] over arrow
ids. Cocycles are {"modulus": N, "values": [[x, y, k], ...]} (k an
exponent; with modulus null, k is an [re, im] pair). Covers bundle a
group table, a right action, charts, transition records, and local
cocycle records; see the README for the field-by-field layout.

Schema violations raise FormatError; mathematically invalid content
raises the owning module's domain errors.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import FormatError
from .grassmann import Frame
from .groupoid import (
    FiniteGroup,
    FiniteGroupoid,
    LocalExtensionData,
    PhaseCocycle,
    given_entries,
    group_axioms_check,
    groupoid_from_compose,
)
from .linalg import Polarization


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _expect(obj, key, kinds, where):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kinds is not None and not isinstance(val, kinds):
        raise FormatError(f"{where}: key {key!r} has wrong type {type(val).__name__}")
    return val


def _integer(val, field, *args):
    """val itself when it is a JSON integer; bool, float and str are format errors.

    The error names the field field.format(*args), built only on failure.
    """
    if isinstance(val, bool) or not isinstance(val, int):
        raise FormatError(f"{field.format(*args)} must be an integer, got {type(val).__name__}")
    return val


def matrix_to_obj(m) -> dict:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"matrix must be 2-d, got ndim={arr.ndim}")
    data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": data}


def matrix_from_obj(obj) -> np.ndarray:
    rows = _integer(_expect(obj, "rows", None, "matrix"), "matrix: rows")
    cols = _integer(_expect(obj, "cols", None, "matrix"), "matrix: cols")
    data = _expect(obj, "data", list, "matrix")
    if rows < 0 or cols < 0:
        raise FormatError("matrix: negative dimensions")
    if len(data) != rows * cols:
        raise FormatError(
            f"matrix: data has {len(data)} entries, expected {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) for x in entry)
        ):
            raise FormatError(f"matrix: entry {i} is not an [re, im] pair")
        try:
            out[i] = complex(entry[0], entry[1])
        except OverflowError:  # an integer beyond the float range
            raise FormatError("matrix: entries must be finite") from None
    if not np.all(np.isfinite(out.view(np.float64))):
        raise FormatError("matrix: entries must be finite")
    return out.reshape(rows, cols)


def polarization_from_obj(obj) -> Polarization:
    dim = _integer(_expect(obj, "dim", None, "polarization"), "polarization: dim")
    plus = _integer(_expect(obj, "plus_dim", None, "polarization"), "polarization: plus_dim")
    return Polarization(dim=dim, plus_dim=plus)


def polarization_to_obj(pol: Polarization) -> dict:
    return {"dim": pol.dim, "plus_dim": pol.plus_dim}


def frame_to_obj(frame: Frame) -> dict:
    obj = matrix_to_obj(frame.matrix)
    obj["plus_dim"] = frame.pol.plus_dim
    return obj


def frame_from_obj(obj) -> Frame:
    m = matrix_from_obj(obj)
    plus = _integer(_expect(obj, "plus_dim", None, "frame"), "frame: plus_dim")
    if m.shape[1] != plus:
        raise FormatError(
            f"frame: matrix has {m.shape[1]} columns but plus_dim is {plus}"
        )
    return Frame(Polarization(dim=m.shape[0], plus_dim=plus), m)


def group_to_obj(group: FiniteGroup) -> dict:
    return {
        "elements": [_label(e) for e in group.elements],
        "mult": group.mult.tolist(),
    }


def group_from_obj(obj) -> FiniteGroup:
    elements = _expect(obj, "elements", list, "group")
    mult = _expect(obj, "mult", list, "group")
    n = len(elements)
    if len(mult) != n or any(not isinstance(r, list) or len(r) != n for r in mult):
        raise FormatError("group: mult table must be n x n")
    for row in mult:
        for v in row:
            if not 0 <= _integer(v, "group: mult entry") < n:
                raise FormatError(f"group: mult entry {v!r} out of range")
    table = np.array(mult, dtype=np.int64).reshape(n, n)
    e = np.arange(n)
    # the first e with e * i = i * e = i for every i
    units = np.flatnonzero((table == e).all(axis=1) & (table == e[:, None]).all(axis=0))
    if not units.size:
        raise FormatError("group: no identity element in mult table")
    identity = int(units[0])
    is_inverse = (table == identity) & (table.T == identity)
    counts = is_inverse.sum(axis=1)
    if np.any(counts != 1):
        i = int(np.argmax(counts != 1))
        raise FormatError(f"group: element {i} has {counts[i]} inverses")
    group = FiniteGroup(
        elements=tuple(elements), mult=table, identity=identity, inverse=np.argmax(is_inverse, axis=1)
    )
    bad = group_axioms_check(group)
    if bad:
        raise FormatError("group: " + bad[0])
    return group


def _label(x):
    if isinstance(x, (list, tuple)):
        return [_label(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, (np.integer,)):
        return int(x)
    return str(x)


def groupoid_to_obj(g: FiniteGroupoid) -> dict:
    pairs = g.composable_pairs()
    products = g.compose[pairs[:, 0], pairs[:, 1]]
    return {
        "objects": [_label(o) for o in g.objects],
        "arrows": [
            {"id": i, "src": s, "tgt": t}
            for i, (s, t) in enumerate(zip(g.source.tolist(), g.target.tolist()))
        ],
        "compose": np.column_stack([pairs, products]).tolist(),
    }


def groupoid_from_obj(obj) -> FiniteGroupoid:
    objects = _expect(obj, "objects", list, "groupoid")
    arrow_recs = _expect(obj, "arrows", list, "groupoid")
    compose_recs = _expect(obj, "compose", list, "groupoid")
    n_obj = len(objects)
    ids = []
    source, target = [], []
    for i, rec in enumerate(arrow_recs):
        aid = _expect(rec, "id", None, f"groupoid arrow {i}")
        src = _integer(_expect(rec, "src", None, f"groupoid arrow {i}"), "groupoid arrow {}: src", i)
        tgt = _integer(_expect(rec, "tgt", None, f"groupoid arrow {i}"), "groupoid arrow {}: tgt", i)
        if not 0 <= src < n_obj or not 0 <= tgt < n_obj:
            raise FormatError(f"groupoid arrow {i}: endpoint out of range")
        if isinstance(aid, (list, dict)):
            raise FormatError(f"groupoid arrow {i}: id must be scalar")
        ids.append(aid)
        source.append(src)
        target.append(tgt)
    if len(set(ids)) != len(ids):
        raise FormatError("groupoid: duplicate arrow ids")
    pos = {aid: i for i, aid in enumerate(ids)}
    compose = np.full((len(ids), len(ids)), -1, dtype=np.int64)
    for i, triple in enumerate(compose_recs):
        if not isinstance(triple, list) or len(triple) != 3:
            raise FormatError(f"groupoid compose entry {i}: expected [x, y, xy]")
        try:
            x, y, xy = (pos[t] for t in triple)
        except KeyError as exc:
            raise FormatError(f"groupoid compose entry {i}: unknown arrow id {exc}") from None
        if compose[x, y] >= 0:
            raise FormatError(f"groupoid compose entry {i}: duplicate pair")
        compose[x, y] = xy
    return groupoid_from_compose(objects, ids, source, target, compose)


def cocycle_to_obj(g: FiniteGroupoid, c: PhaseCocycle) -> dict:
    values = np.stack([c.values.real, c.values.imag], axis=-1) if c.continuous else c.values
    x, y = c.pairs.T.tolist()
    return {"modulus": c.modulus, "values": list(map(list, zip(x, y, values.tolist())))}


def cocycle_from_obj(obj, g: FiniteGroupoid) -> PhaseCocycle:
    modulus = _expect(obj, "modulus", None, "cocycle")
    recs = _expect(obj, "values", list, "cocycle")
    values = {}
    for i, rec in enumerate(recs):
        if not isinstance(rec, list) or len(rec) != 3:
            raise FormatError(f"cocycle entry {i}: expected [x, y, value]")
        x, y, val = rec
        _integer(x, "cocycle entry {}: arrow index", i)
        _integer(y, "cocycle entry {}: arrow index", i)
        if not 0 <= x < g.n_arrows or not 0 <= y < g.n_arrows:
            raise FormatError(f"cocycle entry {i}: arrow index out of range")
        if modulus is None:
            if not isinstance(val, list) or len(val) != 2 or not all(type(v) in (int, float) for v in val):
                raise FormatError(f"cocycle entry {i}: continuous value must be [re, im]")
            if not all(abs(v) <= sys.float_info.max for v in val):  # false for nan
                raise FormatError(f"cocycle entry {i}: continuous value must be finite")
            values[(x, y)] = complex(val[0], val[1])
        else:
            values[(x, y)] = _integer(val, "cocycle entry {}: exponent", i)
    if modulus is not None:
        _integer(modulus, "cocycle: modulus")
    return PhaseCocycle(modulus, values)


def cover_to_obj(data: LocalExtensionData, modulus: int, source_cocycle: PhaseCocycle = None) -> dict:
    obj = {
        "modulus": int(modulus),
        "group": group_to_obj(data.group),
        "points": [_label(p) for p in data.points],
        "action": [list(row) for row in data.action],
        "charts": [sorted(chart) for chart in data.cover],
        "transitions": [
            {"a": a, "b": b, "g": g, "x": x, "k": k}
            for (a, b, g, x), k in given_entries(data.phi, data.phi_given)
        ],
        "local_cocycles": [
            {"a": a, "b": b, "c": c, "f": f, "g": g, "x": x, "k": k}
            for (a, b, c, f, g, x), k in given_entries(data.omega, data.omega_given)
        ],
    }
    if source_cocycle is not None:
        obj["source_cocycle"] = np.column_stack([source_cocycle.pairs, source_cocycle.values]).tolist()
    return obj


def cover_from_obj(obj):
    """Returns (LocalExtensionData, modulus, source dict {(x, y): exponent} or None)."""
    modulus = _integer(_expect(obj, "modulus", None, "cover"), "cover: modulus")
    group = group_from_obj(_expect(obj, "group", dict, "cover"))
    points = _expect(obj, "points", list, "cover")
    action = _expect(obj, "action", list, "cover")
    if len(action) != len(points) or any(
        not isinstance(row, list) or len(row) != group.order for row in action
    ):
        raise FormatError("cover: action table must be |points| x |group|")
    for row in action:
        for v in row:
            _integer(v, "cover: action entry")
    charts_raw = _expect(obj, "charts", list, "cover")
    charts = []
    for i, chart in enumerate(charts_raw):
        if not isinstance(chart, list) or not all(
            0 <= _integer(v, "cover: chart {} entry", i) < group.order for v in chart
        ):
            raise FormatError(f"cover: chart {i} must list group element indices")
        charts.append(set(chart))
    data = LocalExtensionData.blank(group, points, action, charts)
    chart, element, point = (0, len(charts)), (0, group.order), (0, len(points))
    exponent = (-(2**63), 2**63)
    _fill_local(
        data.phi, data.phi_given, _expect(obj, "transitions", list, "cover"),
        {"a": chart, "b": chart, "g": element, "x": point, "k": exponent}, "cover: transition",
    )
    _fill_local(
        data.omega, data.omega_given, _expect(obj, "local_cocycles", list, "cover"),
        {"a": chart, "b": chart, "c": chart, "f": element, "g": element, "x": point, "k": exponent},
        "cover: local cocycle",
    )
    source = None
    if "source_cocycle" in obj:
        source = {}
        for i, rec in enumerate(obj["source_cocycle"]):
            if not isinstance(rec, list) or len(rec) != 3:
                raise FormatError(f"cover: source cocycle entry {i} malformed")
            x, y, k = (_integer(v, "cover: source cocycle entry {}", i) for v in rec)
            if not 0 <= min(x, y) <= max(x, y) < len(points) * group.order:
                raise FormatError(f"cover: source cocycle entry {i}: arrow index out of range")
            source[(x, y)] = k
    return data, modulus, source


def _fill_local(values, given, recs, bounds, where) -> None:
    """Write records {field: integer} into a local table and mark them given.

    bounds maps each index field, then "k", to its range [lo, hi); a later
    record for the same index replaces an earlier one.
    """
    rows = []
    for i, rec in enumerate(recs):
        if not isinstance(rec, dict) or any(key not in rec for key in bounds):
            raise FormatError(f"{where} {i} missing fields")
        row = [_integer(rec[key], "{} {} field {!r}", where, i, key) for key in bounds]
        for (key, (lo, hi)), v in zip(bounds.items(), row):
            if not lo <= v < hi:
                raise FormatError(f"{where} {i}: field {key!r} = {v} lies outside [{lo}, {hi})")
        rows.append(row)
    table = np.array(rows, dtype=np.int64).reshape(len(rows), len(bounds))
    index = tuple(table[:, :-1].T)
    values[index] = table[:, -1]
    given[index] = True
