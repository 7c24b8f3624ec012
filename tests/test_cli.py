"""Command-line entry point: exit codes, file formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import anomlab
from anomlab.cli import build_parser, main
from anomlab.errors import MissingValueError
from anomlab.groupoid import action_groupoid, axioms_check, validate_local_data
from anomlab.instances import (
    coset_right_action,
    cyclic_group,
    group_catalog,
    point_groupoid,
    subgroups,
)
from anomlab.jsonio import (
    cover_from_obj,
    groupoid_from_obj,
    groupoid_to_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
)


def _dump_json(obj, path) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _write_matrix(path, m):
    _dump_json(matrix_to_obj(np.asarray(m, dtype=np.complex128)), path)
    return str(path)


def _read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def test_verify_json_report(tmp_path):
    out = tmp_path / "detp.jsonl"
    assert main(["verify", "--suite", "detp", "--seed", "3", "--out", str(out)]) == 0
    lines = _read_lines(out)
    summary = lines[-1]
    assert summary["kind"] == "summary"
    assert summary["suite"] == "detp"
    assert summary["pass"] is True
    assert summary["failures"] == 0
    assert summary["cases"] == len(lines) - 1
    assert all(rec["kind"] == "case" for rec in lines[:-1])


def test_verify_text_format(capsys):
    assert main(["verify", "--suite", "detp", "--seed", "1", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("suite detp:")
    assert "PASS" in text


def test_verify_deterministic_up_to_timestamps(tmp_path):
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    main(["verify", "--suite", "detp", "--seed", "9", "--out", str(first)])
    main(["verify", "--suite", "detp", "--seed", "9", "--out", str(second)])

    def strip(path):
        return [
            {k: v for k, v in rec.items() if k not in ("wall_time", "started")}
            for rec in _read_lines(path)
        ]

    assert strip(first) == strip(second)


def test_verify_exit_codes(tmp_path, capsys):
    # impossible tolerance: honest failures, exit 1
    out = tmp_path / "fail.jsonl"
    code = main(
        ["verify", "--suite", "detp", "--seed", "0",
         "--tolerance", "series=0", "--out", str(out)]
    )
    assert code == 1
    assert _read_lines(out)[-1]["pass"] is False
    # unknown suite is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    # malformed tolerance syntax is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "detp", "--tolerance", "series"])
    assert exc.value.code == 2
    capsys.readouterr()
    # unknown tolerance key is a domain error
    assert main(["verify", "--suite", "detp", "--tolerance", "bogus=1"]) == 4


def test_compute_detp_fixture(tmp_path, capsys):
    matrix = _write_matrix(tmp_path / "a.json", np.diag([0.5, 0.0]))
    assert main(["compute", "detp", "--p", "2", "--matrix", matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "detp"
    assert payload["order"] == 2
    np.testing.assert_allclose(payload["value"], [1.5 * math.exp(-0.5), 0.0], atol=1e-12)


def test_compute_usage_format_and_domain_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "detp"])  # missing --matrix
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["compute", "detp", "--matrix", str(bad)]) == 3
    wrong = tmp_path / "wrong.json"
    _dump_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0]]}, wrong)
    assert main(["compute", "detp", "--matrix", str(wrong)]) == 3
    capsys.readouterr()
    matrix = _write_matrix(tmp_path / "a.json", np.diag([0.5, 0.0]))
    assert main(["compute", "detp", "--matrix", matrix, "--p", "0"]) == 4


def test_compute_detp_rejects_integers_beyond_float_range(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    _dump_json({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, huge)
    assert main(["compute", "detp", "--matrix", str(huge)]) == 3
    assert "matrix: entries must be finite" in capsys.readouterr().err


def test_compute_detp_rejects_bool_entries(tmp_path, capsys):
    flag = tmp_path / "flag.json"
    _dump_json({"rows": 1, "cols": 1, "data": [[True, 0]]}, flag)
    assert main(["compute", "detp", "--matrix", str(flag)]) == 3
    assert "matrix: entry 0 is not an [re, im] pair" in capsys.readouterr().err


def test_compute_omega(tmp_path, capsys):
    a = _write_matrix(tmp_path / "a.json", np.diag([0.1]))
    b = _write_matrix(tmp_path / "b.json", np.diag([0.1]))
    assert main(["compute", "omega", "--p", "2", "--matrix-a", a, "--matrix-b", b]) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(
        payload["value"], [1.1 * math.exp(-0.11), 0.0], atol=1e-12
    )


def test_compute_schwinger(tmp_path, capsys):
    r = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = _write_matrix(tmp_path / "x.json", r - r.T)
    y = _write_matrix(tmp_path / "y.json", 1j * (r + r.T))
    pol = tmp_path / "pol.json"
    _dump_json({"dim": 2, "plus_dim": 1}, pol)
    args = ["compute", "schwinger", "--matrix-x", x, "--matrix-y", y, "--pol", str(pol)]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["value"], [0.0, -2.0], atol=1e-12)
    assert payload["residue"] <= 1e-9
    capsys.readouterr()
    assert main(args + ["--modes", "3"]) == 4


def test_compute_h2(tmp_path, capsys):
    gfile = tmp_path / "bz2.json"
    _dump_json(groupoid_to_obj(point_groupoid(cyclic_group(2))), gfile)
    assert main(["compute", "h2", "--groupoid", str(gfile), "--modulus", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"] == [2]
    assert payload["order"] == 2
    assert payload["trivial"] is False
    capsys.readouterr()
    assert main(["compute", "h2", "--groupoid", str(gfile), "--modulus", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["trivial"] is True


def test_main_reuses_its_parser(tmp_path, capsys):
    """Calls in one process, a usage error between two of them, print the same bytes.

    main parses with one parser per process; a fresh one reads the same argv alike,
    and an appended option does not carry over from one parse to the next.
    """
    gfile = tmp_path / "d4.json"
    _dump_json(groupoid_to_obj(point_groupoid(group_catalog()["D4"])), gfile)
    argv = ["compute", "h2", "--groupoid", str(gfile), "--modulus", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["compute", "h2", "--groupoid", str(gfile), "--modulus", "four"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["order"] == 8  # Hom(Z2, Z4) + Ext(Z2^2, Z4)
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    assert fresh is not build_parser()
    verify = ["verify", "--suite", "detp", "--tolerance", "series=1e-9"]
    for args in (argv, verify, verify):
        assert vars(fresh.parse_args(args)) == vars(build_parser().parse_args(args))
    assert build_parser().parse_args(verify).tolerance == ["series=1e-9"]


def test_compute_h2_past_int64(tmp_path, capsys):
    # Z2xZ4: Hom(M(G), Z_N) + Ext(G^ab, Z_N) = Z2 + Z2 + Z4 for any N divisible by 4
    gfile = tmp_path / "z2xz4.json"
    _dump_json(groupoid_to_obj(point_groupoid(group_catalog()["Z2xZ4"])), gfile)
    for modulus in (3 * 2**61, 2**63, 2**64 * 5):
        assert main(["compute", "h2", "--groupoid", str(gfile), "--modulus", str(modulus)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["modulus"], payload["orders"], payload["order"]) == (modulus, [2, 2, 4], 16)


# Exact outputs pinned as literals: H^2 orders per (group, groupoid, modulus),
# where "coset-k" is the action on the cosets of the first subgroup of order k.
H2_ORDERS = {
    ("D4", "point", 2): [2, 2, 2],
    ("D4", "point", 4): [2, 2, 2],
    ("D4", "coset-2", 2): [2],
    ("D4", "coset-2", 4): [2],
    ("D4", "coset-4", 2): [2, 2, 2],
    ("D4", "coset-4", 4): [2, 2, 2],
    ("Z2xZ4", "point", 2): [2, 2, 2],
    ("Z2xZ4", "point", 4): [2, 2, 4],
    ("Z2xZ4", "coset-2", 2): [2],
    ("Z2xZ4", "coset-2", 4): [2],
    ("Z2xZ4", "coset-4", 2): [2],
    ("Z2xZ4", "coset-4", 4): [4],
}


def test_compute_h2_orders_are_pinned(tmp_path, capsys):
    catalog = group_catalog()
    for (name, kind, modulus), orders in H2_ORDERS.items():
        group = catalog[name]
        if kind == "point":
            gpd = point_groupoid(group)
        else:
            k = int(kind.split("-")[1])
            sub = next(s for s in subgroups(group) if len(s) == k)
            points, action = coset_right_action(group, sub)
            gpd = action_groupoid(points, group, action)
        gfile = tmp_path / f"{name}-{kind}.json"
        _dump_json(groupoid_to_obj(gpd), gfile)
        assert main(["compute", "h2", "--groupoid", str(gfile), "--modulus", str(modulus)]) == 0
        assert json.loads(capsys.readouterr().out)["orders"] == orders, (name, kind, modulus)


# (orders, vector) of the glued class, which equals the source class, for
# `generate refined-cover --seed s` read back by `compute glue`
GLUE_CLASSES = {
    0: ([2, 2], [1, 1]),
    1: ([2], [0]),
    2: ([2], [0]),
    3: ([2], [0]),
    4: ([], []),
    5: ([], []),
}


# sha256 of the bytes of `generate refined-cover --seed s` and the `inputs`
# digest that `compute glue` reports on that file
GENERATED_COVERS = {
    0: ("ea0e0937ad91897106250110b257c27eb8143743a029dab0973376702e37cc66", "3fa0ba83cb7c"),
    1: ("a2fcf9c522af8f023050e7b52074de9d46fa586511085aa18c6bc4a3549aa126", "9bbcfa8fc952"),
    2: ("9a55e0108b7365e3e79145c75b403ef70c877e6f0a7915f86af85c986ae4e68a", "eb1bb2d386bf"),
    3: ("36eee3430d7bc6abb82862bf470f86574120af9113c1b2ed78a836a375597a42", "2c9123755270"),
    4: ("45175d6e842c161944e56b1104f438560be2d0f55777dd08d6585cd51b8e9ae0", "56802d30d826"),
    5: ("ea53fc61e8f1309d9f36ee67a8ebaae53add05344484a198baa417d16cca7860", "dc6f9cb3e428"),
}


def test_compute_glue_class_vectors_are_pinned(tmp_path, capsys):
    for seed, (orders, vector) in GLUE_CLASSES.items():
        cover = tmp_path / f"cover{seed}.json"
        assert main(["generate", "refined-cover", "--seed", str(seed), "--out", str(cover)]) == 0
        assert main(["compute", "glue", "--data", str(cover)]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = {"orders": orders, "vector": vector}
        assert payload["class"] == expected, seed
        assert payload["source_class"] == expected, seed
        sha, inputs = GENERATED_COVERS[seed]
        assert hashlib.sha256(cover.read_bytes()).hexdigest() == sha, seed
        assert payload["inputs"] == {"data": inputs}, seed


# records dropped from `generate refined-cover --seed 0`, and the entry reported missing
MISSING_ENTRIES = [
    (0, 105, "transition phi[0,1] missing at element 1, point 0"),
    (3, 50, "local cocycle omega[0,1;0] missing at (0, 2), point 0"),
]


def test_compute_glue_reports_missing_entries(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "0", "--out", str(cover)]) == 0
    obj = load_json(cover)
    for transition, local, message in MISSING_ENTRIES:
        broken = {
            **obj,
            "transitions": obj["transitions"][:transition] + obj["transitions"][transition + 1:],
            "local_cocycles": obj["local_cocycles"][:local] + obj["local_cocycles"][local + 1:],
        }
        data, modulus, _ = cover_from_obj(broken)
        with pytest.raises(MissingValueError) as info:
            validate_local_data(data, modulus)
        assert str(info.value) == message
        capsys.readouterr()
        _dump_json(broken, tmp_path / "broken.json")
        assert main(["compute", "glue", "--data", str(tmp_path / "broken.json")]) == 4
        assert capsys.readouterr().err == f"domain error: {message}\n"


def test_compute_glue_reads_the_source_cocycle_on_composable_pairs(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "0", "--out", str(cover)]) == 0
    obj = load_json(cover)
    source = obj["source_cocycle"]
    capsys.readouterr()
    assert main(["compute", "glue", "--data", str(cover)]) == 0
    plain = capsys.readouterr().out

    def glue(records):
        _dump_json({**obj, "source_cocycle": records}, tmp_path / "edited.json")
        code = main(["compute", "glue", "--data", str(tmp_path / "edited.json")])
        return (code, *capsys.readouterr())

    # one record dropped: its pair is named; two dropped, from records in reverse
    # file order, name the lexicographically first of the two
    assert glue(source[:3] + source[4:]) == (4, "", "domain error: cocycle has no value on pair (0, 3)\n")
    for other in (1, 9, len(source) - 1):
        kept = [rec for i, rec in enumerate(source) if i not in (3, other)][::-1]
        x, y = min(source[3][:2], source[other][:2])
        assert glue(kept) == (4, "", f"domain error: cocycle has no value on pair ({x}, {y})\n")
    # a record on an in-range pair that does not compose is never read
    arrows = len(obj["points"]) * len(obj["action"][0])
    stored = {tuple(rec[:2]) for rec in source}
    apart = [[x, y, 1] for x in range(arrows) for y in range(arrows) if (x, y) not in stored]
    assert apart
    for rec in apart[:3] + apart[-1:]:
        assert glue(source + [rec]) == (0, plain, "")


def test_compute_glue_rejects_a_source_pair_given_twice(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "0", "--out", str(cover)]) == 0
    obj = load_json(cover)
    source = obj["source_cocycle"]
    for i in (0, 5, len(source) - 1):
        # even a record equal to the first is refused: a pair is given once
        _dump_json({**obj, "source_cocycle": source + [source[i]]}, tmp_path / "twice.json")
        capsys.readouterr()
        assert main(["compute", "glue", "--data", str(tmp_path / "twice.json")]) == 3
        x, y = source[i][:2]
        message = f"format error: cover: source cocycle entry {len(source)}: pair ({x}, {y}) given twice\n"
        assert capsys.readouterr() == ("", message)


# order-3 tables that are no group; jsonio's tests pin the wording of each failure
NOT_GROUPS = {
    "no identity": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "no inverse of 1": [[0, 1, 2], [1, 1, 1], [2, 1, 0]],
    "not associative": [[0, 1, 2], [1, 0, 1], [2, 2, 0]],
}


@pytest.mark.parametrize("case", NOT_GROUPS)
def test_compute_glue_rejects_a_table_that_is_no_group(tmp_path, capsys, case):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "4", "--out", str(cover)]) == 0
    obj = load_json(cover)
    assert len(obj["group"]["elements"]) == 3
    _dump_json({**obj, "group": {**obj["group"], "mult": NOT_GROUPS[case]}}, tmp_path / "broken.json")
    capsys.readouterr()
    assert main(["compute", "glue", "--data", str(tmp_path / "broken.json")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("format error: group: ")


@pytest.mark.parametrize("modulus", [2**62, 2**63, 2**64])
def test_compute_glue_bounds_the_modulus(tmp_path, capsys, modulus):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "7", "--out", str(cover)]) == 0
    _dump_json({**load_json(cover), "modulus": modulus}, tmp_path / "huge.json")
    capsys.readouterr()
    assert main(["compute", "glue", "--data", str(tmp_path / "huge.json")]) == 4
    top = (2**63 - 1) // 3
    assert capsys.readouterr() == ("", f"domain error: modulus must lie in [1, {top}], got {modulus}\n")


def test_exact_commands_load_no_scipy(tmp_path):
    # compute h2 and compute glue never reach scipy.sparse or scipy.linalg
    code = (
        "import sys\n"
        "from anomlab.cli import main\n"
        "for argv in (\n"
        "    ['generate', 'random-action-groupoid', '--seed', '3', '--out', 'g.json'],\n"
        "    ['compute', 'h2', '--groupoid', 'g.json', '--modulus', '4', '--out', 'h2.json'],\n"
        "    ['generate', 'refined-cover', '--seed', '3', '--out', 'cover.json'],\n"
        "    ['compute', 'glue', '--data', 'cover.json', '--out', 'glue.json'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(anomlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert {p.name for p in tmp_path.iterdir()} == {"g.json", "h2.json", "cover.json", "glue.json"}


def test_compute_glue_rejects_out_of_range_action(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "0", "--out", str(cover)]) == 0
    obj = load_json(cover)
    n = len(obj["points"])
    for value in (-1, n, 2**70):
        for column, message in ((0, "identity moves point 0"), (1, "action entry (0, 1) out of range")):
            action = [list(row) for row in obj["action"]]
            action[0][column] = value
            _dump_json({**obj, "action": action}, tmp_path / "broken.json")
            capsys.readouterr()
            assert main(["compute", "glue", "--data", str(tmp_path / "broken.json")]) == 4
            assert capsys.readouterr().err == f"domain error: {message}\n", (value, column)


def test_compute_glue_refuses_oversized_extension(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "7", "--out", str(cover)]) == 0
    _dump_json({**load_json(cover), "modulus": 10**12}, tmp_path / "huge.json")
    capsys.readouterr()
    assert main(["compute", "glue", "--data", str(tmp_path / "huge.json")]) == 4
    assert capsys.readouterr().err.startswith("domain error: extension of ")


def test_generate_is_byte_deterministic(tmp_path):
    for kind in ("random-hermitian", "random-unital", "random-action-groupoid",
                 "refined-cover"):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        other = tmp_path / "other.json"
        assert main(["generate", kind, "--seed", "11", "--out", str(one)]) == 0
        assert main(["generate", kind, "--seed", "11", "--out", str(two)]) == 0
        assert main(["generate", kind, "--seed", "12", "--out", str(other)]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert one.read_bytes() != other.read_bytes()


def test_generate_outputs_are_well_formed(tmp_path):
    hfile = tmp_path / "h.json"
    main(["generate", "random-hermitian", "--seed", "2", "--modes", "5", "--out", str(hfile)])
    h = matrix_from_obj(load_json(hfile))
    assert h.shape == (5, 5)
    np.testing.assert_allclose(h, h.conj().T)
    ufile = tmp_path / "u.json"
    main(["generate", "random-unital", "--seed", "2", "--modes", "5", "--out", str(ufile)])
    m = matrix_from_obj(load_json(ufile))
    assert np.max(np.abs(np.linalg.eigvals(m))) <= 0.5 + 1e-12
    gfile = tmp_path / "g.json"
    main(["generate", "random-action-groupoid", "--seed", "2", "--out", str(gfile)])
    assert axioms_check(groupoid_from_obj(load_json(gfile))) == []


def test_generate_capacity_errors(capsys):
    assert main(["generate", "random-hermitian", "--modes", "0"]) == 4
    assert main(["generate", "random-hermitian", "--modes", "65"]) == 4
    assert main(["generate", "refined-cover", "--modulus", "1"]) == 4


def test_compute_glue_roundtrip(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["generate", "refined-cover", "--seed", "5", "--out", str(cover)]) == 0
    file_modulus = load_json(cover)["modulus"]
    assert main(["compute", "glue", "--data", str(cover)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "glue"
    assert payload["modulus"] == file_modulus
    assert payload["centrality"] == 0.0
    assert payload["class_matches_source"] is True
    assert payload["class"]["orders"] == payload["source_class"]["orders"]
    capsys.readouterr()
    assert main(["compute", "glue", "--data", str(cover),
                 "--modulus", str(file_modulus + 1)]) == 4


def test_report_merges_and_propagates_failure(tmp_path, capsys):
    good_a = tmp_path / "a.jsonl"
    good_b = tmp_path / "b.jsonl"
    main(["verify", "--suite", "detp", "--seed", "1", "--out", str(good_a)])
    main(["verify", "--suite", "detp", "--seed", "2", "--out", str(good_b)])
    merged_out = tmp_path / "merged.jsonl"
    assert main(["report", str(good_a), str(good_b), "--out", str(merged_out)]) == 0
    records = _read_lines(merged_out)
    merged = records[-1]
    assert merged["kind"] == "merged"
    assert merged["pass"] is True
    assert len(merged["suites"]) == 2
    # both runs of the same suite are retained, with their timestamps
    assert [s["suite"] for s in merged["suites"]] == ["detp", "detp"]
    assert all("started" in s for s in merged["suites"])
    summaries = [r for r in records if r["kind"] == "summary"]
    assert merged["cases"] == sum(s["cases"] for s in summaries)

    bad = tmp_path / "bad.jsonl"
    main(["verify", "--suite", "detp", "--seed", "1",
          "--tolerance", "series=0", "--out", str(bad)])
    assert main(["report", str(good_a), str(bad)]) == 1
    capsys.readouterr()


def test_report_format_errors(tmp_path, capsys):
    junk = tmp_path / "junk.jsonl"
    junk.write_text("not json at all\n")
    assert main(["report", str(junk)]) == 3
    empty = tmp_path / "empty.jsonl"
    empty.write_text(json.dumps({"kind": "case"}) + "\n")
    assert main(["report", str(empty)]) == 3
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 3
    capsys.readouterr()


def test_text_formats(tmp_path, capsys):
    matrix = _write_matrix(tmp_path / "a.json", np.diag([0.5, 0.0]))
    assert main(["compute", "detp", "--matrix", matrix, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind: detp")
    report_file = tmp_path / "r.jsonl"
    main(["verify", "--suite", "detp", "--seed", "1", "--out", str(report_file)])
    assert main(["report", str(report_file), "--format", "text"]) == 0
    assert "merged:" in capsys.readouterr().out
