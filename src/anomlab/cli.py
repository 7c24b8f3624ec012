"""Command-line harness: verify suites, compute quantities, generate instances.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 file format
error, 4 domain error. Reports are JSON lines (one object per case plus a
summary per suite); pass --format text for a human summary. All randomness
is PCG64 seeded from --seed, so outputs are deterministic up to the wall
time and timestamp fields of summaries.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import AnomlabError, DomainError, FormatError
from .fock import build_car, schwinger_detail
from .groupoid import PhaseCocycle, centrality_check, given_entries, glue_local_data
from .instances import (
    generator,
    random_action_instance,
    random_cover_instance,
    random_hermitian,
    random_perturbation,
)
from .nerve import class_reducer, cocycle_vector, cohomology_group
from .regdet import det_p, omega_p
from .suites import SUITE_NAMES, digest, report_to_text, run_suites

COMPUTE_KINDS = ("detp", "omega", "schwinger", "h2", "glue")
GENERATE_KINDS = (
    "random-hermitian",
    "random-unital",
    "random-action-groupoid",
    "refined-cover",
)


def _complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomlab",
        description="Regularized determinants, CAR/Fock quantization, and groupoid extension checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a seeded invariant suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", action="append", default=[], metavar="KEY=VAL")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--out")

    compute = sub.add_parser("compute", help="compute a single quantity from input files")
    compute.add_argument("what", choices=COMPUTE_KINDS)
    compute.add_argument("--p", type=int, default=2, help="regularization order")
    compute.add_argument("--matrix", help="matrix JSON (detp)")
    compute.add_argument("--matrix-a", help="first matrix JSON (omega)")
    compute.add_argument("--matrix-b", help="second matrix JSON (omega)")
    compute.add_argument("--matrix-x", help="first one-particle matrix JSON (schwinger)")
    compute.add_argument("--matrix-y", help="second one-particle matrix JSON (schwinger)")
    compute.add_argument("--pol", help="polarization JSON (schwinger)")
    compute.add_argument("--modes", type=int, help="mode count cross-check (schwinger)")
    compute.add_argument("--groupoid", help="groupoid JSON (h2)")
    compute.add_argument("--data", help="cover JSON (glue)")
    compute.add_argument("--modulus", type=int, help="coefficient modulus (h2, glue)")
    compute.add_argument("--format", choices=("json", "text"), default="json")
    compute.add_argument("--out")

    generate = sub.add_parser("generate", help="emit a seeded random instance file")
    generate.add_argument("kind", choices=GENERATE_KINDS)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--modes", type=int, default=4, help="matrix size for matrix kinds")
    generate.add_argument("--modulus", type=int, default=4, help="modulus for refined-cover")
    generate.add_argument("--out")

    report = sub.add_parser("report", help="merge report files")
    report.add_argument("paths", nargs="+")
    report.add_argument("--format", choices=("json", "text"), default="json")
    report.add_argument("--out")
    return parser


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_tolerances(pairs, parser) -> dict:
    overrides = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep or not key:
            parser.error(f"--tolerance expects KEY=VAL, got {item!r}")
        try:
            overrides[key] = float(val)
        except ValueError:
            parser.error(f"--tolerance value for {key!r} is not a number: {val!r}")
    return overrides


def _require(parser, args, names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        parser.error(f"{args.command} {getattr(args, 'what', '')}: missing {', '.join(missing)}")


def _cmd_verify(args, parser) -> int:
    overrides = _parse_tolerances(args.tolerance, parser)
    reports = run_suites(args.suite, args.seed, overrides)
    if args.format == "text":
        text = "\n".join(report_to_text(r) for r in reports)
    else:
        lines = []
        for r in reports:
            lines.extend(json.dumps(obj, sort_keys=True) for obj in r.to_lines())
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_compute(args, parser) -> int:
    if args.what == "detp":
        _require(parser, args, ["matrix"])
        m = jsonio.matrix_from_obj(jsonio.load_json(args.matrix))
        result = det_p(m, args.p)
        payload = {
            "kind": "detp",
            "order": result.order,
            "value": _complex_pair(result.value),
            "log_value": _complex_pair(result.log_value),
            "inputs": {"matrix": digest(m), "p": args.p},
        }
    elif args.what == "omega":
        _require(parser, args, ["matrix_a", "matrix_b"])
        a = jsonio.matrix_from_obj(jsonio.load_json(args.matrix_a))
        b = jsonio.matrix_from_obj(jsonio.load_json(args.matrix_b))
        value = omega_p(a, b, args.p)
        payload = {
            "kind": "omega",
            "order": args.p,
            "value": _complex_pair(value),
            "inputs": {"matrix_a": digest(a), "matrix_b": digest(b), "p": args.p},
        }
    elif args.what == "schwinger":
        _require(parser, args, ["matrix_x", "matrix_y", "pol"])
        x = jsonio.matrix_from_obj(jsonio.load_json(args.matrix_x))
        y = jsonio.matrix_from_obj(jsonio.load_json(args.matrix_y))
        pol = jsonio.polarization_from_obj(jsonio.load_json(args.pol))
        if args.modes is not None and args.modes != pol.dim:
            raise DomainError(f"--modes {args.modes} disagrees with polarization dim {pol.dim}")
        space = build_car(pol.dim, pol)
        detail = schwinger_detail(space, x, y)
        payload = {
            "kind": "schwinger",
            "modes": pol.dim,
            "plus_dim": pol.plus_dim,
            "value": _complex_pair(detail["value"]),
            "residue": detail["residue"],
            "inputs": {"matrix_x": digest(x), "matrix_y": digest(y)},
        }
    elif args.what == "h2":
        _require(parser, args, ["groupoid", "modulus"])
        g = jsonio.groupoid_from_obj(jsonio.load_json(args.groupoid))
        grp = cohomology_group(g, 2, args.modulus)
        payload = {
            "kind": "h2",
            "degree": 2,
            "modulus": args.modulus,
            "orders": list(grp.orders),
            "order": grp.order,
            "trivial": grp.trivial,
            "inputs": {"groupoid": digest({"arrows": g.n_arrows, "objects": g.n_objects})},
        }
    else:  # glue
        _require(parser, args, ["data"])
        data, file_modulus, source = jsonio.cover_from_obj(jsonio.load_json(args.data))
        modulus = args.modulus if args.modulus is not None else file_modulus
        if modulus != file_modulus:
            raise DomainError(
                f"--modulus {modulus} disagrees with the cover file's modulus {file_modulus}"
            )
        ext = glue_local_data(data, modulus)
        reducer = class_reducer(ext.base, 2, modulus)
        cls = reducer.reduce(cocycle_vector(reducer.nerve, ext.cocycle))
        payload = {
            "kind": "glue",
            "modulus": modulus,
            "objects": ext.base.n_objects,
            "arrows": ext.base.n_arrows,
            "centrality": centrality_check(ext),
            "class": {"orders": list(cls.orders), "vector": list(cls.vector)},
            "inputs": {
                "data": digest(sorted((str(k), v) for k, v in given_entries(data.omega, data.omega_given)))
            },
        }
        if source is not None:
            src_cls = reducer.reduce(
                cocycle_vector(reducer.nerve, PhaseCocycle(modulus, source))
            )
            payload["source_class"] = {
                "orders": list(src_cls.orders),
                "vector": list(src_cls.vector),
            }
            payload["class_matches_source"] = payload["source_class"] == payload["class"]
    if args.format == "text":
        text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    else:
        text = json.dumps(payload, sort_keys=True)
    _emit(text, args.out)
    return 0


def _cmd_generate(args, parser) -> int:
    rng = generator(args.seed)
    if args.kind == "random-hermitian":
        obj = jsonio.matrix_to_obj(random_hermitian(rng, _checked_size(args.modes)))
    elif args.kind == "random-unital":
        obj = jsonio.matrix_to_obj(random_perturbation(rng, _checked_size(args.modes), 0.5))
    elif args.kind == "random-action-groupoid":
        _group, _points, _action, gpd = random_action_instance(rng, max_points=3, max_order=6)
        obj = jsonio.groupoid_to_obj(gpd)
    else:  # refined-cover
        if not 2 <= args.modulus <= 8:
            raise DomainError(f"refined-cover modulus must lie in [2, 8], got {args.modulus}")
        _gpd, group, points, action, cocycle, data, modulus = random_cover_instance(
            rng, max_points=2, max_order=4, max_modulus=args.modulus, n_charts=2
        )
        obj = jsonio.cover_to_obj(data, modulus, source_cocycle=cocycle)
    text = json.dumps(obj, sort_keys=True, indent=1)
    _emit(text, args.out)
    return 0


def _checked_size(n: int) -> int:
    if not 1 <= n <= 64:
        raise DomainError(f"matrix size must lie in [1, 64], got {n}")
    return n


def _cmd_report(args, parser) -> int:
    records = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise FormatError(f"{path}:{line_no}: not JSON: {exc}") from exc
                    if not isinstance(rec, dict) or "kind" not in rec:
                        raise FormatError(f"{path}:{line_no}: not a report record")
                    records.append(rec)
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
    summaries = [r for r in records if r["kind"] == "summary"]
    if not summaries:
        raise FormatError("no summary records found in the inputs")
    merged = {
        "kind": "merged",
        "suites": [
            {"suite": s.get("suite"), "started": s.get("started"), "pass": s.get("pass")}
            for s in summaries
        ],
        "cases": sum(int(s.get("cases", 0)) for s in summaries),
        "failures": sum(int(s.get("failures", 0)) for s in summaries),
        "max_violation": max(float(s.get("max_violation", 0.0)) for s in summaries),
        "pass": all(s.get("pass") for s in summaries),
    }
    if args.format == "text":
        rows = [
            f"{s.get('suite')}: {'PASS' if s.get('pass') else 'FAIL'} ({s.get('started')})"
            for s in summaries
        ]
        rows.append(
            f"merged: {merged['cases']} cases, {merged['failures']} failures, "
            f"{'PASS' if merged['pass'] else 'FAIL'}"
        )
        text = "\n".join(rows)
    else:
        lines = [json.dumps(r, sort_keys=True) for r in records]
        lines.append(json.dumps(merged, sort_keys=True))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if merged["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "compute":
            return _cmd_compute(args, parser)
        if args.command == "generate":
            return _cmd_generate(args, parser)
        return _cmd_report(args, parser)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except AnomlabError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
