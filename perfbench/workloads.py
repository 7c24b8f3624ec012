"""The two workloads: their inputs per round, their ops and their checks.

Op counts per round are chosen so that, sorted by time, p50 and p90 of a
run fall well inside one op kind (see README.md). Every round draws fresh
inputs from the workload seed and the round index; warm-up inputs come from
a stream of their own, so no timed op sees an input seen before in the run.

Ops reach anomlab through module attributes at call time (hence the small
lambdas), so the wrappers a traced run binds into those modules see them.

Outputs are checked after the timed phase, except the large ones (dGamma
at m = 12, Bogoliubov implementers, extension tables): those are compared
with the oracle right after their op, outside its timing, so the memory a
run holds does not grow with its number of rounds.
"""

from __future__ import annotations

import json
import os
from functools import partial

import numpy as np

import inputs
import oracles
from harness import Op, seeded
from anomlab import cli, fock, grassmann, jsonio, regdet, snf, suites
from anomlab import groupoid as gpd
from anomlab.linalg import Polarization

LOG_TOL = 1e-8
FOCK_TOL = 1e-9


def warm_up(rng, scratch):
    """One small call into each layer, on inputs no timed op uses."""
    space = fock.build_car(3, Polarization(3, 1))
    x, y = inputs.anti_hermitian(rng, 3), inputs.anti_hermitian(rng, 3)
    fock.schwinger_detail(space, x, y)
    fock.bogoliubov_implement(space, x)
    grassmann.canonical_section(grassmann.standard_frame(Polarization(3, 1)), 2)
    a, b, _, _ = inputs.spectral_pair(rng, 8, -0.5, 0.5)
    regdet.omega_p(a, b, 3)
    table, _, _, _ = inputs.relabel("Z4", rng)
    path = os.path.join(scratch, "warm-groupoid.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs.action_groupoid_obj(table, 1, inputs.trivial_action(table, 1)), fh)
    cli.main(["compute", "h2", "--groupoid", path, "--modulus", "2", "--out", path + ".out"])
    snf.smith_normal_form([[2, 4], [6, 8]])


# ---------------------------------------------------------------------------


GRASSMANN_CASES = 400
"""Cases of the grassmann suite, the same for every seed."""

PASS_STRIDE = 1_000_003


def _suite_ok(report):
    cases = report.cases
    return len(cases) == GRASSMANN_CASES and all(c.passed and np.isfinite(c.violation) for c in cases)


# ---------------------------------------------------------------------------


def _close(value, exact, tol):
    return abs(complex(value) - complex(exact)) <= tol * max(1.0, abs(complex(exact)))


class DenseLadder:
    """Fock and det_p kernels at sizes the battery never reaches, and the grassmann suite.

    The grassmann suite run of round r is `anomlab verify --suite grassmann
    --seed <seed + r * PASS_STRIDE>`; it carries suites.run_suite and the
    grassmann layer, which no other op reaches.
    """

    name = "dense-ladder"
    min_rounds = 2  # 102 ops
    known_faults = ("detp-wide",)
    MIX = {
        "schwinger-m6": 2,
        "schwinger-m8": 3,
        "schwinger-m10": 2,
        "d_gamma-m12": 6,
        "bogoliubov-m8": 2,
        "det_p-n32": 6,
        "det_p-n128": 7,
        "omega_p-n128": 20,
        "suite-grassmann": 1,
    }
    kind_metrics = [
        ("schwinger-m6", "fock.schwinger_m6_ms", "ms"),
        ("schwinger-m8", "fock.schwinger_m8_ms", "ms"),
        ("schwinger-m10", "fock.schwinger_m10_ms", "ms"),
        ("d_gamma-m12", "fock.d_gamma_m12_ms", "ms"),
        ("bogoliubov-m8", "fock.bogoliubov_m8_ms", "ms"),
        ("det_p-n32", "regdet.det_p_n32_ms", "ms"),
        ("det_p-n128", "regdet.det_p_n128_ms", "ms"),
        ("omega_p-n128", "regdet.omega_p_n128_ms", "ms"),
        ("detp-wide", "regdet.det_p_wide_ms", "ms"),
        ("suite-grassmann", "suites.grassmann_s", "s"),
    ]

    def setup(self, seed, scratch):
        self.seed = seed
        # the plus dimension is fixed, not seeded, so an op's work does not depend on the seed
        self.spaces = {}
        for m in (6, 8, 10, 12):
            k = m // 2
            self.spaces[m] = (fock.build_car(m, Polarization(m, k)), k)
        self.support = oracles.d_gamma_support(12)
        self.creators = oracles.creators(8)
        warm_up(seeded(seed, 0xA1), scratch)

    def _schwinger(self, rng, m):
        space, k = self.spaces[m]
        x, y = inputs.anti_hermitian(rng, m), inputs.anti_hermitian(rng, m)
        exact = oracles.schwinger_closed_form(x, y, k)
        return Op(
            f"schwinger-m{m}",
            partial(lambda s, a, b: fock.schwinger_detail(s, a, b), space, x, y),
            lambda out: _close(out["value"], exact, FOCK_TOL) and out["residue"] <= FOCK_TOL,
        )

    def _d_gamma(self, rng):
        space, k = self.spaces[12]
        x = inputs.complex_matrix(rng, 12)
        rows, cols = self.support[0], self.support[1]

        def keep(out):
            # a 4096 x 4096 output: compare it now, outside the op's timing
            mat = out.matrix
            exact = oracles.d_gamma_values(self.support, x, k)
            norm2, exact2 = float(np.vdot(mat, mat).real), float(np.vdot(exact, exact).real)
            return float(np.max(np.abs(mat[rows, cols] - exact))), abs(norm2 - exact2) / exact2

        return Op(
            "d_gamma-m12",
            partial(lambda s, a: fock.d_gamma(s, a), space, x),
            lambda kept: kept[0] <= FOCK_TOL and kept[1] <= FOCK_TOL,
            keep,
        )

    def _bogoliubov(self, rng):
        space, _ = self.spaces[8]
        x = inputs.anti_hermitian(rng, 8)
        vectors = [inputs.complex_matrix(rng, 8)[0] for _ in range(2)]
        return Op(
            "bogoliubov-m8",
            partial(lambda s, a: fock.bogoliubov_implement(s, a), space, x),
            lambda gap: gap <= 1e-8,
            lambda out: oracles.bogoliubov_gap(out.matrix, x, vectors, self.creators),
        )

    def round(self, r):
        rng = seeded(self.seed, 0xD5, r + 1)
        ops = []
        for m in (6, 8, 10):
            ops += [self._schwinger(rng, m) for _ in range(self.MIX[f"schwinger-m{m}"])]
        ops += [self._d_gamma(rng) for _ in range(self.MIX["d_gamma-m12"])]
        ops += [self._bogoliubov(rng) for _ in range(self.MIX["bogoliubov-m8"])]
        for kind, n in (("det_p-n32", 32), ("det_p-n128", 128)):
            for i in range(self.MIX[kind]):
                a, _, lam, _ = inputs.spectral_pair(rng, n, -0.5, 0.5)
                p = 2 + i % 3
                exact = oracles.log_det_p(lam, p)
                ops.append(Op(
                    kind,
                    partial(lambda a, p: regdet.det_p(a, p), a, p),
                    partial(lambda e, out: oracles.log_gap(out.log_value, e) <= LOG_TOL, exact),
                ))
        for i in range(self.MIX["omega_p-n128"]):
            a, b, lam, mu = inputs.spectral_pair(rng, 128, -0.5, 0.5)
            p = 2 + i % 3
            exact = oracles.log_omega_p(lam, mu, p)
            ops.append(Op(
                "omega_p-n128",
                partial(lambda a, b, p: regdet.omega_p(a, b, p), a, b, p),
                partial(lambda e, out: oracles.log_gap(oracles.safe_log(out), e) <= LOG_TOL, exact),
            ))
        for a, p, lam in inputs.detp_wide(r):
            exact = oracles.log_det_p(lam, p)
            ops.append(Op(
                "detp-wide",
                partial(lambda a, p: regdet.det_p(a, p), a, p),
                partial(lambda e, out: oracles.log_gap(out.log_value, e) <= 1e-6, exact),
            ))
        pass_seed = self.seed + PASS_STRIDE * r
        ops.append(Op("suite-grassmann", partial(lambda s: suites.run_suite("grassmann", s), pass_seed), _suite_ok))
        return ops


# ---------------------------------------------------------------------------


ORDER_8 = ("Z8", "Z2xZ4", "Z2xZ2xZ2", "D4")
EXTEND_MODULUS = 8


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class ExactLadder:
    """Nerve, SNF and groupoid kernels beyond the battery, partly through the CLI."""

    name = "exact-ladder"
    min_rounds = 4  # 124 ops, so percentiles rest on at least 100
    known_faults = ("snf-wide",)
    kind_metrics = [
        ("h2-point", "nerve.h2_point_ms", "ms"),
        ("h2-coset", "nerve.h2_coset_ms", "ms"),
        ("h2-translation", "nerve.h2_translation_ms", "ms"),
        ("extend-n8", "groupoid.extend_n8_ms", "ms"),
        ("glue", "groupoid.glue_ms", "ms"),
        ("snf-wide", "snf.wide_ms", "ms"),
    ]

    def setup(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.files = 0
        warm_up(seeded(seed, 0xA1), scratch)

    def _write(self, obj):
        self.files += 1
        path = os.path.join(self.scratch, f"in-{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _h2(self, kind, table, n_points, action, modulus):
        path = self._write(inputs.action_groupoid_obj(table, n_points, action))
        out = path + ".out"
        exact = list(oracles.action_h2(table, n_points, action, modulus))

        def check(code):
            return code == 0 and _read(out)["orders"] == exact

        argv = ["compute", "h2", "--groupoid", path, "--modulus", str(modulus), "--out", out]
        return Op(kind, partial(lambda a: cli.main(a), argv), check)

    def _glue(self, rng, name, n_points, transitive, modulus):
        table, hom, k, _ = inputs.relabel(name, rng)
        action = inputs.trivial_action(table, n_points)
        if transitive:
            n_points, action = inputs.half_coset_action(table, rng)
        path = self._write(inputs.cover_obj(table, hom, k, n_points, action, rng, modulus))
        out = path + ".out"
        exact = list(oracles.action_h2(table, n_points, action, modulus))

        def check(code):
            if code != 0:
                return False
            got = _read(out)
            return got["class"]["orders"] == exact and got["class_matches_source"] is True and got["centrality"] == 0

        argv = ["compute", "glue", "--data", path, "--out", out]
        return Op("glue", partial(lambda a: cli.main(a), argv), check)

    def _extend(self, rng, name):
        table, hom, k, _ = inputs.relabel(name, rng)
        action = inputs.trivial_action(table, 1)
        modulus = EXTEND_MODULUS
        values = inputs.groupoid_cocycle(table, hom, k, 1, action, rng, modulus)
        base = jsonio.groupoid_from_obj(inputs.action_groupoid_obj(table, 1, action))
        cocycle = jsonio.cocycle_from_obj(inputs.cocycle_obj(values, modulus), base)
        compose = inputs.composition(table, 1, action)

        def keep(out):
            # the total groupoid has 4096 composites: compare them now, outside the op's timing
            ext, centrality = out
            total = ext.total.compose
            same = all(
                total[(x * modulus + s, y * modulus + t)] == xy * modulus + (s + t + values[(x, y)]) % modulus
                for (x, y), xy in compose.items()
                for s in range(modulus)
                for t in range(modulus)
            )
            return same and centrality == 0

        def call(g, c):
            ext = gpd.central_extend(g, c)
            return ext, gpd.centrality_check(ext)

        return Op("extend-n8", partial(call, base, cocycle), bool, keep)

    def round(self, r):
        """31 ops in the same slots every round; labels and cocycles vary.

        A slot's group, modulus and action are fixed, so its op does the
        same work in every round. By time: 2 snf-wide and the 8 smaller
        point groupoids and 2 small glues (under 40 ms), then 8 order-8
        point groupoids and 2 order-8 glues (50-100 ms: p50), 4 extensions,
        4 coset H^2 (p90), 1 translation H^2.
        """
        rng = seeded(self.seed, 0xE7, r + 1)
        ops = []
        for i, name in enumerate(sorted(inputs.CATALOG)):
            table, _, _, _ = inputs.relabel(name, rng)
            action = inputs.trivial_action(table, 1)
            ops.append(self._h2("h2-point", table, 1, action, (2, 4, 8)[i % 3]))
        for i, name in enumerate(ORDER_8):
            table, _, _, _ = inputs.relabel(name, rng)
            action = inputs.trivial_action(table, 1)
            ops.append(self._h2("h2-point", table, 1, action, (2, 4, 8)[(i + 1) % 3]))
        for i, name in enumerate(ORDER_8):
            table, _, _, perm = inputs.relabel(name, rng)
            n_points, action = inputs.first_half_coset_action(name, table, perm)
            ops.append(self._h2("h2-coset", table, n_points, action, (2, 4)[i % 2]))
        table, _, _, _ = inputs.relabel("S3", rng)
        ops.append(self._h2("h2-translation", table, len(table), [list(row) for row in table], 3))
        ops += [self._extend(rng, name) for name in ORDER_8]
        for j in range(2):
            ops.append(self._glue(rng, ("Z2xZ4", "D4")[j], 1, False, 2 + 2 * j))
            ops.append(self._glue(rng, ("Z4", "Z2xZ2")[j], 2, j == 1, 2 + 2 * j))
        for mat in inputs.snf_wide(r):
            exact = oracles.snf_factors(mat)
            ops.append(Op(
                "snf-wide",
                partial(lambda m: snf.smith_normal_form(m), mat),
                partial(lambda e, out: [int(f) for f in out.factors if f != 0] == e, exact),
            ))
        return ops


WORKLOADS = {w.name: w for w in (DenseLadder(), ExactLadder())}
