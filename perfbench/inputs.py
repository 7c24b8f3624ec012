"""Seeded inputs for the benchmark, built without calling anomlab.

Everything here is the benchmark's own construction: group tables, action
tables, groupoid, cocycle and cover files in anomlab's JSON formats, and
matrices with a known spectrum. Each generator takes a numpy Generator, so a
workload seed fixes every input. Group inputs are drawn as random
relabelings of a fixed catalog: the answer stays known while no two ops see
the same table, which keeps input-keyed caches from showing a gain that
users would not get.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# ---------------------------------------------------------------------------
# groups as multiplication tables: table[i][j] is the index of i*j


def _closure(elements, op):
    index = {e: i for i, e in enumerate(elements)}
    return [[index[op(a, b)] for b in elements] for a in elements]


def _cyclic(n):
    elements = list(range(n))
    return _closure(elements, lambda a, b: (a + b) % n), elements, n


def _product(*orders):
    elements = list(itertools.product(*(range(n) for n in orders)))
    table = _closure(elements, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)))
    # projection to the last factor
    return table, [e[-1] for e in elements], orders[-1]


def _parity(p):
    return sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i]) % 2


def _permutations(generators):
    """Closure of permutation generators; composition applies p, then q."""
    ident = tuple(range(len(generators[0])))
    found = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[i]] for i in range(len(p)))
                if q not in found:
                    found.add(q)
                    nxt.append(q)
        frontier = nxt
    elements = sorted(found)
    table = _closure(elements, lambda p, q: tuple(q[p[i]] for i in range(len(p))))
    return table, [_parity(p) for p in elements], 2


CATALOG = {
    **{f"Z{n}": _cyclic(n) for n in range(2, 9)},
    "Z2xZ2": _product(2, 2),
    "Z2xZ4": _product(2, 4),
    "Z2xZ2xZ2": _product(2, 2, 2),
    "S3": _permutations([(1, 0, 2), (1, 2, 0)]),
    "D4": _permutations([(1, 2, 3, 0), (1, 0, 3, 2)]),
}
"""The twelve groups of anomlab's catalog, rebuilt here as (table, hom, k).

table[i][j] is the index of i*j and index 0 is the identity; hom maps each
element onto Z_k (k > 1), a homomorphism used to build carry cocycles.
"""


def relabel(name, rng):
    """Random relabeling of a catalog group: (table, hom, k, perm), old i -> perm[i]."""
    table, hom, k = CATALOG[name]
    n = len(table)
    perm = [int(v) for v in rng.permutation(n)]
    out = [[0] * n for _ in range(n)]
    new_hom = [0] * n
    for i in range(n):
        new_hom[perm[i]] = hom[i]
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out, new_hom, k, perm


def identity_of(table):
    n = len(table)
    return next(e for e in range(n) if all(table[e][i] == i for i in range(n)))


def subgroups(table):
    """All subgroups as sorted tuples of element indices (brute force, n <= 8)."""
    n = len(table)
    e = identity_of(table)
    out = []
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        if e in members and all((mask >> table[i][j]) & 1 for i in members for j in members):
            out.append(tuple(members))
    return out


def coset_action(table, sub):
    """Right action of the group on the right cosets of `sub`: (n_points, action)."""
    n = len(table)
    cosets = sorted({tuple(sorted(table[h][x] for h in sub)) for x in range(n)})
    where = {x: i for i, c in enumerate(cosets) for x in c}
    action = [[where[table[c[0]][g]] for g in range(n)] for c in cosets]
    return len(cosets), action


def half_coset_action(table, rng):
    """Coset action of a random index-2 subgroup: two points, one orbit."""
    halves = [s for s in subgroups(table) if 2 * len(s) == len(table)]
    return coset_action(table, halves[int(rng.integers(len(halves)))])


def first_half_coset_action(name, table, perm):
    """Coset action of the catalog group's first index-2 subgroup, carried to a relabeling.

    `table` and `perm` come from relabel(name, ...). The subgroup, and so
    the stabilizer, is the same whatever the relabeling.
    """
    base = CATALOG[name][0]
    sub = next(s for s in subgroups(base) if 2 * len(s) == len(base))
    return coset_action(table, tuple(sorted(perm[x] for x in sub)))


# ---------------------------------------------------------------------------
# groupoid, cocycle and cover files in anomlab's JSON formats


def action_groupoid_obj(table, n_points, action):
    """Groupoid JSON of a right action; arrow (a, g) has id a*|G| + g.

    Arrow (a, g) runs from a to a.g; for y = (a, g1) and x = (a.g1, g2) the
    composite x*y is (a, g1 g2), anomlab's traversal convention.
    """
    m = len(table)
    arrows = [
        {"id": a * m + g, "src": a, "tgt": action[a][g]} for a in range(n_points) for g in range(m)
    ]
    compose = [
        [action[a][g1] * m + g2, a * m + g1, a * m + table[g1][g2]]
        for a in range(n_points)
        for g1 in range(m)
        for g2 in range(m)
    ]
    return {"objects": list(range(n_points)), "arrows": arrows, "compose": compose}


def composition(table, n_points, action):
    """{(x, y): xy} for the action groupoid, as in action_groupoid_obj."""
    return {(x, y): xy for x, y, xy in action_groupoid_obj(table, n_points, action)["compose"]}


def trivial_action(table, n_points):
    return [[a] * len(table) for a in range(n_points)]


def carry_cocycle(table, hom, k, rng, modulus):
    """Group 2-cocycle table: a random multiple of the carry cocycle of hom.

    With hom a homomorphism onto Z_k lifted to {0..k-1}, (hom(f) + hom(g) -
    hom(fg)) / k is an integer 2-cocycle; it is scaled by t and taken mod N.
    """
    n = len(table)
    t = int(rng.integers(1, modulus))
    return [[t * ((hom[f] + hom[g] - hom[table[f][g]]) // k) % modulus for g in range(n)] for f in range(n)]


def groupoid_cocycle(table, hom, k, n_points, action, rng, modulus):
    """Valid Z_N cocycle on the action groupoid: carry cocycle plus a coboundary.

    Returns {(x, y): exponent}. The coboundary of a random 1-cochain b on arrows is
    b(x) + b(y) - b(xy), a cocycle in any composition convention.
    """
    m = len(table)
    base = carry_cocycle(table, hom, k, rng, modulus)
    b = [int(v) for v in rng.integers(modulus, size=n_points * m)]
    values = {}
    for a in range(n_points):
        for g1 in range(m):
            y = a * m + g1
            x = action[a][g1] * m
            for g2 in range(m):
                xy = a * m + table[g1][g2]
                values[(x + g2, y)] = (base[g1][g2] + b[x + g2] + b[y] - b[xy]) % modulus
    return values


def cocycle_obj(values, modulus):
    return {"modulus": modulus, "values": [[x, y, e] for (x, y), e in sorted(values.items())]}


def cover_obj(table, hom, k, n_points, action, rng, modulus, n_charts=2):
    """Cover JSON refined from a valid global cocycle, so descent holds.

    Each element joins each chart with probability 1/2 (at least one chart);
    random chart phases chi split the global cocycle c into transitions
    phi = chi_a - chi_b and local cocycles omega = c + chi_a(f) + chi_b(g) - chi_c(fg).
    """
    m = len(table)
    glob = groupoid_cocycle(table, hom, k, n_points, action, rng, modulus)
    charts = [[] for _ in range(n_charts)]
    for g in range(m):
        owners = [i for i in range(n_charts) if rng.random() < 0.5] or [int(rng.integers(n_charts))]
        for i in owners:
            charts[i].append(g)
    charts = [c for c in charts if c]
    chi = {(al, a, g): int(rng.integers(modulus)) for al, c in enumerate(charts) for g in c for a in range(n_points)}
    transitions = [
        {"a": al, "b": be, "g": g, "x": a, "k": (chi[(al, a, g)] - chi[(be, a, g)]) % modulus}
        for al in range(len(charts))
        for be in range(len(charts))
        if al != be
        for g in sorted(set(charts[al]) & set(charts[be]))
        for a in range(n_points)
    ]
    local = []
    for al, cf in enumerate(charts):
        for f in cf:
            for be, cg in enumerate(charts):
                for g in cg:
                    fg = table[f][g]
                    for ga, ch in enumerate(charts):
                        if fg not in ch:
                            continue
                        for a in range(n_points):
                            c = glob[(action[a][f] * m + g, a * m + f)]
                            e = (c + chi[(al, a, f)] + chi[(be, action[a][f], g)] - chi[(ga, a, fg)]) % modulus
                            local.append({"a": al, "b": be, "c": ga, "f": f, "g": g, "x": a, "k": e})
    return {
        "modulus": modulus,
        "group": {"elements": list(range(m)), "mult": [list(r) for r in table]},
        "points": list(range(n_points)),
        "action": [list(r) for r in action],
        "charts": charts,
        "transitions": transitions,
        "local_cocycles": local,
        "source_cocycle": [[x, y, e] for (x, y), e in sorted(glob.items())],
    }


# ---------------------------------------------------------------------------
# matrices


def unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def anti_hermitian(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return (z - z.conj().T) / 2.0


def complex_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def spectral_pair(rng, n, lo, hi):
    """(A, B, lam, mu): A = Q diag(lam) Q^*, B = Q diag(mu) Q^*, spectra in [lo, hi]."""
    q = unitary(rng, n)
    lam = rng.uniform(lo, hi, n)
    mu = rng.uniform(lo, hi, n)
    qh = q.conj().T
    return (q * lam) @ qh, (q * mu) @ qh, lam, mu


# ---------------------------------------------------------------------------
# inputs of the kinds kept although the program gets them wrong.  They come
# from a stream fixed per round index, not from the workload seed, so every
# run fails on the same share of its ops.

FAULT_STREAM = 0x5EED_FA17


def fault_rng(round_index, tag):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([FAULT_STREAM, tag, round_index])))


def detp_wide(round_index):
    """Two det_p inputs, p = 2 and p = 4, with spectrum in [50, 60].

    At even p the exact log det_p is finite and far below the smallest
    double, and det(1 + R_p(A)) loses it to cancellation.
    """
    rng = fault_rng(round_index, 1)
    out = []
    for p in (2, 4):
        n = int(rng.integers(3, 9))
        q = unitary(rng, n)
        lam = rng.uniform(50.0, 60.0, n)
        out.append(((q * lam) @ q.conj().T, p, lam))
    return out


NAMED_SNF = [[-5, 3856983384684412], [4386803920442610, -1]]
"""Wraps in the int64 elimination: anomlab returns [1, 505434335291941683]."""


def _wrap64(v):
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


def snf_wide(round_index):
    """A 2x2 and a 3x3 integer matrix that mix entries near 2^57 with small ones.

    [[-5, a], [b, -1]] pivots on the -1 and forms a*b - 5 in int64. a and b
    are drawn until that product wraps to a value w below 2^58, so no later
    overflow check can see it. The 3x3 case appends a small diagonal entry c
    that divides w, so the remaining steps only swap. Round 0 uses the named
    2x2 matrix.
    """
    rng = fault_rng(round_index, 2)
    small = int(rng.integers(2, 6))
    found = []
    for c in (1, small):
        while True:
            a = int(rng.integers(1 << 52, 1 << 57))
            b = int(rng.integers(1 << 52, 1 << 57))
            w = _wrap64(a * b - 5)
            if a * b >= 1 << 63 and 0 < abs(w) < 1 << 58 and w % c == 0:
                found.append((a, b))
                break
    (a, b), (c, d) = found
    two = NAMED_SNF if round_index == 0 else [[-5, a], [b, -1]]
    three = [[-5, c, 0], [d, -1, 0], [0, 0, small]]
    return [two, three]
