"""Finite groupoids, phase cocycles, central extensions, and chart gluing."""

import collections
import copy
import itertools
import re

import numpy as np
import pytest

from anomlab import groupoid
from anomlab.errors import (
    ActionAxiomError,
    CapacityError,
    CocycleError,
    DescentError,
    DomainError,
    ExtensionError,
    GroupoidAxiomError,
    MissingValueError,
    UnsupportedCoefficientsError,
)
from anomlab.groupoid import (
    FiniteGroup,
    FiniteGroupoid,
    LocalExtensionData,
    PhaseCocycle,
    action_groupoid,
    axioms_check,
    central_extend,
    centrality_check,
    check_right_action,
    coboundary_twist,
    cocycle_check,
    glue_local_data,
    group_from_table,
    groupoid_from_compose,
    validate_local_data,
    zero_cocycle,
)
from anomlab.instances import (
    cyclic_group,
    generator,
    group_catalog,
    point_groupoid,
    random_cover_instance,
    random_groupoid_cocycle,
    random_right_action,
    translation_groupoid,
)
from anomlab.nerve import extension_class


def _z2():
    return FiniteGroup(
        elements=["e", "s"], mult=[[0, 1], [1, 0]], identity=0, inverse=[0, 1]
    )


def _swap_groupoid():
    # Z2 swapping two points
    return action_groupoid(["p", "q"], _z2(), [[0, 1], [1, 0]])


def test_action_groupoid_structure():
    g = _swap_groupoid()
    assert g.n_objects == 2
    assert g.n_arrows == 4
    assert g.source.tolist() == [0, 0, 1, 1]
    assert g.target.tolist() == [0, 1, 1, 0]
    assert g.identity.tolist() == [0, 2]
    # arrow 1 is (p, s): p.s = q, so its inverse starts at q
    assert g.inverse[1] == 3
    assert axioms_check(g) == []
    assert len(list(g.composable_pairs())) == 8
    defined = g.compose >= 0
    assert int(np.sum(defined[:, :, None] & defined[None, :, :])) == 16  # composable triples


def test_composable_pairs_source_target_convention():
    g = _swap_groupoid()
    for x, y in g.composable_pairs():
        assert g.source[x] == g.target[y]
        xy = g.compose[(x, y)]
        assert g.source[xy] == g.source[y]
        assert g.target[xy] == g.target[x]


def test_axioms_check_reports_mutations():
    g = _swap_groupoid()
    broken = groupoid_from_compose(
        g.objects, g.arrows, g.source, g.target, g.compose.copy()
    )
    assert axioms_check(broken) == []
    broken.inverse[1] = 1
    assert axioms_check(broken)


def _loop_axioms_check(g):
    """The groupoid axioms read straight off the tables, one plain loop each, in axioms_check's order."""
    n_obj, n_arr = g.n_objects, g.n_arrows
    src, tgt, e, inv = (t.tolist() for t in (g.source, g.target, g.identity, g.inverse))
    comp = g.compose.tolist()
    bad = []
    for x in range(n_arr):
        if not (0 <= src[x] < n_obj and 0 <= tgt[x] < n_obj):
            bad.append(f"arrow {x} has out-of-range endpoints")
        if not 0 <= inv[x] < n_arr:
            bad.append(f"arrow {x} has out-of-range inverse")
    for o in range(n_obj):
        if not 0 <= e[o] < n_arr:
            bad.append(f"object {o} has out-of-range identity")
        elif src[e[o]] != o or tgt[e[o]] != o:
            bad.append(f"identity of object {o} is not an endomorphism of it")
    if bad:
        return bad
    for x in range(n_arr):
        for y in range(n_arr):
            if (comp[x][y] >= 0) != (src[x] == tgt[y]):  # defined exactly on composable pairs
                verb = "missing" if src[x] == tgt[y] else "spurious"
                bad.append(f"compose entry {verb} for pair ({x}, {y})")
    if bad:
        return bad
    for x in range(n_arr):
        for y in range(n_arr):
            xy = comp[x][y]
            if xy >= n_arr:
                bad.append(f"product of ({x}, {y}) out of range")
            elif xy >= 0 and (src[xy] != src[y] or tgt[xy] != tgt[x]):
                bad.append(f"product of ({x}, {y}) has wrong endpoints")
    if bad:
        return bad
    into = [[z for z in range(n_arr) if tgt[z] == o] for o in range(n_obj)]  # ascending
    for x in range(n_arr):
        for y in into[src[x]]:
            row_xy, row_x = comp[comp[x][y]], comp[x]
            for z in into[src[y]]:
                if row_xy[z] != row_x[comp[y][z]]:
                    bad.append(f"associativity fails on ({x}, {y}, {z})")
    for x in range(n_arr):
        if comp[e[tgt[x]]][x] != x:
            bad.append(f"left identity fails on arrow {x}")
        if comp[x][e[src[x]]] != x:
            bad.append(f"right identity fails on arrow {x}")
        if src[inv[x]] != tgt[x] or tgt[inv[x]] != src[x]:
            bad.append(f"inverse of arrow {x} has wrong endpoints")
            continue
        if comp[x][inv[x]] != e[tgt[x]]:
            bad.append(f"x * x^-1 is not the identity for arrow {x}")
        if comp[inv[x]][x] != e[src[x]]:
            bad.append(f"x^-1 * x is not the identity for arrow {x}")
    return bad


def test_axioms_check_agrees_with_definition(monkeypatch):
    """Same diagnostics, in the same order, as the loop on sound tables and seeded mutants.

    Both block sizes are read. At ASSOCIATIVITY_BLOCK = 1 every table of more than one
    composable pair goes through the generator certificate, and a failing one through
    the walk, one composable pair per block.
    """
    rng = generator(211)
    catalog = group_catalog()
    sound = [point_groupoid(grp) for grp in catalog.values()]
    sound += [translation_groupoid(grp) for grp in catalog.values()]
    for name, modulus in (("Z3", 3), ("S3", 4), ("D4", 8)):
        base = point_groupoid(catalog[name])
        c = random_groupoid_cocycle(rng, base, catalog[name], ["*"], [[0] * catalog[name].order], modulus)
        sound.append(central_extend(base, c).total)
    cases = [(g, []) for g in sound]
    assert all(_loop_axioms_check(g) == [] for g in sound)
    # arrow 0, the declared identity, is the one arrow that fails as a middle factor, and {1, 2}
    # is closed: a certificate that took identities as checked would pass this table
    magma = FiniteGroupoid(["*"], [0, 1, 2], [0] * 3, [0] * 3, [0], [0, 1, 2], [[0, 0, 0], [1, 1, 1], [2, 1, 1]])
    cases.append((magma, _loop_axioms_check(magma)))
    assert "associativity fails on (2, 0, 1)" in cases[-1][1]
    small = [_swap_groupoid(), point_groupoid(catalog["S3"]), translation_groupoid(catalog["Z3"]), sound[-3]]
    for g in small:
        for table in ("compose", "inverse", "identity"):
            for _ in range(20):
                broken = groupoid_from_compose(g.objects, g.arrows, g.source, g.target, g.compose.copy())
                flat = getattr(broken, table).reshape(-1)
                i = int(rng.integers(flat.size))
                flat[i] = (flat[i] + 1 + int(rng.integers(g.n_arrows + 1))) % (g.n_arrows + 2) - 1
                cases.append((broken, _loop_axioms_check(broken)))
    flagged = [expected for _, expected in cases if expected]
    assert len(cases) - len(sound) >= 200 and len(flagged) > 100
    assert any(len(expected) > 1 and "associativity" in expected[0] for expected in flagged)
    for block in (groupoid.ASSOCIATIVITY_BLOCK, 1):
        monkeypatch.setattr(groupoid, "ASSOCIATIVITY_BLOCK", block)
        for g, expected in cases:
            assert axioms_check(g) == expected


def _order8_totals():
    """The N = 8 totals of the order-8 point groupoids (64 arrows) and a 3-object cover total."""
    rng = generator(523)
    catalog = group_catalog()
    totals = []
    for name in ("Z8", "Z2xZ4", "Z2xZ2xZ2", "D4"):
        base = point_groupoid(catalog[name])
        c = random_groupoid_cocycle(rng, base, catalog[name], ["*"], [[0] * 8], 8)
        totals.append(central_extend(base, c).total)
    gpd, _, _, _, c, _, _ = random_cover_instance(generator(11), max_order=8, max_modulus=8)
    totals.append(central_extend(gpd, c).total)
    assert [g.n_objects for g in totals] == [1, 1, 1, 1, 3]
    return totals


def _mutant(rng, g):
    """g with one seeded entry of compose, identity or inverse changed.

    Half of the mutants move one product to another arrow with its endpoints,
    so that only associativity and the laws after it can fail; a third of
    those change a product with an identity arrow, x*e or e*x, and nothing
    else. The rest set any compose, identity or inverse entry to any value
    in [-1, A].
    """
    broken = copy.deepcopy(g)
    what = int(rng.integers(6))
    if what < 3:
        if what == 0:
            e_obj = int(rng.integers(g.n_objects))
            e = g.identity[e_obj]
            if rng.integers(2):
                x, y = int(rng.choice(np.flatnonzero(g.source == e_obj))), e
            else:
                x, y = e, int(rng.choice(np.flatnonzero(g.target == e_obj)))
        else:
            x, y = g.composable_pairs()[int(rng.integers(len(g.composable_pairs())))]
        xy = g.compose[x, y]
        same_ends = np.flatnonzero((g.source == g.source[xy]) & (g.target == g.target[xy]) & (np.arange(g.n_arrows) != xy))
        broken.compose[x, y] = rng.choice(same_ends)
    elif what == 3:
        broken.compose[int(rng.integers(g.n_arrows)), int(rng.integers(g.n_arrows))] = int(rng.integers(-1, g.n_arrows + 1))
    else:
        flat = (broken.identity if what == 4 else broken.inverse).reshape(-1)
        flat[int(rng.integers(flat.size))] = int(rng.integers(-1, g.n_arrows + 1))
    return broken


def test_axioms_check_agrees_with_definition_on_large_totals():
    """Past one walk block, the generator certificate and the walk give the loop's diagnostics.

    Mutants of the 64-arrow N = 8 totals and of a 3-object total, at the default block size.
    """
    rng = generator(617)
    totals = _order8_totals()
    assert all(len(g.composable_pairs()) > groupoid._pairs_per_block(g.n_arrows) for g in totals)
    flagged = assoc = 0
    for g in totals:
        assert axioms_check(g) == _loop_axioms_check(g) == []
        for _ in range(40):
            broken = _mutant(rng, g)
            expected = _loop_axioms_check(broken)
            assert axioms_check(broken) == expected
            flagged += bool(expected)
            assoc += any("associativity" in d for d in expected)
    assert flagged > 150 and assoc > 60


def test_axioms_check_decides_sound_totals_without_the_walk(monkeypatch):
    """Sound totals, of one object or three, never enter _pair_blocks; a broken one lists every failing triple."""
    totals = _order8_totals()
    walks = []
    pair_blocks = groupoid._pair_blocks
    monkeypatch.setattr(groupoid, "_pair_blocks", lambda *a: walks.append(1) or pair_blocks(*a))
    assert all(axioms_check(g) == [] for g in totals) and walks == []
    broken = copy.deepcopy(totals[3])
    broken.compose[[5, 6]] = broken.compose[[6, 5]]
    expected = _loop_axioms_check(broken)
    assert sum("associativity" in d for d in expected) > 100
    assert axioms_check(broken) == expected and walks == [1]


def _loop_cocycle_check(g, c):
    """Reference cocycle check: c(x, y) c(xy, z) against c(x, yz) c(y, z), gathered triple by triple.

    The products run as one numpy expression, so they round as cocycle_check's
    do; a nan or inf deviation reads as inf.
    """
    comp = g.compose.tolist()
    value = dict(zip(map(tuple, c.pairs.tolist()), c.values.tolist()))
    terms = []
    for x, y, z in itertools.product(range(g.n_arrows), repeat=3):
        xy, yz = comp[x][y], comp[y][z]
        if xy >= 0 and yz >= 0:
            terms.append((value[x, y], value[xy, z], value[x, yz], value[y, z]))
    a, b, d, e = np.array(terms, dtype=c.values.dtype).reshape(-1, 4).T
    if c.continuous:
        with np.errstate(invalid="ignore", over="ignore"):
            dev = np.abs(a * b - d * e)
        return float(np.nan_to_num(dev, nan=np.inf, posinf=np.inf).max(initial=0.0))
    shifts = {int(k) for k in (a + b - d - e) % c.modulus if k}
    return max((abs(np.exp(2j * np.pi * k / c.modulus) - 1.0) for k in shifts), default=0.0)


def test_cocycle_check_matches_loop(monkeypatch):
    """Same float as the triple loop at both block sizes, on corrupted mu_N and continuous cocycles.

    Continuous values include nan, inf and 1e308, whose products overflow.
    """
    rng = generator(709)
    catalog = [grp for _, grp in sorted(group_catalog().items()) if grp.order <= 4]
    specials = (complex("nan"), complex("inf"), complex(0, float("inf")), complex(1e308, 0), complex(1e308, -1e308))
    cases = []
    for trial in range(300):
        group = catalog[trial % len(catalog)]
        points, action = random_right_action(rng, group, 3)
        g = action_groupoid(points, group, action)
        modulus = int(rng.integers(2, 9))
        c = random_groupoid_cocycle(rng, g, group, points, action, modulus)
        values = c.values.copy()
        if trial % 2:  # continuous: the phases of c twisted by generic phases, then some special values
            phases = PhaseCocycle(None, np.exp(2j * np.pi * values / modulus), c.pairs)
            values = coboundary_twist(g, phases, np.exp(2j * np.pi * rng.random(g.n_arrows))).values
            for _ in range(int(rng.integers(3))):
                values[int(rng.integers(len(values)))] = specials[int(rng.integers(len(specials)))]
            modulus = None
        else:
            for _ in range(int(rng.integers(3))):
                values[int(rng.integers(len(values)))] = int(rng.integers(modulus))
        c = PhaseCocycle(modulus, values, c.pairs)
        cases.append((g, c, _loop_cocycle_check(g, c)))
    worst = [expected for _, _, expected in cases]
    assert 0.0 in worst and np.inf in worst and any(0.0 < w < np.inf for w in worst)
    for block in (groupoid.ASSOCIATIVITY_BLOCK, 1):
        monkeypatch.setattr(groupoid, "ASSOCIATIVITY_BLOCK", block)
        for g, c, expected in cases:
            assert cocycle_check(g, c) == expected


def test_group_from_table():
    z2 = group_from_table(["e", "s"], [[0, 1], [1, 0]])
    assert z2.elements == ("e", "s") and z2.identity == 0 and z2.inverse.tolist() == [0, 1]
    assert z2.mult.dtype == z2.inverse.dtype == np.int64 and type(z2.identity) is int
    with pytest.raises(GroupoidAxiomError, match="^arrow 1 has 0 inverse candidates$"):
        group_from_table(["e", "s"], [[0, 1], [1, 1]])


def _loop_group_axioms_check(g):
    """Reference group check: the element loop, then the first failing triple."""
    bad = []
    n = g.order
    for i in range(n):
        if g.mult[g.identity][i] != i or g.mult[i][g.identity] != i:
            bad.append(f"identity fails at {i}")
        if g.mult[i][g.inverse[i]] != g.identity or g.mult[g.inverse[i]][i] != g.identity:
            bad.append(f"inverse fails at {i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.mult[g.mult[i][j]][k] != g.mult[i][g.mult[j][k]]:
                    bad.append(f"associativity fails at ({i}, {j}, {k})")
                    return bad
    return bad


def _loop_group_from_table(mult):
    """Reference reading of a table as the one-object groupoid: (identity, inverses) or the error.

    The one two-sided unit, each element's one two-sided inverse, then the first
    five failures of the first failing stage: missing (negative) products, products
    out of range, and the non-associative triples in lexicographic order.
    """
    n = len(mult)
    units = [e for e in range(n) if all(mult[x][e] == x and mult[e][x] == x for x in range(n))]
    if len(units) != 1:
        return f"object 0 has {len(units)} identity candidates"
    e = units[0]
    inverse = []
    for x in range(n):
        invs = [y for y in range(n) if mult[x][y] == e and mult[y][x] == e]
        if len(invs) != 1:
            return f"arrow {x} has {len(invs)} inverse candidates"
        inverse.append(invs[0])
    pairs = list(itertools.product(range(n), repeat=2))
    bad = [f"compose entry missing for pair ({x}, {y})" for x, y in pairs if mult[x][y] < 0]
    bad = bad or [f"product of ({x}, {y}) out of range" for x, y in pairs if mult[x][y] >= n]
    bad = bad or [
        f"associativity fails on ({x}, {y}, {z})"
        for x, y, z in itertools.product(range(n), repeat=3)
        if mult[mult[x][y]][z] != mult[x][mult[y][z]]
    ]
    return "; ".join(bad[:5]) if bad else (e, inverse)


def _loop_check_right_action(points, group, action):
    """Reference action check: per point the identity, then per element its range and compatibility."""
    n, m = len(points), group.order
    if len(action) != n or any(len(row) != m for row in action):
        raise ActionAxiomError("action table has wrong shape")
    for a in range(n):
        if action[a][group.identity] != a:
            raise ActionAxiomError(f"identity moves point {a}")
        for g in range(m):
            if not 0 <= action[a][g] < n:
                raise ActionAxiomError(f"action entry ({a}, {g}) out of range")
            for h in range(m):
                if action[action[a][g]][h] != action[a][group.mult[g][h]]:
                    raise ActionAxiomError(f"compatibility fails at point {a}, elements ({g}, {h})")


@pytest.mark.parametrize("block, trials", [(None, 3200), (1, 800)])
def test_group_from_table_matches_loop(block, trials, monkeypatch):
    """Same identity, inverses and diagnostics as the loop on seeded table mutations.

    block=1 composes one pair (i, j) per block, so every table of order above one is
    decided by Light's test, and associativity is read across blocks when it fails.
    """
    if block is not None:
        monkeypatch.setattr(groupoid, "ASSOCIATIVITY_BLOCK", block)
    rng = np.random.default_rng(707)
    groups = list(group_catalog().values()) + [cyclic_group(1), _z2()]
    assert {group.identity for group in groups} == {0}
    outcomes = collections.Counter()
    for trial in range(trials):
        group = groups[trial % len(groups)]
        n = group.order
        mult = group.mult.tolist()
        for _ in range(1 + int(rng.integers(3))):
            what = int(rng.integers(5))
            if what < 3:  # one product off the identity's row and column, possibly -1 or n
                i, j = (int(v) for v in rng.integers(min(1, n - 1), n, size=2))
                mult[i][j] = int(rng.integers(-1, n + 1))
                continue
            i, j = (int(v) for v in rng.integers(n, size=2))
            if what == 3:  # element i multiplies on the left as j does
                mult[i] = list(mult[j])
            else:  # and on the right
                for row in mult:
                    row[i] = row[j]
        expected = _loop_group_from_table(mult)
        if isinstance(expected, str):
            with pytest.raises(GroupoidAxiomError) as info:
                group_from_table(group.elements, mult)
            assert str(info.value) == expected
            outcomes[expected.split()[0]] += 1
            continue
        found = group_from_table(group.elements, mult)
        assert (found.identity, found.inverse.tolist()) == expected
        assert found.mult.tolist() == mult and found.elements == tuple(group.elements)
        assert _loop_group_axioms_check(found) == []
        outcomes["group"] += 1
    assert set(outcomes) == {"object", "arrow", "compose", "product", "associativity", "group"}
    assert outcomes["group"] < 0.2 * trials


def _action_verdict(check, points, group, action):
    try:
        check(points, group, action)
    except ActionAxiomError as exc:
        return str(exc)
    return None


def test_check_right_action_matches_loop():
    """Same first message as the loop on seeded mutations, out-of-range and huge entries included."""
    rng = generator(708)
    catalog = sorted(group_catalog().items())
    cases = flagged = 0
    for trial in range(3200):
        group = catalog[trial % len(catalog)][1]
        points, action = random_right_action(rng, group, 4)
        n, m = len(points), group.order
        action = [list(row) for row in action]
        for _ in range(int(rng.integers(1, 4))):
            a, g = int(rng.integers(n)), int(rng.integers(m))
            if rng.random() < 0.25:
                g = group.identity
            choices = (-1, n, n + 3, 2**70, -(2**70), int(rng.integers(n)))
            action[a][g] = choices[int(rng.integers(len(choices)))]
        expected = _action_verdict(_loop_check_right_action, points, group, action)
        assert _action_verdict(check_right_action, points, group, action) == expected
        if expected is None:
            np.testing.assert_array_equal(check_right_action(points, group, action), action)
        cases += 1
        flagged += expected is not None
    assert cases >= 3000 and flagged > 2000


@pytest.mark.parametrize("value", [-1, 1, 2**70])
def test_check_right_action_rejects_out_of_range_entries(value):
    # Z2 on one point: at the identity column the moved point is reported first
    with pytest.raises(ActionAxiomError, match=r"^identity moves point 0$"):
        check_right_action(["*"], _z2(), [[value, 0]])
    with pytest.raises(ActionAxiomError, match=r"^action entry \(0, 1\) out of range$"):
        check_right_action(["*"], _z2(), [[0, value]])


def test_check_right_action_diagnostics():
    group = _z2()
    check_right_action([0, 1], group, [[0, 1], [1, 0]])
    with pytest.raises(ActionAxiomError):
        check_right_action([0, 1], group, [[0, 1]])
    with pytest.raises(ActionAxiomError):
        check_right_action([0, 1], group, [[1, 0], [0, 1]])  # identity moves points
    with pytest.raises(ActionAxiomError):
        check_right_action([0, 1], group, [[0, 1], [1, 1]])  # s squares to e but orbit sticks


def test_phase_cocycle_values():
    # the trivial group over a point has one arrow and one composable pair, (0, 0)
    trivial = point_groupoid(cyclic_group(1))
    c = PhaseCocycle(3, {(0, 0): 5})
    assert c.table(trivial).tolist() == [[2]]  # reduced mod 3
    # on point Z2 the pair (1, 1) composes too, and has no value
    with pytest.raises(MissingValueError, match=r"pair \(1, 1\)$"):
        PhaseCocycle(3, {(0, 0): 5, (0, 1): 0, (1, 0): 0}).table(point_groupoid(_z2()))
    cont = PhaseCocycle(None, {(0, 0): 1j})
    assert cont.continuous
    assert cont.table(trivial).tolist() == [[1j]]
    with pytest.raises(DomainError):
        PhaseCocycle(0, {})


def _dict_table(g, table, continuous):
    """Oracle for PhaseCocycle.table: a dict lookup per composable pair, lexicographic."""
    out = np.zeros(g.compose.shape, dtype=np.complex128 if continuous else np.int64)
    for pair in map(tuple, g.composable_pairs().tolist()):
        if pair not in table:
            raise MissingValueError(f"cocycle has no value on pair {pair}")
        out[pair] = table[pair]
    return out


def _outcome(lookup, *args):
    try:
        return lookup(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def test_table_matches_the_dict_lookup():
    rng = generator(211)
    catalog = group_catalog()
    outcomes = set()
    for trial in range(60):
        grp = catalog[sorted(catalog)[trial % len(catalog)]]
        g = translation_groupoid(grp) if trial % 2 else point_groupoid(grp)
        modulus = None if trial % 3 == 0 else int(rng.integers(1, 9))
        composable = g.composable_pairs()
        # every composable pair in half the trials, about 80 % of them in the rest
        stored = composable[rng.random(len(composable)) < (1.0 if rng.random() < 0.5 else 0.8)]
        # stray pairs that are never read: in range but not composable, and past the arrows
        apart = np.argwhere(g.compose < 0)
        past = rng.integers(0, 2 * g.n_arrows, size=(4, 2))
        past[:, int(rng.integers(2))] += g.n_arrows
        stray = np.concatenate([apart[rng.permutation(len(apart))[:3]], past])
        pairs = np.unique(np.concatenate([stored, stray]), axis=0)
        pairs = pairs[rng.permutation(len(pairs))]
        if modulus is None:
            values = np.exp(2j * np.pi * rng.random(len(pairs)))
        else:
            values = rng.integers(-50, 50, size=len(pairs))
        table = dict(zip(map(tuple, pairs.tolist()), (values if modulus is None else values % modulus).tolist()))
        c = PhaseCocycle(modulus, table) if trial % 4 < 2 else PhaseCocycle(modulus, values, pairs)
        got, want = _outcome(c.table, g), _outcome(_dict_table, g, table, c.continuous)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        outcomes.add(isinstance(want, tuple))
    assert outcomes == {True, False}


def test_dict_and_array_constructors_agree():
    rng = generator(212)
    for modulus in (None, 1, 2, 7, 2**40):
        raw = np.unique(rng.integers(0, 40, size=(200, 2)), axis=0)
        pairs = raw[rng.permutation(len(raw))]
        if modulus is None:
            values = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        else:
            values = rng.integers(-(2**62), 2**62, size=len(pairs))
        from_dict = PhaseCocycle(modulus, dict(zip(map(tuple, pairs.tolist()), values.tolist())))
        from_arrays = PhaseCocycle(modulus, values, pairs)
        for c in (from_dict, from_arrays):
            np.testing.assert_array_equal(c.pairs, raw)  # np.unique rows ascend
            assert c.pairs.dtype == np.int64
            assert c.values.dtype == (np.complex128 if modulus is None else np.int64)
        np.testing.assert_array_equal(from_dict.values, from_arrays.values)
        order = np.lexsort(pairs.T[::-1])
        expected = values[order] if modulus is None else values[order] % modulus
        np.testing.assert_array_equal(from_arrays.values, expected)
    # a dict exponent beyond int64 is reduced before it is stored
    assert PhaseCocycle(7, {(0, 1): 10**30}).values.tolist() == [10**30 % 7]
    with pytest.raises(DomainError):
        PhaseCocycle(2, {(-1, 0): 1})


def test_zero_cocycle_passes_check():
    g = _swap_groupoid()
    assert cocycle_check(g, zero_cocycle(g, 4)) == 0.0
    assert cocycle_check(g, zero_cocycle(g, None)) == 0.0


def _carry_cocycle_z2(g):
    # nontrivial mu_2 class on the one-point Z2 groupoid: carry of addition mod 2
    values = {}
    for (x, y) in g.composable_pairs():
        values[(x, y)] = 1 if (x == 1 and y == 1) else 0
    return PhaseCocycle(2, values)


def test_carry_cocycle_builds_cyclic_four():
    g = point_groupoid(_z2())
    c = _carry_cocycle_z2(g)
    assert cocycle_check(g, c) == 0.0
    ext = central_extend(g, c)
    assert ext.total.n_arrows == 4
    assert axioms_check(ext.total) == []
    assert centrality_check(ext) == 0.0
    # (s, 0) has order four: the total group is Z4, not Z2 x Z2; (x, k) has index x * N + k
    s0 = 1 * 2 + 0
    sq = ext.total.compose[(s0, s0)]
    assert sq != ext.total.identity[0]
    fourth = ext.total.compose[(sq, sq)]
    assert fourth == ext.total.identity[0]


def test_zero_cocycle_builds_split_extension():
    g = point_groupoid(_z2())
    ext = central_extend(g, zero_cocycle(g, 2))
    s0 = 1 * 2 + 0  # the arrow (s, 0)
    assert ext.total.compose[(s0, s0)] == ext.total.identity[0]


def test_total_compose_matches_the_product_formula():
    # (x, s) * (y, t) = (xy, s + t + c(x, y)), the arrow (x, k) at index x * N + k
    g = _swap_groupoid()
    b = [int(k) for k in generator(7).integers(0, 3, size=g.n_arrows)]
    extensions = [central_extend(g, coboundary_twist(g, zero_cocycle(g, 3), b))]
    rng = generator(433)
    catalog = group_catalog()
    for name in ("Z2", "S3", "D4"):
        points, action = random_right_action(rng, catalog[name], 2)
        g = action_groupoid(points, catalog[name], action)
        c = random_groupoid_cocycle(rng, g, catalog[name], points, action, int(rng.integers(2, 5)))
        extensions.append(central_extend(g, c))
    for ext in extensions:
        n, compose, table = ext.modulus, ext.base.compose, ext.cocycle.table(ext.base)
        for x, y in ext.base.composable_pairs().tolist():
            for s in range(n):
                for t in range(n):
                    want = compose[x, y] * n + (s + t + table[x, y]) % n
                    assert ext.total.compose[x * n + s, y * n + t] == want


def test_centrality_check_detects_mutation():
    g = point_groupoid(_z2())
    ext = central_extend(g, _carry_cocycle_z2(g))
    assert centrality_check(ext) == 0.0
    pair = tuple(ext.total.composable_pairs()[0])
    # shift the phase of one product by one: (x, k) becomes (x, k + 1)
    x, k = divmod(int(ext.total.compose[pair]), 2)
    ext.total.compose[pair] = x * 2 + (k + 1) % 2
    assert centrality_check(ext) > 0.0


def test_centrality_check_refuses_a_continuous_extension():
    # an S^1 extension is central by construction and has no total table to check
    rng = generator(431)
    catalog = group_catalog()
    for name in ("Z2", "S3", "D4"):
        points, action = random_right_action(rng, catalog[name], 2)
        g = action_groupoid(points, catalog[name], action)
        b = np.exp(2j * np.pi * rng.random(g.n_arrows))
        ext = central_extend(g, coboundary_twist(g, zero_cocycle(g, None), b))
        assert ext.total is None
        with pytest.raises(UnsupportedCoefficientsError, match="mu_N total tables only"):
            centrality_check(ext)


def test_coboundary_twist_stays_cocycle_and_shifts_values():
    g = _swap_groupoid()
    c = zero_cocycle(g, 4)
    b = [1, 2, 3, 0]
    twisted = coboundary_twist(g, c, b)
    assert cocycle_check(g, twisted) == 0.0
    table = twisted.table(g)
    for x, y in g.composable_pairs():
        xy = g.compose[x, y]
        assert table[x, y] == (b[x] + b[y] - b[xy]) % 4
    cont = coboundary_twist(g, zero_cocycle(g, None), [1.0, 1j, -1.0, -1j])
    assert cocycle_check(g, cont) < 1e-12


def test_coboundary_twist_stays_exact_past_2_62():
    # c + b(x) + b(y) - b(xy) reaches 3N: summed before reducing, it wrapped int64
    n = 2**62 + 1
    g = point_groupoid(_z2())
    c = PhaseCocycle(n, [n - 1] * 4, g.composable_pairs())
    assert coboundary_twist(g, c, [n - 1, n - 1]).values.tolist() == [2**62 - 1] * 4
    rng = np.random.default_rng(62)
    g = point_groupoid(group_catalog()["S3"])
    pairs = g.composable_pairs()
    for n in (2**62 + 1, 2**63 - 25):
        for _ in range(20):
            values = [int(v) for v in rng.integers(n, size=len(pairs))]
            b = [int(v) for v in rng.integers(n, size=g.n_arrows)]
            twisted = coboundary_twist(g, PhaseCocycle(n, values, pairs), b)
            expected = [(k + b[x] + b[y] - b[g.compose[x, y]]) % n for (x, y), k in zip(pairs.tolist(), values)]
            assert twisted.pairs.tolist() == pairs.tolist() and twisted.values.tolist() == expected
        assert cocycle_check(g, coboundary_twist(g, zero_cocycle(g, n), b)) == 0.0


def test_non_finite_continuous_cocycle_is_rejected():
    g = _swap_groupoid()
    for bad in (complex("nan"), complex("inf"), complex(0, float("nan"))):
        c = zero_cocycle(g, None)
        c.values[3] = bad  # pair 3 of the composable pairs
        assert cocycle_check(g, c) == np.inf
        with pytest.raises(ExtensionError):
            central_extend(g, c)


def test_central_extend_input_errors():
    g = point_groupoid(_z2())
    with pytest.raises(MissingValueError):
        central_extend(g, PhaseCocycle(2, {}))
    bad = {pair: 0 for pair in map(tuple, g.composable_pairs().tolist())}
    bad[(0, 0)] = 1  # c(e,e) alone violates the cocycle identity
    with pytest.raises(ExtensionError):
        central_extend(g, PhaseCocycle(2, bad))
    # a base that is not a groupoid is the caller's error, not the library's
    z3 = point_groupoid(cyclic_group(3))
    for entry, value in (((0, 0), 99), ((1, 1), 1)):  # out of range; not associative
        broken = copy.deepcopy(z3)
        broken.compose[entry] = value
        with pytest.raises(GroupoidAxiomError, match="sound base groupoid"):
            central_extend(broken, zero_cocycle(broken, 3))
    # the (arrows x modulus)^2 total table is refused before it is allocated
    with pytest.raises(CapacityError, match="extension of 2 arrows at modulus 1000000000000"):
        central_extend(g, zero_cocycle(g, 10**12))


def _seeded_cover(seed):
    rng = generator(seed)
    _, _, _, _, cocycle, data, modulus = random_cover_instance(rng)
    return cocycle, data, modulus


def test_local_data_validates_and_glues():
    cocycle, data, modulus = _seeded_cover(42)
    validate_local_data(data, modulus)
    ext = glue_local_data(data, modulus)
    assert centrality_check(ext) == 0.0
    assert cocycle_check(ext.base, ext.cocycle) == 0.0
    # glued class agrees with the class of the source cocycle
    glued = extension_class(ext)
    source = extension_class(central_extend(ext.base, cocycle))
    assert glued.orders == source.orders
    assert np.array_equal(glued.vector, source.vector)


def test_glue_checks_its_base_only_when_the_total_fails(monkeypatch):
    _, data, modulus = _seeded_cover(42)
    calls = []
    monkeypatch.setattr(groupoid, "axioms_check", lambda g: calls.append(g.n_arrows) or axioms_check(g))
    ext = glue_local_data(data, modulus)
    assert calls == [ext.total.n_arrows]
    # a table that is no group passes check_right_action on one point; the
    # base it makes is named as central_extend's gate names it
    for mult, inverse, message in (
        ([[0, 1], [1, 1]], [0, 1], "x * x^-1 is not the identity for arrow 1"),
        ([[1, 0], [0, 1]], [0, 1], "left identity fails on arrow 0"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], [0, 1, 2], "associativity fails on (1, 1, 2)"),
    ):
        m = len(mult)
        group = FiniteGroup(elements=list(range(m)), mult=mult, identity=0, inverse=inverse)
        data = LocalExtensionData.blank(group, ["*"], [[0] * m], [list(range(m))])
        data.phi_given[:] = True
        data.omega_given[:] = True
        with pytest.raises(GroupoidAxiomError, match=re.escape("extension needs a sound base groupoid: " + message)):
            glue_local_data(data, 3)


def test_local_data_mutation_detected():
    _, data, modulus = _seeded_cover(43)
    key = tuple(np.argwhere(data.omega_given)[0])
    data.omega[key] += 1
    with pytest.raises((DescentError, CocycleError)):
        validate_local_data(data, modulus)


def test_local_data_phi_mutation_detected():
    _, data, modulus = _seeded_cover(44)
    if not data.phi_given.any():
        pytest.skip("cover happened to have disjoint charts")
    key = tuple(np.argwhere(data.phi_given)[0])
    data.phi[key] += 1
    with pytest.raises((DescentError, CocycleError)):
        validate_local_data(data, modulus)


def _loop_validate(data, modulus):
    """Reference validator: the pairwise loop over points, elements and chart choices."""
    if not isinstance(modulus, (int, np.integer)) or modulus < 1:
        raise DomainError(f"modulus must be a positive integer, got {modulus!r}")
    n = int(modulus)
    group = data.group
    m = group.order
    covered = set()
    for chart in data.cover:
        covered.update(chart)
    if covered != set(range(m)):
        raise DomainError("cover does not exhaust the group")
    check_right_action(data.points, group, data.action)
    charts = [[i for i, chart in enumerate(data.cover) if g in chart] for g in range(m)]

    def phi(alpha, beta, g, a):
        if alpha == beta:
            return 0
        if not data.phi_given[alpha, beta, g, a]:
            raise MissingValueError(f"transition phi[{alpha},{beta}] missing at element {g}, point {a}")
        return int(data.phi[alpha, beta, g, a])

    def omega(alpha, beta, gamma, f, g, a):
        if not data.omega_given[alpha, beta, gamma, f, g, a]:
            raise MissingValueError(
                f"local cocycle omega[{alpha},{beta};{gamma}] missing at ({f}, {g}), point {a}"
            )
        return int(data.omega[alpha, beta, gamma, f, g, a])

    for a in range(len(data.points)):
        for f in range(m):
            af = data.action[a][f]
            for g in range(m):
                fg = group.mult[f][g]
                base = {
                    (al, be, ga): omega(al, be, ga, f, g, a)
                    for al in charts[f]
                    for be in charts[g]
                    for ga in charts[fg]
                }
                for (al, be, ga), val in base.items():
                    for (al2, be2, ga2), val2 in base.items():
                        correction = phi(al, al2, f, a) + phi(be, be2, g, af) - phi(ga, ga2, fg, a)
                        if (val - val2 - correction) % n:
                            raise DescentError(
                                "gluing fails between chart choices "
                                f"({al},{be},{ga}) and ({al2},{be2},{ga2}) "
                                f"at point {a}, elements ({f}, {g})"
                            )

    for a in range(len(data.points)):
        for g1, g2, g3 in itertools.product(range(m), repeat=3):
            a1 = data.action[a][g1]
            g12, g23 = group.mult[g1][g2], group.mult[g2][g3]
            g123 = group.mult[g12][g3]
            for al, be, ga, de, ep, ze in itertools.product(
                charts[g1], charts[g2], charts[g12], charts[g3], charts[g23], charts[g123]
            ):
                lhs = omega(ga, de, ze, g12, g3, a) + omega(al, be, ga, g1, g2, a)
                rhs = omega(al, ep, ze, g1, g23, a) + omega(be, de, ep, g2, g3, a1)
                if (lhs - rhs) % n:
                    raise CocycleError(
                        f"local cocycle identity fails at point {a}, elements ({g1}, {g2}, {g3}), "
                        f"charts ({al},{be},{ga},{de},{ep},{ze})"
                    )


def _verdict(validate, data, modulus):
    try:
        validate(data, modulus)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_validate_local_data_matches_pairwise_loop():
    """Same error class and message as the loop on seeded single and paired defects."""
    cases = 0
    for seed in range(10):
        _, data, modulus = _seeded_cover(seed)
        assert _verdict(validate_local_data, data, modulus) is None
        assert _verdict(_loop_validate, data, modulus) is None
        rng = np.random.default_rng(600 + seed)
        omega_keys = [tuple(k) for k in np.argwhere(data.omega_given).tolist()]
        phi_keys = [tuple(k) for k in np.argwhere(data.phi_given).tolist()]
        f, g, a = omega_keys[rng.integers(len(omega_keys))][3:]
        defects = (
            [[("omega", k, 1)] for k in rng.choice(omega_keys, size=8, replace=False).tolist()]
            + [[("phi", k, 1)] for k in rng.permutation(phi_keys)[:4].tolist()]
            + [[("omega", k, None)] for k in rng.permutation(omega_keys)[:1].tolist()]
            + [[("phi", k, None)] for k in rng.permutation(phi_keys)[:1].tolist()]
            # every chart choice of one (f, g, a) shifted alike: descent holds, the identity fails
            + [[("omega", k, 1) for k in omega_keys if k[3:] == (f, g, a)]]
            + [[("omega", k, None) for k in rng.choice(omega_keys, size=2, replace=False).tolist()]]
            + [[("phi", k, None), ("omega", omega_keys[-1], None)] for k in phi_keys[-1:]]
        )
        for defect in defects:
            mutated = copy.deepcopy(data)
            for name, key, bump in defect:
                values, given = getattr(mutated, name), getattr(mutated, name + "_given")
                if bump is None:
                    given[tuple(key)] = False
                else:
                    values[tuple(key)] += bump
            expected = _verdict(_loop_validate, mutated, modulus)
            assert expected is not None
            assert _verdict(validate_local_data, mutated, modulus) == expected
            cases += 1
    assert cases >= 150


def test_validate_local_data_bounds_its_modulus():
    """The modulus stops at (2^63 - 1) // 3, where the descent and identity sums stay in int64.

    At the bound, a cover of random residues built from chart phases lam, so that
    descent and the identity hold, passes; with one entry moved by one it fails as the
    loop says.
    """
    top = (2**63 - 1) // 3
    _, data, _ = _seeded_cover(7)
    for n in (top + 1, 2**62, 2**63, 2**64):
        with pytest.raises(DomainError, match=rf"^modulus must lie in \[1, {top}\], got {n}$"):
            validate_local_data(data, n)
    rng = np.random.default_rng(63)
    lam = rng.integers(top, size=(len(data.cover), data.group.order, len(data.points)))
    act, mult = np.array(data.action), data.group.mult
    al, be, ga, f, g, a = np.indices(data.omega.shape)
    data.omega[...] = (lam[ga, mult[f, g], a] - lam[al, f, a] - lam[be, g, act[a, f]]) % top
    al, be, g, a = np.indices(data.phi.shape)
    data.phi[...] = (lam[be, g, a] - lam[al, g, a]) % top
    assert _verdict(validate_local_data, data, top) is None
    assert _verdict(_loop_validate, data, top) is None
    failures = set()
    for name in ("omega", "phi", "omega", "phi"):
        keys = np.argwhere(getattr(data, name + "_given"))
        key = tuple(keys[rng.integers(len(keys))])
        mutated = copy.deepcopy(data)
        getattr(mutated, name)[key] = (getattr(mutated, name)[key] + 1) % top
        expected = _verdict(_loop_validate, mutated, top)
        assert _verdict(validate_local_data, mutated, top) == expected
        failures.add(expected[0] if expected else None)
    assert None not in failures


def test_local_data_capacity():
    # Z8 on one point in six charts: 216 chart choices per (f, g), 64 * 216^2 pairs
    data = LocalExtensionData.blank(cyclic_group(8), ["*"], [[0] * 8], [set(range(8))] * 6)
    with pytest.raises(CapacityError):
        validate_local_data(data, 2)
    with pytest.raises(CapacityError):
        LocalExtensionData.blank(cyclic_group(8), ["*"], [[0] * 8], [set(range(8))] * 26)


def test_local_data_cover_must_exhaust_group():
    _, data, modulus = _seeded_cover(45)
    data.cover = [chart - {0} if isinstance(chart, set) else
                  [g for g in chart if g != 0] for chart in data.cover]
    with pytest.raises(DomainError):
        validate_local_data(data, modulus)
    with pytest.raises(DomainError):
        validate_local_data(data, 0)

