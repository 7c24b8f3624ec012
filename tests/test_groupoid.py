"""Finite groupoids, phase cocycles, central extensions, and chart gluing."""

import copy
import itertools

import numpy as np
import pytest

from anomlab import groupoid
from anomlab.errors import (
    ActionAxiomError,
    CapacityError,
    CocycleError,
    DescentError,
    DomainError,
    EvaluationError,
    ExtensionError,
    MissingValueError,
    UnsupportedCoefficientsError,
)
from anomlab.groupoid import (
    FiniteGroup,
    LocalExtensionData,
    PhaseCocycle,
    action_groupoid,
    axioms_check,
    central_extend,
    centrality_check,
    check_right_action,
    coboundary_twist,
    cocycle_check,
    eta_from_omega,
    glue_local_data,
    group_axioms_check,
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


def _sound_by_definition(g):
    """The groupoid axioms read straight off the tables, one plain loop each."""
    n_obj, n_arr = g.n_objects, g.n_arrows
    src, tgt, e, inv = (t.tolist() for t in (g.source, g.target, g.identity, g.inverse))
    comp = g.compose.tolist()
    if not all(0 <= o < n_obj for o in src + tgt) or not all(0 <= x < n_arr for x in e + inv):
        return False
    for x in range(n_arr):
        for y in range(n_arr):
            xy = comp[x][y]
            if (xy >= 0) != (src[x] == tgt[y]):  # defined exactly on composable pairs
                return False
            if xy >= 0 and not (xy < n_arr and src[xy] == src[y] and tgt[xy] == tgt[x]):
                return False
    for x in range(n_arr):
        for y in range(n_arr):
            for z in range(n_arr):
                if src[x] == tgt[y] and src[y] == tgt[z]:
                    if comp[comp[x][y]][z] != comp[x][comp[y][z]]:
                        return False
    for o in range(n_obj):
        if src[e[o]] != o or tgt[e[o]] != o:
            return False
    for x in range(n_arr):
        if comp[e[tgt[x]]][x] != x or comp[x][e[src[x]]] != x:
            return False
        if comp[x][inv[x]] != e[tgt[x]] or comp[inv[x]][x] != e[src[x]]:
            return False
    return True


def test_axioms_check_agrees_with_definition():
    rng = generator(211)
    catalog = group_catalog()
    sound = [point_groupoid(grp) for grp in catalog.values()]
    sound += [translation_groupoid(grp) for grp in catalog.values()]
    for name, modulus in (("Z3", 3), ("S3", 4), ("D4", 8)):
        base = point_groupoid(catalog[name])
        c = random_groupoid_cocycle(rng, base, catalog[name], ["*"], [[0] * catalog[name].order], modulus)
        sound.append(central_extend(base, c).total)
    for g in sound:
        assert _sound_by_definition(g) and axioms_check(g) == []
    small = [_swap_groupoid(), point_groupoid(catalog["S3"]), translation_groupoid(catalog["Z3"]), sound[-3]]
    mutants = 0
    for g in small:
        for table in ("compose", "inverse", "identity"):
            for _ in range(20):
                broken = groupoid_from_compose(g.objects, g.arrows, g.source, g.target, g.compose.copy())
                flat = getattr(broken, table).reshape(-1)
                i = int(rng.integers(flat.size))
                flat[i] = (flat[i] + 1 + int(rng.integers(g.n_arrows + 1))) % (g.n_arrows + 2) - 1
                assert _sound_by_definition(broken) == (axioms_check(broken) == [])
                mutants += 1
    assert mutants >= 200


def test_group_axioms_check():
    assert group_axioms_check(_z2()) == []
    bad = FiniteGroup(
        elements=["e", "s"], mult=[[0, 1], [1, 1]], identity=0, inverse=[0, 1]
    )
    assert group_axioms_check(bad)


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
def test_group_axioms_check_matches_loop(block, trials, monkeypatch):
    """Same diagnostics, in the same order, as the loop on seeded table mutations.

    block=1 compares one row i at a time, so associativity is read across blocks.
    """
    if block is not None:
        monkeypatch.setattr(groupoid, "ASSOCIATIVITY_BLOCK", block)
    rng = np.random.default_rng(707)
    groups = list(group_catalog().values()) + [cyclic_group(1), _z2()]
    flagged = 0
    for trial in range(trials):
        group = groups[trial % len(groups)]
        n = group.order
        mult, inverse, identity = group.mult.tolist(), group.inverse.tolist(), group.identity
        for _ in range(1 + int(rng.integers(3))):
            what = int(rng.integers(5))
            if what < 3:  # one product, possibly negative (both index with Python wrap-around)
                mult[int(rng.integers(n))][int(rng.integers(n))] = int(rng.integers(-n, n))
            elif what == 3:
                inverse[int(rng.integers(n))] = int(rng.integers(n))
            else:
                identity = int(rng.integers(n))
        mutated = FiniteGroup(elements=group.elements, mult=mult, identity=identity, inverse=inverse)
        expected = _loop_group_axioms_check(mutated)
        assert group_axioms_check(mutated) == expected
        flagged += bool(expected)
    assert flagged > 0.8 * trials


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
    c = PhaseCocycle(3, {(0, 0): 5})
    assert c.exponent(0, 0) == 2  # reduced mod 3
    np.testing.assert_allclose(c.phase(0, 0), np.exp(4j * np.pi / 3))
    with pytest.raises(MissingValueError):
        c.exponent(1, 1)
    cont = PhaseCocycle(None, {(0, 0): 1j})
    assert cont.continuous
    np.testing.assert_allclose(cont.phase(0, 0), 1j)
    with pytest.raises(UnsupportedCoefficientsError):
        cont.exponent(0, 0)
    with pytest.raises(DomainError):
        PhaseCocycle(0, {})


def _dict_values_at(table, pairs, continuous):
    """Oracle for values_at: the per-pair dict lookup it replaced."""
    try:
        vals = [table[pair] for pair in map(tuple, np.asarray(pairs).tolist())]
    except KeyError as exc:
        raise MissingValueError(f"cocycle has no value on pair {exc.args[0]}") from None
    return np.array(vals, dtype=np.complex128 if continuous else np.int64)


def _outcome(lookup, *args):
    try:
        return lookup(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def test_values_at_matches_the_dict_lookup():
    rng = generator(211)
    catalog = group_catalog()
    for trial in range(60):
        grp = catalog[sorted(catalog)[trial % len(catalog)]]
        g = translation_groupoid(grp) if trial % 2 else point_groupoid(grp)
        modulus = None if trial % 3 == 0 else int(rng.integers(1, 9))
        composable = g.composable_pairs()
        stored = composable[rng.random(len(composable)) < 0.8]
        if modulus is None:
            values = np.exp(2j * np.pi * rng.random(len(stored)))
        else:
            values = rng.integers(-50, 50, size=len(stored)) % modulus
        table = dict(zip(map(tuple, stored.tolist()), values.tolist()))
        c = PhaseCocycle(modulus, table)
        for _ in range(10):
            # stored and absent composable pairs, then negative and out-of-range ones
            queries = composable[rng.integers(len(composable), size=int(rng.integers(0, 30)))]
            if rng.random() < 0.5:
                stray = rng.integers(-3, g.n_arrows + 3, size=(int(rng.integers(1, 4)), 2))
                at = rng.integers(len(queries) + 1, size=len(stray))
                queries = np.insert(queries, at, stray, axis=0)
            if rng.random() < 0.2:  # float indices: whole ones match, halves do not
                queries = np.asarray(queries, dtype=float) + 0.5 * (rng.random((len(queries), 2)) < 0.2)
            if rng.random() < 0.2:  # an index beyond int64
                queries = [tuple(pair) for pair in queries.tolist()] + [(0, -(10**30)), (10**30, 0)]
            got = _outcome(c.values_at, queries)
            want = _outcome(_dict_values_at, table, queries, c.continuous)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


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
    assert PhaseCocycle(7, {(0, 1): 10**30}).exponent(0, 1) == 10**30 % 7
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
    # (s, 0) has order four: the total group is Z4, not Z2 x Z2
    s0 = ext.arrow_index(1, 0)
    sq = ext.total.compose[(s0, s0)]
    assert sq != ext.total.identity[0]
    fourth = ext.total.compose[(sq, sq)]
    assert fourth == ext.total.identity[0]


def test_zero_cocycle_builds_split_extension():
    g = point_groupoid(_z2())
    ext = central_extend(g, zero_cocycle(g, 2))
    s0 = ext.arrow_index(1, 0)
    assert ext.total.compose[(s0, s0)] == ext.total.identity[0]


def test_extension_multiply_matches_total_compose():
    g = _swap_groupoid()
    rng = generator(7)
    b = [int(k) for k in rng.integers(0, 3, size=g.n_arrows)]
    c = coboundary_twist(g, zero_cocycle(g, 3), b)
    ext = central_extend(g, c)
    for (x, y) in g.composable_pairs():
        for k in range(3):
            for l in range(3):
                xy, phase = ext.multiply((x, k), (y, l))
                idx = ext.total.compose[(ext.arrow_index(x, k), ext.arrow_index(y, l))]
                assert (xy, phase) == ext.project(idx)


def test_centrality_check_detects_mutation():
    g = point_groupoid(_z2())
    ext = central_extend(g, _carry_cocycle_z2(g))
    assert centrality_check(ext) == 0.0
    pair = tuple(ext.total.composable_pairs()[0])
    ext.total.compose[pair] = ext.phase_shift(1, ext.total.compose[pair])
    assert centrality_check(ext) > 0.0


def test_coboundary_twist_stays_cocycle_and_shifts_values():
    g = _swap_groupoid()
    c = zero_cocycle(g, 4)
    b = [1, 2, 3, 0]
    twisted = coboundary_twist(g, c, b)
    assert cocycle_check(g, twisted) == 0.0
    for x, y in g.composable_pairs():
        xy = g.compose[x, y]
        assert twisted.exponent(x, y) == (b[x] + b[y] - b[xy]) % 4
    cont = coboundary_twist(g, zero_cocycle(g, None), [1.0, 1j, -1.0, -1j])
    assert cocycle_check(g, cont) < 1e-12


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


def test_eta_from_omega_recovers_commutator_pairing():
    rng = np.random.default_rng(501)
    m = rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))

    def omega(point, g1, g2):
        eye = np.eye(3)
        return float(np.real(np.trace(m @ (g1 - eye) @ (g2 - eye))))

    eta = eta_from_omega(omega, x, y, point=None, h=1e-3)
    expected = float(np.real(np.trace(m @ (x @ y - y @ x))))
    np.testing.assert_allclose(eta, expected, rtol=1e-4, atol=1e-6)
    # antisymmetry of the extracted pairing
    eta_swapped = eta_from_omega(omega, y, x, point=None, h=1e-3)
    np.testing.assert_allclose(eta_swapped, -expected, rtol=1e-4, atol=1e-6)


def test_eta_from_omega_guards():
    def omega(point, g1, g2):
        return 0.0

    x = np.eye(2)
    with pytest.raises(DomainError):
        eta_from_omega(omega, x, x, None, h=1e-7)
    with pytest.raises(DomainError):
        eta_from_omega(omega, x, np.eye(3), None, h=1e-3)

    def broken(point, g1, g2):
        raise ValueError("no phase here")

    with pytest.raises(EvaluationError):
        eta_from_omega(broken, x, x, None, h=1e-3)
