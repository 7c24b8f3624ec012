"""The argument gates of anomlab.errors and every site that goes through them.

Each site takes its integer or real parameter through errors.integer or
errors.real and raises its own error class on a bool, a float where an
integer is due, a nan or a string; valid ints, numpy scalars and (where the
site supports them) moduli past int64 keep working.
"""

import math

import numpy as np
import pytest

from anomlab.errors import (
    CapacityError,
    CoverMembershipError,
    DivergenceError,
    DomainError,
    FloatOverflowError,
    InvalidOrderError,
    ShapeError,
    SizeError,
    integer,
    real,
)
from anomlab.fock import SpectralBackground, build_car, gerbe_triple_check, vacuum_at_level, vacuum_line
from anomlab.groupoid import PhaseCocycle, coboundary_twist, validate_local_data, zero_cocycle
from anomlab.instances import cyclic_group, generator, point_groupoid, random_cover_instance
from anomlab.linalg import Polarization
from anomlab.nerve import class_reducer, coboundary_matrix, cohomology_group, nerve
from anomlab.regdet import det_p, log_det_p_series
from anomlab.snf import solve_mod

BIG = 2**70  # a modulus past int64
Z2 = point_groupoid(cyclic_group(2))
COVER = random_cover_instance(generator(3), max_points=2, max_order=4, max_modulus=4, n_charts=2)
SPACE = build_car(2, Polarization(2, 1))
BACKGROUND = SpectralBackground(np.diag([-1.0, 1.0]))

# site, call with the parameter, error class, valid values
INTEGER_SITES = [
    ("build_car modes", lambda v: build_car(v, Polarization(3, 1)), SizeError, [3]),
    ("det_p order", lambda v: det_p(np.zeros((2, 2)), v), InvalidOrderError, [2]),
    ("Polarization dim", lambda v: Polarization(v, 0), ShapeError, [2]),
    ("Polarization plus_dim", lambda v: Polarization(3, v), ShapeError, [2]),
    ("nerve p_max", lambda v: nerve(Z2, v), DomainError, [2]),
    ("cohomology_group degree", lambda v: cohomology_group(Z2, v, 2), CapacityError, [2]),
    ("cohomology_group modulus", lambda v: cohomology_group(Z2, 2, v), DomainError, [2, BIG]),
    ("class_reducer degree", lambda v: class_reducer(Z2, v, 2), CapacityError, [2]),
    ("class_reducer modulus", lambda v: class_reducer(Z2, 2, v), DomainError, [2]),
    ("coboundary_matrix degree", lambda v: coboundary_matrix(nerve(Z2, 2), v), CapacityError, [1]),
    ("log_det_p_series terms", lambda v: log_det_p_series(0.1 * np.eye(2), 2, v), DivergenceError, [3]),
    ("PhaseCocycle modulus", lambda v: PhaseCocycle(v, {(0, 0): 3}), DomainError, [2]),
    ("validate_local_data modulus", lambda v: validate_local_data(COVER[5], v), DomainError, [COVER[6]]),
    ("solve_mod modulus", lambda v: solve_mod([[1]], [1], v), DomainError, [2, BIG]),
    ("cyclic_group order", lambda v: cyclic_group(v), SizeError, [3]),
]

# site, call with the parameter, error class, valid values, values out of range
REAL_SITES = [
    (
        "vacuum_at_level level",
        lambda v: vacuum_at_level(SPACE, BACKGROUND, v),
        CoverMembershipError,
        [0.5, math.inf, -math.inf],
        [],
    ),
    ("vacuum_line lo", lambda v: vacuum_line(BACKGROUND, v, 2.0), CoverMembershipError, [0.5, -math.inf], []),
    ("vacuum_line hi", lambda v: vacuum_line(BACKGROUND, -2.0, v), CoverMembershipError, [0.5, math.inf], []),
    (
        "gerbe_triple_check l1",
        lambda v: gerbe_triple_check(BACKGROUND, v, 0.0, 2.0),
        CoverMembershipError,
        [-2.0, -math.inf],
        [],
    ),
    ("gerbe_triple_check l2", lambda v: gerbe_triple_check(BACKGROUND, -2.0, v, 2.0), CoverMembershipError, [0.0], []),
    (
        "gerbe_triple_check l3",
        lambda v: gerbe_triple_check(BACKGROUND, -2.0, 0.0, v),
        CoverMembershipError,
        [2.0, math.inf],
        [],
    ),
]

# matrices that numpy cannot read as complex128: a string that is no number,
# ragged rows and an object; each is a ShapeError, not numpy's ValueError or TypeError
NOT_MATRICES = [[["a"]], [[1, 2], [3]], [[{}]]]

# PhaseCocycle inputs that were dropped, truncated, or met with a bare
# numpy error, before the constructor gates; each names what is wrong
COCYCLE_INPUTS = [
    ("3 values on 2 pairs", ([0, 1, 1], [[0, 0], [0, 1]]), ShapeError, r"got shapes \(2, 2\) and \(3,\)$"),
    ("1 value on 2 pairs", ([0], [[0, 0], [0, 1]]), ShapeError, r"got shapes \(2, 2\) and \(1,\)$"),
    ("a pair of 3 indices", ([0], [[0, 0, 1]]), ShapeError, r"got shapes \(1, 3\) and \(1,\)$"),
    ("ragged pairs", ([0, 1], [[0, 0], [0]]), ShapeError, "must be arrays"),
    ("a fractional index", ([0], [[0.5, 0]]), DomainError, "cocycle pair index must be an integer, got 0.5$"),
    ("a whole float index", ([0], [[2.0, 0]]), DomainError, "cocycle pair index must be an integer, got 2.0$"),
    ("a bool index", ([0], np.array([[True, False]])), DomainError, "cocycle pair index must be an integer, got True$"),
    ("a negative index", ([0], [[0, -1]]), DomainError, r"must lie in \[0, 2\^63\)$"),
    ("an index past int64", ([0], [[0, 2**64]]), DomainError, r"must lie in \[0, 2\^63\)$"),
    ("a fractional exponent", ([1.5], [[0, 0]]), DomainError, "cocycle exponent must be an integer, got 1.5$"),
    ("a fractional dict exponent", ({(0, 0): 1.5}, None), DomainError, "cocycle exponent must be an integer, got 1.5$"),
    ("a whole float exponent", ([1.0], [[0, 0]]), DomainError, "cocycle exponent must be an integer, got 1.0$"),
    ("a bool exponent", ([True], [[0, 0]]), DomainError, "cocycle exponent must be an integer, got True$"),
    ("a duplicate pair", ([0, 1], [[0, 0], [0, 0]]), DomainError, r"^cocycle pair \(0, 0\) is given more than once$"),
    ("a duplicate pair among others", ([0, 1, 0], [[1, 2], [0, 3], [1, 2]]), DomainError, r"pair \(1, 2\) is given"),
]

# 1-cochains b on the two arrows of point Z2 that coboundary_twist met with a
# bare IndexError or ValueError, took silently, truncated, divided by zero on,
# or overflowed on
TWIST_COCHAINS = [
    ("one value on two arrows", 2, [0], ShapeError, r"each of 2 arrows, got shape \(1,\)$"),
    ("three values on two arrows", 2, [0, 1, 1], ShapeError, r"each of 2 arrows, got shape \(3,\)$"),
    ("a value per arrow in rows", 2, [[0], [1]], ShapeError, r"got shape \(2, 1\)$"),
    ("a fractional exponent", 2, [0.5, 1], DomainError, "1-cochain exponent must be an integer, got 0.5$"),
    ("a whole float exponent", 2, [1.0, 1.0], DomainError, "1-cochain exponent must be an integer, got 1.0$"),
    ("a bool exponent", 2, [True, False], DomainError, "1-cochain exponent must be an integer, got True$"),
    ("a zero phase", None, [1, 0], DomainError, "value on arrow 1 must be finite and nonzero"),
    ("a nan phase", None, [math.nan, 1], DomainError, "value on arrow 0 must be finite and nonzero"),
    ("an infinite phase", None, [1, math.inf], DomainError, "value on arrow 1 must be finite and nonzero"),
    ("ragged rows", 2, [[0], [1, 2]], ShapeError, "^1-cochain must be an array: "),
    # pair (0, 0) composes to arrow 0: 1e200 * 1e200 overflows before the division by 1e200
    ("a twist past float64", None, [1e200, 1], FloatOverflowError, r"pair \(0, 0\) is not finite$"),
]

NOT_INTEGERS = [True, np.bool_(True), 2.5, np.float64(2.0), "3"]
NOT_REALS = [True, np.bool_(True), math.nan, np.float64(math.nan), "3", None, 1j]


def _raises_exactly(error, call, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert info.type is error, f"{value!r} raised {info.type.__name__}: {info.value}"


@pytest.mark.parametrize("site, call, error, valid", INTEGER_SITES, ids=[s[0] for s in INTEGER_SITES])
def test_integer_sites_accept_ints_and_reject_the_rest(site, call, error, valid):
    for value in valid:
        call(value)
        if value < 2**63:
            call(np.int64(value))
    for value in NOT_INTEGERS:
        _raises_exactly(error, call, value)


@pytest.mark.parametrize("site, call, error, valid, out_of_range", REAL_SITES, ids=[s[0] for s in REAL_SITES])
def test_real_sites_accept_reals_and_reject_the_rest(site, call, error, valid, out_of_range):
    for value in valid:
        call(value)
        call(np.float64(value))
    for value in NOT_REALS + out_of_range:
        _raises_exactly(error, call, value)


@pytest.mark.parametrize("value", NOT_MATRICES, ids=["malformed string", "ragged rows", "object entry"])
def test_matrix_gate_rejects_what_is_not_a_matrix(value):
    _raises_exactly(ShapeError, lambda v: det_p(v, 2), value)


def test_defects_the_gates_close():
    # each of these returned a value, or raised a bare TypeError, before the gates
    assert cohomology_group(Z2, 2, 2).modulus == 2
    assert PhaseCocycle(None, {(0, 0): 1j}).continuous
    with pytest.raises(DomainError, match="modulus must be an integer, got True"):
        cohomology_group(Z2, 2, True)
    with pytest.raises(CapacityError, match="cohomology degree must be an integer, got 1.5"):
        cohomology_group(Z2, 1.5, 2)
    with pytest.raises(SizeError, match="cyclic order must be an integer"):
        cyclic_group(2.5)
    with pytest.raises(DomainError, match="modulus"):
        solve_mod([[1]], [1], 2.5)
    with pytest.raises(CapacityError, match="must be an integer, got 1.0"):
        coboundary_matrix(nerve(Z2, 2), 1.0)
    with pytest.raises(CoverMembershipError, match="nan"):
        vacuum_at_level(SPACE, BACKGROUND, math.nan)
    with pytest.raises(CoverMembershipError, match="nan"):
        vacuum_line(BACKGROUND, math.nan, 2.0)


@pytest.mark.parametrize("case, args, error, message", COCYCLE_INPUTS, ids=[c[0] for c in COCYCLE_INPUTS])
def test_phase_cocycle_rejects_malformed_pairs_and_values(case, args, error, message):
    with pytest.raises(DomainError, match=message) as info:
        PhaseCocycle(2, *args)
    assert info.type is error, f"{case} raised {info.type.__name__}: {info.value}"


def test_phase_cocycle_takes_what_the_gates_let_through():
    # empty input, numpy integers of any width, exponents and indices past 2^31
    assert PhaseCocycle(2, {}).pairs.shape == (0, 2)
    assert PhaseCocycle(2, [], []).values.dtype == np.int64
    pairs = np.array([[2**40, 1], [0, 2**31]], dtype=np.uint64)
    c = PhaseCocycle(2**40, np.array([2**41 + 3, -1], dtype=np.int64), pairs)
    assert c.pairs.dtype == np.int64 and c.pairs.tolist() == [[0, 2**31], [2**40, 1]]
    assert c.values.tolist() == [2**40 - 1, 3]  # no groupoid has 2^40 arrows: read the rows
    # continuous values take any complex number; an exponent past int64 is reduced first
    assert PhaseCocycle(None, [1.5], [[0, 0]]).table(point_groupoid(cyclic_group(1))).tolist() == [[1.5]]
    assert PhaseCocycle(7, [10**30], [[0, 1]]).values.tolist() == [10**30 % 7]
    # numpy reads this list as float64; its ints are read exactly all the same
    assert PhaseCocycle(7, [3**40 + 1, -1], [[0, 0], [0, 1]]).values.tolist() == [(3**40 + 1) % 7, 6]


@pytest.mark.parametrize("case, modulus, b, error, message", TWIST_COCHAINS, ids=[c[0] for c in TWIST_COCHAINS])
def test_coboundary_twist_rejects_malformed_cochains(case, modulus, b, error, message):
    with pytest.raises(DomainError, match=message) as info:
        coboundary_twist(Z2, zero_cocycle(Z2, modulus), b)
    assert info.type is error, f"{case} raised {info.type.__name__}: {info.value}"


def test_coboundary_twist_takes_what_the_gates_let_through():
    # on point Z2 the pairs run (0, 0), (0, 1), (1, 0), (1, 1) and compose to 0, 1, 1, 0
    # an integer dtype passes whole; exponents past int64 are read mod N
    for b in ([1, 2], np.array([2**63 + 2, 2], dtype=np.uint64), [2**70, -1]):
        assert coboundary_twist(Z2, zero_cocycle(Z2, 3), b).values.tolist() == [1, 1, 1, 0]
    # a list numpy reads as float64, read exactly: b = (a, -1) with a = 3^40 + 1 = 5 mod 7
    assert (3**40 + 1) % 7 == 5
    assert coboundary_twist(Z2, zero_cocycle(Z2, 7), [3**40 + 1, -1]).values.tolist() == [5, 5, 5, 0]
    phases = coboundary_twist(Z2, zero_cocycle(Z2, None), [1j, -1]).values
    np.testing.assert_allclose(phases, [1j, 1j, 1j, -1j])


def test_gates_return_plain_python_numbers():
    assert type(integer(np.int64(5), "n")) is int
    assert integer(BIG, "n", lo=1) == BIG
    assert type(real(np.float32(0.5), "x")) is float
    assert real(10**400, "x") == math.inf and real(-(10**400), "x") == -math.inf
    assert Polarization(np.int64(4), np.int64(2)) == Polarization(4, 2)
    assert type(Polarization(np.int64(4), 2).dim) is int


@pytest.mark.parametrize(
    "lo, hi, value, message",
    [
        (1, None, 0, "n must be >= 1, got 0"),
        (None, 3, 4, "n must be <= 3, got 4"),
        (1, 3, 4, r"n must lie in \[1, 3\], got 4"),
    ],
)
def test_gate_messages_name_the_bound(lo, hi, value, message):
    with pytest.raises(SizeError, match=message):
        integer(value, "n", SizeError, lo, hi)
    with pytest.raises(SizeError, match=message.replace("got 4", "got 4.0").replace("got 0", "got 0.0")):
        real(value, "n", SizeError, lo, hi)
