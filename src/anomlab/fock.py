"""Finite CAR algebra, second quantization, and vacuum lines.

The Fock space over m modes is C^(2^m) in the occupation basis: basis index
equals the occupation bitmask, bit i meaning mode i is filled. Creation on
mode i flips bit i in with the Jordan-Wigner sign (-1)^(number of occupied
modes below i), which makes the anticommutation relations hold exactly in
integer arithmetic. The polarization marks the first k modes as the plus
side; the vacuum fills every minus mode (a filled sea) and is annihilated
by psi*(u) for u in the minus subspace and by psi(v) for v in the plus one.

Operators are assembled from index tables that depend only on the mode
count and are built once per FockSpace: the occupation numbers, the rows,
columns and signs of every creator c_i*, and the nonzero pattern of every
hop c_i* c_j (i != j) laid out row by row, each row opened by its diagonal
slot. Creation operators are one scatter from the creator tables; d_gamma(X)
is one gather of X through the hop tables plus occupation . diag(X) minus
the sea trace on the diagonal.

Second quantization d_gamma(X) is the normal-ordered bilinear sum with its
vacuum expectation subtracted; the commutation rule [d_gamma(X), c_j*] =
sum_i X_ij c_i* and the zero vacuum expectation are re-verified after every
construction. The check reads the operator data through tables of its own,
built by bit arithmetic beside the hop tables: every entry of the defect, for
every j, is one gather of a diagonal slot or hop against X or a difference of
two gathered hops, and no sparse product is formed. The Schwinger term is
the scalar by which d_gamma fails to be a Lie homomorphism, read off the
sparse defect operator. d_gamma writes the verified hop data straight into
its dense matrix, in row blocks taken by worker threads when the output
spans several 32-MiB blocks and several CPUs are free. Only schwinger_detail
builds compressed matrices and imports scipy.sparse, so neither `import
anomlab` nor d_gamma loads it. dGamma(X) preserves the particle number, so
its exponential is taken one number sector at a time.

Vacuum lines sit over Hermitian backgrounds: the line of a spectral window
(lo, hi) is spanned by the wedge of its eigenvectors, tracked here as the
orthonormal eigenvector frame. Triple overlaps of windows glue up to a
unit-modulus witness, and moving the Dirac-sea level across a window
changes the Schwinger scalar by the trace of [x, y] over the window. A level
is any real number but nan (errors.real): +-inf is a window edge past the
whole spectrum. The mode count passes errors.integer, in [1, MAX_MODES].
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverMembershipError,
    DomainError,
    FloatOverflowError,
    GapError,
    InternalConsistencyError,
    ShapeError,
    SizeError,
    SymmetryError,
    integer,
    real,
)
from .linalg import (
    Polarization,
    as_square,
    hermitian_eigensystem,
    matrix_exponential,
)

MAX_MODES = 12
DGAMMA_TOL = 1e-10
SCALARNESS_TOL = 1e-9
LEVEL_MARGIN = 1e-8
UNITARY_TOL = 1e-10
WITNESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Occupation-basis Fock space over m polarized modes, with its index tables.

    creator_rows / creator_cols / creator_signs have shape (m, 2^(m-1)): row
    i lists the entries of c_i*. The hop tables list the nonzero pattern of
    d_gamma in CSR layout: row t spans hop_indptr[t]:hop_indptr[t+1] and
    starts with its diagonal slot; every other entry is the hop c_i* c_j
    with flat pair index i*m + j in hop_pairs.

    The check tables are derived apart from the hop tables, by bit arithmetic
    on the state index. check_indptr and check_cols are the pattern the hop
    tables must have. check_slots has shape (m, m-1, 2^(m-2)): entry
    (i, k', c) is hop (i, k) of the state t with mode i filled, mode k empty
    and the other m-2 bits c, where k' is k's place among the modes other
    than i. It holds that hop's position in the data, negated when the JW
    signs make the hop -x_ik in the commutator rather than +x_ik. No hop
    sits at position 0, the diagonal slot of row 0.
    """

    modes: int
    pol: Polarization
    occupation: np.ndarray
    creator_rows: np.ndarray
    creator_cols: np.ndarray
    creator_signs: np.ndarray
    hop_indptr: np.ndarray
    hop_cols: np.ndarray
    hop_pairs: np.ndarray
    hop_signs: np.ndarray
    check_indptr: np.ndarray
    check_cols: np.ndarray
    check_slots: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.modes

    @property
    def sea_mask(self) -> int:
        """Bitmask of the filled minus modes."""
        return ((1 << self.modes) - 1) ^ ((1 << self.pol.plus_dim) - 1)


def _check_tables(
    modes: int, states: np.ndarray, bits: np.ndarray, below: np.ndarray, hop: np.ndarray
) -> dict:
    """The commutation check's tables, by bit arithmetic on the hop list alone.

    `below[t, i]` counts the filled modes of t below i, and `hop` is the
    (state, filled mode, empty mode) grid of the hops. The hops are listed
    pair-major: (i, k), then t ascending, which is the check_slots layout.
    Row t opens with its diagonal slot, then lists its filled i in turn, each
    with its empty k.
    """
    dim = 1 << modes
    i, k, t = np.nonzero(hop.transpose(1, 2, 0))
    count = np.bitwise_count(states)
    empty = modes - count
    length = 1 + count * empty
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(length, out=indptr[1:])
    below_i, below_k = below[t, i], below[t, k]
    pos = indptr[t] + 1 + below_i * empty[t] + k - below_k
    cols = np.repeat(states, length)  # t on all of row t, right for its diagonal slot
    cols[pos] = t ^ bits[i] ^ bits[k]
    # negated where the JW signs of c_i* and c_k* on column t ^ b_i differ
    flip = (below_i + below_k + (i < k)) & 1
    slots = np.where(flip, -pos, pos).astype(np.int32).reshape(modes, modes - 1, dim >> 2)
    return {"check_indptr": indptr, "check_cols": cols, "check_slots": slots}


def _tables(modes: int) -> dict:
    """Occupation, creator, hop and check tables of the m-mode Fock space."""
    dim = 1 << modes
    states = np.arange(dim, dtype=np.int32)
    bits = np.int32(1) << np.arange(modes, dtype=np.int32)
    occ = (states[:, None] & bits) != 0
    # Jordan-Wigner sign of mode i in state t: (-1)^(occupied modes below i)
    below = np.bitwise_count(states[:, None] & (bits - 1))
    jw = 1 - 2 * (below & 1).astype(np.int8)

    mode, col = np.nonzero(~occ.T)  # mode-major, states ascending
    creator_cols = col.astype(np.int32).reshape(modes, dim // 2)
    creator_signs = jw[col, mode].reshape(modes, dim // 2)

    # row t holds c_i* c_j for i filled and j empty in t, after a diagonal
    # slot at pair (0, 0) whose value d_gamma overwrites
    hop = occ[:, :, None] & ~occ[:, None, :]
    check = _check_tables(modes, states, bits, below, hop)
    hop[:, 0, 0] = True
    row, i, j = np.nonzero(hop)
    hop_signs = jw[row, i] * jw[row, j] * np.where(i < j, -1, 1)
    hop_indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(hop.sum(axis=(1, 2)), out=hop_indptr[1:])
    return {
        "occupation": occ.astype(np.int8),
        "creator_rows": creator_cols | bits[:, None],
        "creator_cols": creator_cols,
        "creator_signs": creator_signs,
        "hop_indptr": hop_indptr,
        "hop_cols": (row ^ bits[i] ^ bits[j]).astype(np.int32),
        "hop_pairs": (i * modes + j).astype(np.int16),
        "hop_signs": hop_signs.astype(np.int8),
        **check,
    }


def build_car(modes, pol: Polarization) -> FockSpace:
    """Construct the CAR tables for `modes` modes split by `pol`."""
    modes = integer(modes, "mode count", SizeError, 1, MAX_MODES)
    if pol.dim != modes:
        raise ShapeError(f"polarization dim {pol.dim} does not match mode count {modes}")
    return FockSpace(modes=modes, pol=pol, **_tables(modes))


def _one_particle_vector(space: FockSpace, v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != space.modes:
        raise ShapeError(f"one-particle vector must have length {space.modes}")
    return vec


def creation(space: FockSpace, v) -> np.ndarray:
    """Dense matrix of psi*(v) = sum_i v_i c_i (linear in v)."""
    vec = _one_particle_vector(space, v)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    out[space.creator_rows, space.creator_cols] = vec[:, None] * space.creator_signs
    return out


def apply_creation(space: FockSpace, v, state: np.ndarray) -> np.ndarray:
    """psi*(v) applied to a Fock vector without materializing the matrix."""
    vec = _one_particle_vector(space, v)
    st = np.asarray(state, dtype=np.complex128).reshape(-1)
    if st.shape[0] != space.dim:
        raise ShapeError(f"state must have length {space.dim}")
    out = np.zeros_like(st)
    terms = vec[:, None] * space.creator_signs * st[space.creator_cols]
    np.add.at(out, space.creator_rows, terms)
    return out


def vacuum(space: FockSpace) -> np.ndarray:
    """Unit vector with every minus mode filled and every plus mode empty."""
    vec = np.zeros(space.dim, dtype=np.complex128)
    vec[space.sea_mask] = 1.0
    return vec


@dataclass(frozen=True)
class FockOperator:
    space: FockSpace
    matrix: np.ndarray


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatOverflowError(f"{what} overflows float64")


def _commutation_defect(space: FockSpace, data: np.ndarray, x: np.ndarray) -> float:
    """Largest entry of [d_gamma(x), c_j*] - sum_i x_ij c_i* over every mode j.

    `data` is the CSR data of d_gamma(x) on the hop tables. The hop pattern
    is compared with the check tables first, and a misplaced row start or
    column raises. With b_i = 1 << i and D the diagonal slots, the defect of
    mode j is nonzero only on two kinds of entry:

    - (t, t ^ b_i) with i in t. For i = j it is D[t] - D[t ^ b_j] - x_jj, up
      to the sign of c_j*. For i != j it is hop (i, j) of row t (j not in t)
      or of row t ^ b_j (j in t), times the JW signs, minus x_ij; both cases
      read the same stored hop, so each hop is compared with its x entry once,
      gathered and signed through check_slots.
    - (t, t ^ b_i ^ b_k ^ b_j) with i, j in t, i != j and k not in t: hop
      (i, k) of row t against hop (i, k) of row t ^ b_j, with the same signs.
      In the slot layout those two hops are the ends of an edge along bit j
      of the states, so these entries are differences of halves of the
      signed hop array.

    Every diagonal slot and every hop is read, and no sparse product is formed.
    """
    m = space.modes
    if not (
        np.array_equal(space.hop_indptr, space.check_indptr)
        and np.array_equal(space.hop_cols, space.check_cols)
    ):
        raise InternalConsistencyError("commutation defect: a hop row or column is misplaced")
    with np.errstate(over="ignore", invalid="ignore"):
        slot = data[space.check_indptr[:-1]]
        worst = np.max(np.abs(slot[space.creator_rows] - slot[space.creator_cols] - np.diag(x)[:, None]))
        hops = data[np.abs(space.check_slots)]
        np.negative(hops, out=hops, where=space.check_slots < 0)
        off = x[~np.eye(m, dtype=bool)].reshape(m, m - 1, 1)
        hop_worst = np.max(np.abs(hops - off), initial=0.0)
        worst = np.maximum(worst, hop_worst)
        # when every signed hop equals its x entry exactly, every difference
        # below is exactly zero and would not change `worst`
        for b in range(m - 2 if hop_worst else 0):
            edge = hops.reshape(m, m - 1, -1, 2, 1 << b)
            worst = np.maximum(worst, np.max(np.abs(edge[:, :, :, 1] - edge[:, :, :, 0])))
    return float(worst)


def _check_d_gamma(space: FockSpace, data: np.ndarray, x: np.ndarray) -> None:
    """Raise unless `data` satisfies the commutation rule and has zero vacuum expectation.

    Both hold to 1e-10 plus the first-order rounding of the diagonal slots:
    each slot sums at most 2m entries of diag(x) (its filled modes and the
    sea trace), and a defect subtracts two slots and x_jj, which stays below
    8 (m + 1) eps sum_k |x_kk|. Every other entry of the defect is exact.
    """
    slack = 8 * (space.modes + 1) * float(np.sum(np.finfo(float).eps * np.abs(np.diag(x))))
    bound = DGAMMA_TOL + slack
    dev = _commutation_defect(space, data, x)
    _require_finite(dev, "commutation defect")
    if not dev <= bound:
        raise InternalConsistencyError(f"commutation defect {dev:.3e} exceeds {bound:.3e}")
    expectation = data[space.check_indptr[space.sea_mask]]
    if not abs(expectation) <= bound:
        raise InternalConsistencyError(f"vacuum expectation {expectation!r} exceeds {bound:.3e}")


def _d_gamma_data(space: FockSpace, x: np.ndarray) -> np.ndarray:
    """Verified data of d_gamma(x) on the hop tables, in their CSR layout.

    One gather of x through the hop tables, the occupation sums on the
    diagonal slots, then `_check_d_gamma` on the result.
    """
    diag = np.diag(x)
    with np.errstate(over="ignore", invalid="ignore"):
        data = x.ravel()[space.hop_pairs] * space.hop_signs
        data[space.hop_indptr[:-1]] = space.occupation @ diag - diag[space.pol.plus_dim:].sum()
    _require_finite(data, "d_gamma entries")
    _check_d_gamma(space, data, x)
    return data


def _d_gamma_csr(space: FockSpace, x: np.ndarray):
    """Verified d_gamma(x) as a scipy.sparse CSR matrix, for the Schwinger products."""
    data = _d_gamma_data(space, x)
    # imported on first use: scipy.sparse adds about 0.3 s to `import anomlab`
    from scipy import sparse

    return sparse.csr_matrix((data, space.hop_cols, space.hop_indptr), shape=(space.dim,) * 2)


# one writer block, and at most one thread, per 32 MiB of dense output
_BLOCK_BYTES = 32 << 20


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_entries(flat: np.ndarray, pos: np.ndarray, data: np.ndarray, start: int, stop: int) -> None:
    """Write hop-table entries start:stop of `data` at their flat positions."""
    flat[pos[start:stop]] = data[start:stop]


def _dense(space: FockSpace, data: np.ndarray) -> np.ndarray:
    """The dense matrix of hop-table data, written in contiguous row blocks.

    A fresh zero array is faulted in page by page on first write, which is
    most of the cost at m = 12. numpy releases the GIL in the fancy-index
    assignment, so the blocks after the first go to worker threads and their
    page faults are taken in parallel; the first block, or a lone one, is
    written by the caller. Every worker is joined, and its exception
    re-raised, before this returns.
    `data` is changed in place: a -0.0 in it becomes 0.0.
    """
    dim, indptr = space.dim, space.hop_indptr
    out = np.zeros((dim, dim), dtype=np.complex128)
    flat = out.reshape(-1)
    # a hop of a zero entry of x may be -0.0; the sum into zeros that
    # densifies a CSR matrix stores it as 0.0, and so does this
    data += 0.0
    # intp positions row * dim + col, which the assignment reads without a
    # cast; made here so that the workers allocate nothing
    pos = np.repeat(np.arange(dim) * dim, np.diff(indptr))
    pos += space.hop_cols
    blocks = max(1, min(_cpus(), out.nbytes // _BLOCK_BYTES))
    failed = []

    def write(start, stop):
        try:
            _write_entries(flat, pos, data, start, stop)
        except BaseException as exc:  # re-raised in the caller below
            failed.append(exc)

    ends = [int(indptr[dim * b // blocks]) for b in range(blocks + 1)]
    started = []
    try:
        for span in zip(ends[1:-1], ends[2:]):
            worker = threading.Thread(target=write, args=span)
            worker.start()
            started.append(worker)
        _write_entries(flat, pos, data, ends[0], ends[1])
    finally:
        for worker in started:
            worker.join()
    if failed:
        raise failed[0]
    return out


def _one_particle_operator(space: FockSpace, x) -> np.ndarray:
    return as_square(x, space.modes, "one-particle operator")


def d_gamma(space: FockSpace, x) -> FockOperator:
    """Normal-ordered second quantization of the one-particle operator x.

    Defined by [d_gamma(x), psi*(v)] = psi*(x v) together with a vanishing
    vacuum expectation; both are re-verified after construction, to 1e-10
    plus the rounding of the diagonal sums over diag(x). The verified hop
    data is written straight into the dense matrix, by worker threads in row
    blocks when the output spans several 32-MiB blocks and several CPUs are
    free; no sparse matrix is built.
    """
    xm = _one_particle_operator(space, x)
    return FockOperator(space=space, matrix=_dense(space, _d_gamma_data(space, xm)))


def schwinger_detail(space: FockSpace, x, y) -> dict:
    """Schwinger scalar plus its scalarness residue.

    The defect [dG(x), dG(y)] - dG([x, y]) is formed from the verified sparse
    operators; the residue is its Frobenius distance from the scalar. A
    bracket, operator or defect that is not finite raises FloatOverflowError.

    The residue must stay below 1e-9 plus (m + 1)^2 eps |dG(x)|_F |dG(y)|_F,
    a first-order bound on its rounding: each entry of the two products sums
    at most 1 + m^2/4 terms, each diagonal slot at most 2m entries of the
    diagonal, and each entry of [x, y] 2m products, so the allowance scales
    with |x| |y|.
    """
    xm = _one_particle_operator(space, x)
    ym = _one_particle_operator(space, y)
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = xm @ ym - ym @ xm
    _require_finite(bracket, "[x, y]")
    dx = _d_gamma_csr(space, xm)
    dy = _d_gamma_csr(space, ym)
    dxy = _d_gamma_csr(space, bracket)
    from scipy.sparse import identity  # loaded by _d_gamma_csr by now

    with np.errstate(over="ignore", invalid="ignore"):
        s = dx @ dy - dy @ dx - dxy
        c = complex(s.diagonal().sum()) / space.dim
        residue = float(np.linalg.norm((s - c * identity(space.dim, format="csr")).data))
    _require_finite(s.data, "Schwinger defect operator")
    _require_finite([c, residue], "Schwinger scalar or residue")
    eps = np.finfo(float).eps
    bound = SCALARNESS_TOL + (space.modes + 1) ** 2 * eps * np.linalg.norm(dx.data) * np.linalg.norm(dy.data)
    if not residue <= bound:
        raise InternalConsistencyError(
            f"defect operator is not scalar: residue {residue:.3e} exceeds {bound:.3e}"
        )
    return {"value": c, "residue": residue}


def schwinger_term(space: FockSpace, x, y) -> complex:
    """Scalar defect of second quantization: [dG(x), dG(y)] - dG([x, y])."""
    return schwinger_detail(space, x, y)["value"]


@dataclass(frozen=True)
class SpectralBackground:
    """Hermitian one-particle operator whose spectrum defines polarizations."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square(self.matrix)
        object.__setattr__(self, "matrix", m)
        hermitian_eigensystem(m)  # validates Hermitian within tolerance

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        return hermitian_eigensystem(self.matrix)


def schwinger_over_backgrounds(x, y, backgrounds) -> list:
    """Schwinger scalars of (x, y) in the polarization of each background.

    Each background is eigendecomposed; positive eigenmodes form the plus
    side. Backgrounds with an eigenvalue within 1e-8 of zero are rejected.
    """
    xm = as_square(x)
    n = xm.shape[0]
    ym = as_square(y, n, "y")
    values = []
    for bg in backgrounds:
        matrix = bg.matrix if isinstance(bg, SpectralBackground) else bg
        w, v = hermitian_eigensystem(as_square(matrix, n, "background"))
        if np.min(np.abs(w)) <= LEVEL_MARGIN:
            raise GapError("background has an eigenvalue within 1e-8 of zero")
        pos = np.nonzero(w > 0)[0]
        neg = np.nonzero(w < 0)[0]
        frame = np.hstack([v[:, pos], v[:, neg]])
        k = int(pos.size)
        space = build_car(n, Polarization(n, k))
        xr = frame.conj().T @ xm @ frame
        yr = frame.conj().T @ ym @ frame
        values.append(schwinger_term(space, xr, yr))
    return values


def bogoliubov_implement(space: FockSpace, x) -> FockOperator:
    """exp(d_gamma(x)) for anti-Hermitian x; conjugation implements exp(x).

    Every hop keeps the particle number, so d_gamma(x) is block diagonal over
    the number sectors and is exponentiated one C(m, k) x C(m, k) block at a time.
    """
    xm = as_square(x)
    dev = float(np.max(np.abs(xm + xm.conj().T)))
    if dev > UNITARY_TOL:
        raise SymmetryError(f"generator is not anti-Hermitian within {UNITARY_TOL}")
    gen = d_gamma(space, xm).matrix
    out = np.zeros_like(gen)
    number = space.occupation.sum(axis=1)
    for k in range(space.modes + 1):
        sector = np.flatnonzero(number == k)
        block = np.ix_(sector, sector)
        out[block] = matrix_exponential(gen[block])
    return FockOperator(space=space, matrix=out)


@dataclass(frozen=True)
class VacuumLine:
    """Spectral-window line: the orthonormal eigenvectors of the window, as columns."""

    background: SpectralBackground
    lo: float
    hi: float
    frame: np.ndarray


def _check_level(w: np.ndarray, level: float) -> None:
    level = real(level, "level", CoverMembershipError)  # +-inf lies past the whole spectrum
    if w.size and float(np.min(np.abs(w - level))) <= LEVEL_MARGIN:
        raise CoverMembershipError(
            f"level {level} is within 1e-8 of the spectrum"
        )


def vacuum_line(bg: SpectralBackground, lo: float, hi: float) -> VacuumLine:
    """Line of the spectral window (lo, hi): the eigenvectors with eigenvalue in it.

    Each level must lie farther than 1e-8 from the spectrum; the frame has
    one column per eigenvalue in (lo, hi), so its width is the window's
    dimension.
    """
    lo, hi = (real(level, "level", CoverMembershipError) for level in (lo, hi))
    if not lo < hi:
        raise DomainError(f"window requires lo < hi, got ({lo}, {hi})")
    w, v = bg.eigensystem()
    _check_level(w, lo)
    _check_level(w, hi)
    inside = np.nonzero((w > lo) & (w < hi))[0]
    return VacuumLine(background=bg, lo=lo, hi=hi, frame=v[:, inside])


def gerbe_triple_check(bg: SpectralBackground, l1: float, l2: float, l3: float) -> complex:
    """Unit-modulus witness comparing the (l1,l3) line with the glued (l1,l2)+(l2,l3) one.

    The witness is the determinant of the change of basis between the two
    frames of the same window; its modulus must be 1 within 1e-10. Window
    dimensions are required to add exactly.
    """
    l1, l2, l3 = (real(level, "level", CoverMembershipError) for level in (l1, l2, l3))
    if not (l1 < l2 < l3):
        raise DomainError(f"levels must increase: got ({l1}, {l2}, {l3})")
    low = vacuum_line(bg, l1, l2)
    high = vacuum_line(bg, l2, l3)
    full = vacuum_line(bg, l1, l3)
    glued = np.hstack([low.frame, high.frame])
    if glued.shape[1] != full.frame.shape[1]:
        raise InternalConsistencyError(
            f"window dimensions do not add: {low.frame.shape[1]}+{high.frame.shape[1]} "
            f"vs {full.frame.shape[1]}"
        )
    if full.frame.shape[1] == 0:
        return 1.0 + 0.0j
    witness = complex(np.linalg.det(full.frame.conj().T @ glued))
    if abs(abs(witness) - 1.0) > WITNESS_TOL:
        raise InternalConsistencyError(
            f"witness modulus {abs(witness):.12f} deviates from 1 beyond {WITNESS_TOL}"
        )
    return witness


def vacuum_at_level(space: FockSpace, bg: SpectralBackground, level: float) -> np.ndarray:
    """Fill every eigenmode below `level`, in ascending eigenvalue order."""
    w, v = hermitian_eigensystem(as_square(bg.matrix, space.modes, "background"))
    _check_level(w, level)
    filled = int(np.sum(w < level))
    state = np.zeros(space.dim, dtype=np.complex128)
    state[0] = 1.0
    for i in reversed(range(filled)):
        state = apply_creation(space, v[:, i], state)
    return state
