"""Integer Smith normal form with tracked transforms.

Produces S = U A V with U, V unimodular and S diagonal with a divisibility
chain d_1 | d_2 | ... Pivots are chosen by smallest nonzero absolute value
with row-major tie-break, which keeps coefficient growth negligible on the
near-unimodular face matrices this package feeds in. Each elimination step
reads and writes only the entries it changes: the rows (row clear) or
columns (column clear) whose quotient is nonzero, in A and in the
transforms. The pivot column is clear by the time of the column clear, so
that step changes only row t of A and row t of V^-1.

Arithmetic runs on int64 and falls back to exact object (big-int) arrays
when a guard trips. Both run the same pivot routine, whose numpy calls
work on either dtype, so they pick the same pivots. Two guards keep every
stored entry at most 2^59, so no int64 sum wraps: before each multiply,
max|q| times the largest entry it multiplies (times the number of summed
terms for V^-1) must stay below 2^62; after each write, the entries just
written must stay at most 2^59.
The input is scanned once at the start; entries not written since then
keep their bound, so they need no second look.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GUARD = 1 << 59
_PRODUCT_LIMIT = 1 << 62  # a guarded entry plus such a product stays below 2^63


@dataclass
class SNFResult:
    """factors has min(rows, cols) entries (zeros padded past the rank)."""

    factors: list
    rank: int
    u: object
    v: object
    vinv: object


def _pivot(a: np.ndarray, t: int):
    """Pivot (row, col) in a[t:, t:], int64 or object, or None when it is zero."""
    sub = a[t:, t:]
    # a unit is a smallest entry, so the first one in row-major order is the
    # pivot; scan row blocks of doubling height to stop early
    start, height = 0, 8
    while start < sub.shape[0]:
        units = np.abs(sub[start:start + height]) == 1
        k = int(np.argmax(units))
        if units.flat[k]:
            i, j = divmod(k, sub.shape[1])
            return start + i + t, j + t
        start, height = start + height, 2 * height
    rows, cols = np.nonzero(sub)
    if rows.size == 0:
        return None
    vals = np.abs(sub[rows, cols])
    k = np.lexsort((cols, rows, vals))[0]
    return int(rows[k]) + t, int(cols[k]) + t


def _reduce(a, track_u, track_v, track_vinv, object_mode):
    rows, cols = a.shape
    u = np.eye(rows, dtype=a.dtype) if track_u else None
    v = np.eye(cols, dtype=a.dtype) if track_v else None
    vinv = np.eye(cols, dtype=a.dtype) if track_vinv else None

    def guard(block):
        # every stored entry stays <= _GUARD: the input is scanned once, then each block just written
        if not object_mode and np.abs(block).max(initial=0) > _GUARD:
            raise OverflowError

    def check_products(q, *blocks, terms=1):
        # sums of `terms` products q * entry could wrap int64 before guard() sees them;
        # no stored entry exceeds _GUARD, so small quotients need no scan
        if object_mode:
            return
        qmax = int(np.abs(q).max()) * terms
        if qmax * _GUARD < _PRODUCT_LIMIT:
            return
        for block in blocks:
            if block is not None and qmax * int(np.abs(block).max(initial=0)) >= _PRODUCT_LIMIT:
                raise OverflowError

    def swap_rows(i, j):
        if i == j:
            return
        a[[i, j], :] = a[[j, i], :]
        if u is not None:
            u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        if i == j:
            return
        a[:, [i, j]] = a[:, [j, i]]
        if v is not None:
            v[:, [i, j]] = v[:, [j, i]]
        if vinv is not None:
            vinv[[i, j], :] = vinv[[j, i], :]

    guard(a)
    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _pivot(a, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
            if u is not None:
                u[t, :] = -u[t, :]
        while True:
            # rows and columns before t are clear, so row t is zero left of t
            p = a[t, t]
            q = a[t + 1:, t] // p
            hit = q.nonzero()[0]
            if hit.size:
                q = q[hit]
                hit += t + 1
                check_products(q, a[t, :], None if u is None else u[t, :])
                a[hit, t:] -= q[:, None] * a[t, t:]
                guard(a[hit, t:])
                if u is not None:
                    u[hit, :] -= q[:, None] * u[t, :]
                    guard(u[hit, :])
            col = a[t + 1:, t]
            nz = col.nonzero()[0]
            if nz.size:
                # positive remainder smaller than the pivot: promote it
                k = int(nz[np.argmin(col[nz])])
                swap_rows(t, t + 1 + k)
                continue
            # column t is now zero off the pivot, so clearing row t changes only
            # row t of a, the hit columns of v and row t of vinv
            q = a[t, t + 1:] // p
            hit = q.nonzero()[0]
            if hit.size:
                check_products(q, a[:, t], None if v is None else v[:, t])
                # the vinv update sums up to len(q) such products
                check_products(q, None if vinv is None else vinv[t + 1:, :], terms=len(q))
                q = q[hit]
                hit += t + 1
                a[t, hit] -= p * q
                guard(a[t, hit])
                if v is not None:
                    v[:, hit] -= v[:, t:t + 1] * q[None, :]
                    guard(v[:, hit])
                if vinv is not None:
                    vinv[t, :] = vinv[t, :] + q @ vinv[hit, :]
                    guard(vinv[t, :])
            row = a[t, t + 1:]
            nz = row.nonzero()[0]
            if nz.size:
                k = int(nz[np.argmin(row[nz])])
                swap_cols(t, t + 1 + k)
                continue
            # pivot row and column are clear; force divisibility of the rest (a unit divides all)
            rest = a[t + 1:, t + 1:]
            if a[t, t] != 1 and rest.size:
                rem = rest % a[t, t]
                if np.any(rem != 0):
                    bad_rows = np.nonzero(np.any(rem != 0, axis=1))[0]
                    i2 = int(bad_rows[0])
                    a[t, :] += a[t + 1 + i2, :]
                    guard(a[t, :])
                    if u is not None:
                        u[t, :] = u[t, :] + u[t + 1 + i2, :]
                        guard(u[t, :])
                    continue
            break
        t += 1

    factors = [int(a[i, i]) for i in range(limit)]
    rank = sum(1 for f in factors if f != 0)
    return SNFResult(factors=factors, rank=rank, u=u, v=v, vinv=vinv)


def smith_normal_form(mat, want_u=False, want_v=False, want_vinv=False) -> SNFResult:
    base = np.asarray(mat)
    if base.ndim != 2:
        raise ValueError(f"expected a 2-d integer matrix, got ndim={base.ndim}")
    try:
        work = np.array(base, dtype=np.int64, copy=True)
        return _reduce(work, want_u, want_v, want_vinv, object_mode=False)
    except OverflowError:  # a guard tripped, or an entry is beyond int64
        # Python ints throughout; floats truncate as in the int64 cast
        work = np.frompyfunc(int, 1, 1)(base)
        return _reduce(work, want_u, want_v, want_vinv, object_mode=True)


def solve_mod(mat, rhs, modulus: int):
    """One integer solution x of mat @ x = rhs (mod modulus), or None.

    Works over the augmented system [mat | modulus I]; the returned x is
    reduced mod modulus.
    """
    a = np.asarray(mat)
    b = np.asarray(rhs).reshape(-1)
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError(f"rhs length {b.shape[0]} does not match {rows} rows")
    aug = np.hstack([a, modulus * np.eye(rows, dtype=a.dtype)])
    res = smith_normal_form(aug, want_u=True, want_v=True)
    y = res.u @ b
    # aug has at least as many columns as rows, so each y_i meets a factor f_i:
    # solvable iff f_i divides y_i, and f_i = 0 admits only y_i = 0
    f = np.array(res.factors, dtype=y.dtype)
    unit = np.where(f == 0, 1, f)
    if np.any(np.where(f == 0, y, y % unit)):
        return None
    w = np.zeros(aug.shape[1], dtype=np.int64)
    w[:rows] = y // unit
    x = (res.v @ w)[:cols]
    return np.mod(x, modulus).astype(np.int64)
