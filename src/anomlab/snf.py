"""Integer Smith normal form with tracked transforms.

Produces S = U A V with U, V unimodular and S diagonal with a divisibility
chain d_1 | d_2 | ... Pivots are chosen by smallest nonzero absolute value
with row-major tie-break, which keeps coefficient growth negligible on the
near-unimodular face matrices this package feeds in. Arithmetic runs on
int64 with an overflow guard and falls back to exact object (big-int)
arrays if the guard ever trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GUARD = 1 << 59
_PRODUCT_LIMIT = 1 << 62  # a guarded entry plus such a product stays below 2^63


class _Overflow(Exception):
    pass


@dataclass
class SNFResult:
    """factors has min(rows, cols) entries (zeros padded past the rank)."""

    factors: list
    rank: int
    u: object
    v: object
    vinv: object


def _pivot_int64(a: np.ndarray, t: int):
    sub = a[t:, t:]
    rows, cols = np.nonzero(sub)
    if rows.size == 0:
        return None
    vals = np.abs(sub[rows, cols])
    k = np.lexsort((cols, rows, vals))[0]
    return int(rows[k]) + t, int(cols[k]) + t


def _pivot_object(a: np.ndarray, t: int):
    best = None
    rows, cols = a.shape
    for i in range(t, rows):
        for j in range(t, cols):
            val = a[i, j]
            if val == 0:
                continue
            key = (abs(val), i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
    if best is None:
        return None
    return best[1], best[2]


def _reduce(a, track_u, track_v, track_vinv, object_mode):
    rows, cols = a.shape
    eye = (lambda n: np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                              dtype=object)) if object_mode else (
        lambda n: np.eye(n, dtype=np.int64))
    u = eye(rows) if track_u else None
    v = eye(cols) if track_v else None
    vinv = eye(cols) if track_vinv else None

    def guard():
        if object_mode:
            return
        if np.max(np.abs(a), initial=0) > _GUARD:
            raise _Overflow
        for m in (u, v, vinv):
            if m is not None and np.max(np.abs(m), initial=0) > _GUARD:
                raise _Overflow

    def check_products(q, *blocks, terms=1):
        # sums of `terms` products q * entry could wrap int64 before guard() sees them
        if object_mode:
            return
        qmax = int(np.max(np.abs(q))) * terms
        for block in blocks:
            if block is not None and qmax * int(np.max(np.abs(block), initial=0)) >= _PRODUCT_LIMIT:
                raise _Overflow

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

    pivot = _pivot_object if object_mode else _pivot_int64

    guard()
    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = pivot(a, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
            if u is not None:
                u[t, :] = -u[t, :]
        while True:
            p = a[t, t]
            col = a[t + 1:, t]
            if np.any(col != 0):
                q = col // p
                if np.any(q != 0):
                    check_products(q, a[t, :], None if u is None else u[t, :])
                    a[t + 1:, :] -= q[:, None] * a[t, :]
                    if u is not None:
                        u[t + 1:, :] -= q[:, None] * u[t, :]
                    guard()
                col = a[t + 1:, t]
                if np.any(col != 0):
                    # positive remainder smaller than the pivot: promote it
                    nz = np.nonzero(col)[0]
                    k = int(nz[np.argmin(col[nz])])
                    swap_rows(t, t + 1 + k)
                    continue
            row = a[t, t + 1:]
            if np.any(row != 0):
                p = a[t, t]
                q = row // p
                if np.any(q != 0):
                    check_products(q, a[:, t], None if v is None else v[:, t])
                    # the vinv update sums up to len(q) such products
                    check_products(q, None if vinv is None else vinv[t + 1:, :], terms=len(q))
                    a[:, t + 1:] -= a[:, t:t + 1] * q[None, :]
                    if v is not None:
                        v[:, t + 1:] -= v[:, t:t + 1] * q[None, :]
                    if vinv is not None:
                        vinv[t, :] = vinv[t, :] + q @ vinv[t + 1:, :]
                    guard()
                row = a[t, t + 1:]
                if np.any(row != 0):
                    nz = np.nonzero(row)[0]
                    k = int(nz[np.argmin(row[nz])])
                    swap_cols(t, t + 1 + k)
                    continue
            # pivot row and column are clear; force divisibility of the rest
            rest = a[t + 1:, t + 1:]
            if rest.size:
                rem = rest % a[t, t]
                if np.any(rem != 0):
                    bad_rows = np.nonzero(np.any(rem != 0, axis=1))[0]
                    i2 = int(bad_rows[0])
                    a[t, :] += a[t + 1 + i2, :]
                    if u is not None:
                        u[t, :] = u[t, :] + u[t + 1 + i2, :]
                    guard()
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
    except (_Overflow, OverflowError):
        work = np.array(
            [[int(base[i, j]) for j in range(base.shape[1])] for i in range(base.shape[0])],
            dtype=object,
        )
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
    total = aug.shape[1]
    w = np.zeros(total, dtype=np.int64)
    for i in range(min(rows, total)):
        f = res.factors[i]
        if f == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % f != 0:
                return None
            w[i] = y[i] // f
    tail = y[min(rows, total):]
    if tail.size and np.any(tail != 0):
        return None
    x = (res.v @ w)[:cols]
    return np.mod(x, modulus).astype(np.int64)
