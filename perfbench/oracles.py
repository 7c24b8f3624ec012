"""Independent checks of anomlab's outputs, computed without anomlab.

Each oracle rests on a closed form or on a construction of the benchmark's
own: Lundberg's quarter-trace formula for the Schwinger term, a direct
Jordan-Wigner build of the CAR operators, spectral closed forms for det_p
and omega_p, the universal coefficient theorem with a table of Schur
multipliers for H^2, and gcds of minors for Smith normal forms.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from inputs import CATALOG

# ---------------------------------------------------------------------------
# Fock layer


def schwinger_closed_form(x, y, plus_dim):
    """c(X, Y) = 1/4 Tr(eps [eps, X] [eps, Y]) with eps = +1 on the first plus_dim modes."""
    eps = np.full(x.shape[0], -1.0)
    eps[:plus_dim] = 1.0
    cx = eps[:, None] * x - x * eps[None, :]
    cy = eps[:, None] * y - y * eps[None, :]
    return complex(np.sum(eps[:, None] * cx * cy.T)) / 4.0


def _popcount(v, bits):
    return sum((v >> b) & 1 for b in range(bits))


def creators(modes):
    """Dense Jordan-Wigner creation matrices c_i^* on the occupation basis.

    Basis index = occupation bitmask; c_i^* fills mode i with sign
    (-1)^(number of filled modes below i).
    """
    dim = 1 << modes
    s = np.arange(dim)
    out = []
    for i in range(modes):
        empty = s[((s >> i) & 1) == 0]
        c = np.zeros((dim, dim))
        c[empty | (1 << i), empty] = 1.0 - 2.0 * (_popcount(empty & ((1 << i) - 1), modes) & 1)
        out.append(c)
    return out


def d_gamma_support(modes):
    """Where dGamma(X) = sum X_ij c_i^* c_j - (sea trace) 1 can be nonzero.

    Returns (rows, cols, inverse, i, j, sign): the unique positions, and for
    each term sign * X[i, j] the index of its position in them. Every
    diagonal position is present, since the sea trace shifts them all.
    """
    dim = 1 << modes
    s = np.arange(dim)
    rows, cols, ii, jj, sign = [s], [s], [np.zeros_like(s)], [np.zeros_like(s)], [np.zeros(dim)]
    for i in range(modes):
        for j in range(modes):
            if i == j:
                src = s[((s >> j) & 1) == 1]
                dst, sgn = src, np.ones(src.size)
            else:
                src = s[(((s >> j) & 1) == 1) & (((s >> i) & 1) == 0)]
                mid = src ^ (1 << j)
                parity = _popcount(src & ((1 << j) - 1), modes) + _popcount(mid & ((1 << i) - 1), modes)
                dst, sgn = mid | (1 << i), 1.0 - 2.0 * (parity & 1)
            rows.append(dst)
            cols.append(src)
            ii.append(np.full(src.size, i))
            jj.append(np.full(src.size, j))
            sign.append(sgn)
    key = np.concatenate(rows) * dim + np.concatenate(cols)
    uniq, inverse = np.unique(key, return_inverse=True)
    return uniq // dim, uniq % dim, inverse, np.concatenate(ii), np.concatenate(jj), np.concatenate(sign)


def d_gamma_values(support, x, plus_dim):
    """The oracle's dGamma(X) at the support positions, in their order."""
    rows, cols, inverse, ii, jj, sign = support
    total = np.zeros(rows.size, dtype=np.complex128)
    np.add.at(total, inverse, sign * x[ii, jj])
    total[rows == cols] -= np.trace(x[plus_dim:, plus_dim:])
    return total


def bogoliubov_gap(u, x, vectors, cs):
    """max over v of |U c^*(v) U^* - c^*(e^X v)|, plus |U^* U - 1|, both max-norm."""
    ex = scipy.linalg.expm(x)
    worst = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    for v in vectors:
        lhs = u @ sum(vi * c for vi, c in zip(v, cs)) @ u.conj().T
        rhs = sum(wi * c for wi, c in zip(ex @ v, cs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# regularized determinants


def log_det_p(lam, p):
    """sum_i [log(1 + lam_i) + sum_{j<p} (-1)^j lam_i^j / j] for real lam_i > -1."""
    total = 0.0
    for v in lam:
        total += math.log1p(v) + sum((-1) ** j * v**j / j for j in range(1, p))
    return total


def log_gap(value_log, exact_log):
    """|a - b| with the imaginary part reduced mod 2 pi, relative to max(1, |b|)."""
    d = complex(value_log) - complex(exact_log)
    imag = math.remainder(d.imag, 2.0 * math.pi)
    if not (math.isfinite(d.real) and math.isfinite(imag)):
        return math.inf
    return math.hypot(d.real, imag) / max(1.0, abs(complex(exact_log)))


def log_omega_p(lam, mu, p):
    """log omega_p for commuting A, B: F(nu) - F(lam) with 1 + nu = (1 + lam)(1 + mu)."""
    nu = [a + b + a * b for a, b in zip(lam, mu)]
    return log_det_p(nu, p) - log_det_p(lam, p)


def safe_log(z):
    z = complex(z)
    return cmath.log(z) if z != 0 else complex(-math.inf, 0.0)


# ---------------------------------------------------------------------------
# H^2 with Z_N coefficients


def _element_orders(table, members):
    e = next(g for g in members if all(table[g][h] == h for h in members))
    out = []
    for g in members:
        k, x = 1, g
        while x != e:
            x = table[x][g]
            k += 1
        out.append(k)
    return tuple(sorted(out))


SCHUR = {
    "Z2xZ2": ((2,), (2, 2)),
    "Z2xZ4": ((2,), (2, 4)),
    "Z2xZ2xZ2": ((2, 2, 2), (2, 2, 2)),
    "S3": ((), (2,)),
    "D4": ((2,), (2, 2)),
}
"""(Schur multiplier M(G), abelianization G^ab) as cyclic orders; Z_n gives ((), (n,))."""


def _group_table():
    """(order, element-order profile) -> (M(G), G^ab) over every subgroup that can occur."""
    out = {(1, (1,)): ((), ())}
    for name, (table, _hom, _k) in CATALOG.items():
        profile = _element_orders(table, range(len(table)))
        out[(len(table), profile)] = SCHUR.get(name, ((), (len(table),)))
    return out


GROUP_DATA = _group_table()


def _prime_powers(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def invariant_factors(cyclic_orders):
    """Invariant factors d_1 | d_2 | ... (> 1, ascending) of a sum of cyclic groups."""
    by_prime = {}
    for n in cyclic_orders:
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    length = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * length
    for powers in by_prime.values():
        for k, q in enumerate(sorted(powers, reverse=True)):
            out[k] *= q
    return tuple(sorted(out))


def group_h2(table, members, modulus):
    """Cyclic orders of H^2(G; Z_N) = Hom(M(G), Z_N) + Ext(G^ab, Z_N)."""
    schur, abel = GROUP_DATA[(len(members), _element_orders(table, members))]
    return [math.gcd(m, modulus) for m in schur + abel]


def action_h2(table, n_points, action, modulus):
    """H^2 of an action groupoid: the sum over orbits of H^2 of a stabilizer."""
    seen = set()
    orders = []
    for a in range(n_points):
        if a in seen:
            continue
        orbit, frontier = {a}, [a]
        while frontier:
            b = frontier.pop()
            for c in action[b]:
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        seen |= orbit
        stab = [g for g in range(len(table)) if action[a][g] == a]
        orders += group_h2(table, stab, modulus)
    return invariant_factors(orders)


# ---------------------------------------------------------------------------
# Smith normal form


def _det(rows):
    """Exact determinant by fraction-free Gaussian elimination on Python ints."""
    a = [[Fraction(v) for v in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def snf_factors(mat):
    """Nonzero invariant factors D_k / D_(k-1), D_k = gcd of the k x k minors."""
    rows, cols = len(mat), len(mat[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                g = math.gcd(g, _det([[int(mat[r][c]) for c in ci] for r in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out
