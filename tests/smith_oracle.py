"""Exact linear algebra over Z/p^k with valuation pivoting: a dense Smith
solver kept as an independent test oracle for exact omega division.

The local ring Z/p^k has zero divisors, so solving relies on a diagonal
(Smith-style) reduction: unimodular row operations applied to the right-hand
side, column operations accumulated in a transform matrix.  Residues stay in
Python-int numpy arrays only when they fit; object dtype keeps everything
exact otherwise.
"""

from __future__ import annotations

import numpy as np

from thetaforge.errors import UnsupportedDelta


def _dtype_for(modulus: int):
    # row ops multiply an entry (< modulus) by a quotient (< modulus) and add:
    # need modulus^2 * small_factor to fit in int64
    return np.int64 if modulus < 2**30 else object


def _as_matrix(rows, modulus):
    arr = np.array(rows, dtype=_dtype_for(modulus))
    return arr % modulus


def _identity(m, dtype):
    V = np.zeros((m, m), dtype=dtype)
    for i in range(m):
        V[i, i] = 1
    return V


def _find_pivot(a, i, p, k):
    """Position and valuation of a minimal-valuation entry of a[i:, i:]."""
    sub = a[i:, i:]
    if sub.size == 0:
        return None
    for v in range(k):
        mask = (sub % p ** (v + 1)) != 0
        if mask.any():
            r, c = np.argwhere(mask)[0]
            return int(r) + i, int(c) + i, v
    return None


def _diagonalize(a, b, p, k):
    """In-place Smith reduction of a (n x m); row ops mirrored on b (n x r).

    Returns (pivvals, V) with pivvals[i] the exponent of the i-th diagonal
    pivot and V the accumulated column transform.
    """
    mod = p**k
    n, m = a.shape
    V = _identity(m, a.dtype)
    pivots = []
    for i in range(min(n, m)):
        found = _find_pivot(a, i, p, k)
        if found is None:
            break
        bi, bj, best = found
        a[[i, bi]] = a[[bi, i]]
        b[[i, bi]] = b[[bi, i]]
        a[:, [i, bj]] = a[:, [bj, i]]
        V[:, [i, bj]] = V[:, [bj, i]]
        pe = p**best
        unit = int(a[i, i]) // pe
        inv = pow(unit, -1, mod)
        a[i] = (a[i] * inv) % mod
        b[i] = (b[i] * inv) % mod
        # column clear: every trailing entry is divisible by the pivot power
        q = a[:, i] // pe
        q[i] = 0
        a -= np.outer(q, a[i])
        a %= mod
        b -= np.outer(q, b[i])
        b %= mod
        # row clear via column operations, mirrored on V
        qc = a[i] // pe
        qc[i] = 0
        a -= np.outer(a[:, i], qc)
        a %= mod
        V -= np.outer(V[:, i], qc)
        V %= mod
        pivots.append(best)
    return pivots, V


def solve(a_rows, b_vec, p: int, k: int):
    """One solution x of A x = b over Z/p^k, or None when none exists."""
    mod = p**k
    a = _as_matrix(a_rows, mod)
    n, m = a.shape
    b = _as_matrix([[x] for x in b_vec], mod)
    pivots, V = _diagonalize(a, b, p, k)
    y = np.zeros(m, dtype=a.dtype)
    for i in range(n):
        rhs = int(b[i, 0])
        if i < len(pivots):
            e = pivots[i]
            if rhs % p**e != 0:
                return None
            y[i] = (rhs // p**e) % mod
        elif rhs % mod != 0:
            return None
    x = (V @ y) % mod
    return [int(v) for v in x]


def kernel(a_rows, p: int, k: int):
    """Generators of {x : A x = 0} over Z/p^k."""
    mod = p**k
    a = _as_matrix(a_rows, mod)
    n, m = a.shape
    b = np.zeros((n, 1), dtype=a.dtype)
    pivots, V = _diagonalize(a, b, p, k)
    gens = []
    for i in range(m):
        if i < len(pivots):
            e = pivots[i]
            if e == 0:
                continue
            scale = p ** (k - e)
        else:
            scale = 1
        g = (V[:, i] * scale) % mod
        if any(int(v) for v in g):
            gens.append([int(v) for v in g])
    return gens


def in_column_span(a_rows, b_vec, p: int, k: int) -> bool:
    return solve(a_rows, b_vec, p, k) is not None


def multiplication_matrix(g):
    """Rows of the matrix of x -> g * x on the layer ring, in the group-element
    basis (a circulant)."""
    if g.delta != 1:
        raise UnsupportedDelta("multiplication matrices are built for delta = 1")
    size = g.group_size
    base = list(g.coeffs)
    return [[base[(r - c) % size] for c in range(size)] for r in range(size)]
