"""Orbit blocks and the coset walk with one modular inverse per label, kept
as a test oracle.

These are `torus._orbit_blocks`, `torus.orbit_ids` and
`torus.coset_decomposition` as they ran before they read their inverses off
one unit-inverse table per level: every orbit block inverts each unit w mod
p^(j-v) with `pow`, and the walk steps by fgen = (1 : p) from every row
start, renormalizing each step with `pow` as `_canonical_pair` does.  They
serve only to cross-check the table-driven versions.  `label_position` is
the arithmetic place of a canonical label in `coset_labels`, which `torus`
no longer needs since systems store each label at its walk step.
"""

from thetaforge.errors import InvariantViolation
from thetaforge.torus import (
    QuadraticTorus,
    _canonical_pair,
    _crt_exponent,
    _element_order,
    _label_mul,
    _label_pow,
    coset_labels,
    filtration_order,
)
from thetaforge.tree import digit_reversals, origin_id_offset


def label_position(p: int, j: int, x: int, y: int) -> int:
    """The place of the canonical level-j label (x : y) in coset_labels:
    (x : 1) is at x and (1 : y), p | y, at p^j + y / p."""
    if j == 0:
        return 0
    return x if y % p else p**j + y // p


def pow_orbit_blocks(p: int, d: int, j: int):
    """The blocks (a, b, us, at) of torus._orbit_blocks, each w^(-1) mod
    p^(j-v) computed by pow."""
    mod = p**j
    yield 0, j, [0], slice(0, 1)
    for v in range(j):
        r, q = p ** (j - v), p**v
        for c in range(1, p):
            us = [d * pow(w, -1, r) % r for w in range(c, r, p)]
            yield j - v, v, us, slice(q * c, mod, q * p)
    if j:
        yield j, 0, [d * y % mod for y in range(0, mod, p)], slice(mod, mod + mod // p)


def pow_orbit_ids(torus: QuadraticTorus, j: int) -> list:
    """torus.orbit_ids read off pow_orbit_blocks."""
    p = torus.p
    rev = digit_reversals(p, j)
    ids = [0] * filtration_order(torus, j)
    for a, b, us, at in pow_orbit_blocks(p, torus.d, j):
        base, q = origin_id_offset(p, a, b), p ** (j - a)
        ids[at] = [base + rev[u] // q for u in us]
    return ids


def pow_coset_decomposition(torus: QuadraticTorus, j: int) -> list:
    """torus.coset_decomposition by one walk over the group, one label
    multiplication and one pow inverse per label."""
    p = torus.p
    if j == 0:
        return [0]
    torsion_order = p + 1
    free_order = p ** (j - 1)
    ident = _canonical_pair(p, j, 1, 0)
    alpha_t = _crt_exponent(torsion_order, free_order)
    labels = coset_labels(torus, j)
    tgen = None
    for lbl in labels:
        cand = _label_pow(torus, j, lbl, alpha_t)
        if _element_order(torus, j, cand, torsion_order + 1) == torsion_order:
            tgen = cand
            break
    if tgen is None:
        raise InvariantViolation("torsion part of the coset group must be cyclic")
    mod, dp = p**j, torus.d * p
    steps, row, s = [-1] * len(labels), ident, 0
    for _ in range(torsion_order):
        x, y = row
        at = label_position(p, j, x, y)
        for _ in range(free_order):
            steps[at] = s
            s += 1
            # times fgen = (1 : p), renormalized as _canonical_pair does
            x, y = (x + dp * y) % mod, (p * x + y) % mod
            if y % p:
                x, y = x * pow(y, -1, mod) % mod, 1
                at = x
            else:
                x, y = 1, y * pow(x, -1, mod) % mod
                at = mod + y // p
        row = _label_mul(torus, j, row, tgen)
    if -1 in steps:
        raise InvariantViolation(
            f"torsion x free walk does not cover the level-{j} cosets exactly once"
        )
    return steps
