"""Functions on vertices and directed edges of a ball, the two Hecke-type
operators (adjacency sum and non-backtracking transfer), the passage from a
vertex eigenfunction to an edge eigenfunction, seeded eigen-extensions, and
the congruence-to-a-constant invariant.

A form is one flat tuple of residues mod p^k on one stored ball, indexed by
the ball's ids: by vertex id for a vertex form, and by edge id for an edge
form, where child c gives 2c - 2 for (parent -> c) and 2c - 1 for
(c -> parent).  A slot is None where a partial form, such as the transfer
operator's output, has no value.  Every kernel computes on that tuple by
index: the adjacency sum is a vertex's child sum (tree.child_sums) plus its
parent's value (tree.parent_values), and the continuations of an edge are
the child edges of its target (minus the edge back) plus the target's
parent edge, so the transfer sums are read off one child sum per vertex.
The kernels read ids by tree's rule and the ball's size, never its tree
objects.  The eigenvalue pair EigenData lives in padic, so a system can
hold one without loading this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import EmptyDomain, MissingEigenvalue
from .padic import EigenData, PrecisionInt
from .tree import Ball, ball, ball_size, child_bounds, child_sums, origin, parent_values
from .util import capped_val


@dataclass(frozen=True)
class _Form:
    """Residues mod p^k by the ids of a ball's points, None where there is no value."""

    p: int
    k: int
    domain: Ball
    values: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("precision exponent must be >= 1")
        if len(self.values) != self.slots():
            raise ValueError(f"{type(self).__name__} on a ball of {self.domain.size} "
                             f"vertices takes {self.slots()} values, not {len(self.values)}")

    @property
    def tables(self) -> tuple:
        """The 1-tuple of the dict point -> PrecisionInt(p, k, r) over the
        points with a value, in id order, built anew on each read.  This
        read-only view exists for bench/child.py until ROADMAP item 1 moves
        the benchmark off it; nothing in the package reads it."""
        p, k = self.p, self.k
        return ({w: PrecisionInt(p, k, r)
                 for w, r in zip(self.points(), self.values) if r is not None},)


class VertexForm(_Form):
    """A form on the vertices of its ball, values[i] at vertex id i."""

    def slots(self) -> int:
        return self.domain.size

    def points(self):
        return self.domain.vertices()


class EdgeForm(_Form):
    """A form on the directed edges of its ball, values[e] at edge id e: child
    c gives 2c - 2 for (parent -> c) and 2c - 1 for (c -> parent)."""

    def slots(self) -> int:
        return 2 * self.domain.size - 2

    def points(self):
        return self.domain.directed_edges()


def _every_value(f: VertexForm) -> tuple:
    """The values of a vertex form with one at every vertex; a vertex
    without one is a KeyError."""
    vals = f.values
    if None in vals:
        raise KeyError(list(f.points())[vals.index(None)])
    return vals


def hecke_T(f: VertexForm) -> VertexForm:
    """(T f)(v) = sum of f over the p+1 neighbors of v, on the shrunken ball:
    the sum over the children of v (child_sums), plus the parent's value
    (parent_values) off the center."""
    if f.domain.radius < 1:
        raise EmptyDomain("adjacency sum needs radius >= 1")
    inner = ball(f.domain.center, f.domain.radius - 1)
    p, mod, n = f.p, f.p**f.k, inner.size
    vals = _every_value(f)
    sums = child_sums(p, vals, n)
    # the center has no parent
    out = [sums[0] % mod] + [(s + q) % mod for s, q in zip(sums[1:], parent_values(p, vals, n))]
    return VertexForm(p, f.k, inner, tuple(out))


def hecke_U(f: EdgeForm) -> EdgeForm:
    """(U f)(e) = sum of f over the p continuations of e (the edge back excluded).

    Defined on the edges of the form whose p continuations all carry
    values, so repeated application keeps shrinking the edge set inward.
    Edges into the boundary sphere have no continuations inside the ball and
    are skipped.  The continuations of (s -> t) are the ball's edges leaving
    t, minus (t -> s): with S(t) the sum over t's child edges, U is S(t) on
    (s -> t) when t is s's child, and S(t) - f(t -> s) + f(t -> parent(t))
    when t is s's parent (no parent term at the center).  S(t) and the
    number of t's child edges without a value are child_sums by child id,
    and each half of the output, the (parent -> c) and the (c -> parent)
    edges, is one pass over the child ids.
    """
    b = f.domain
    if b.radius < 1:
        raise EmptyDomain("transfer sum needs radius >= 1")
    p, mod, n = f.p, f.p**f.k, b.size
    inner = ball_size(p, b.radius - 1)  # ids 0..inner-1 are off the boundary sphere
    vals = f.values
    # by child id c: the values of (parent -> c) and (c -> parent), 0 where
    # there is none, and whether there is none; id 0 pads the center, which
    # has no parent edge
    down = [0] + [x or 0 for x in vals[0::2]]
    up = [0] + [x or 0 for x in vals[1::2]]
    no_down = [False] + [x is None for x in vals[0::2]]
    no_up = [False] + [x is None for x in vals[1::2]]
    # by vertex id i < inner: S(i) and its count of child edges without a value
    sums, missing = child_sums(p, down, inner), child_sums(p, no_down, inner)
    out = [None] * (2 * n - 2)
    out[0:2 * inner - 2:2] = [
        None if skip or miss else total % mod
        for skip, miss, total in zip(no_down[1:inner], missing[1:], sums[1:])
    ]
    out[1::2] = [
        None if no_up[c] or no_up[s] or missing[s] != no_down[c]
        else (sums[s] - down[c] + up[s]) % mod
        for c, s in zip(range(1, n), parent_values(p, range(n), n))
    ]
    if out.count(None) == len(out):
        raise EmptyDomain("no edge has all its continuations in the domain")
    return EdgeForm(f.p, f.k, b, tuple(out))


def stabilize(f0: VertexForm, eigen: EigenData) -> EdgeForm:
    """phi(e) = f0(source(e)) - alpha * f0(target(e)).

    When f0 satisfies the adjacency eigen-equation at interior vertices, the
    result satisfies U phi = alpha phi on interior edges.
    """
    if not isinstance(f0, VertexForm):
        raise ValueError("stabilization takes a vertex form")
    if eigen.alpha is None:
        raise MissingEigenvalue("stabilization needs the transfer eigenvalue")
    p, k, alpha = f0.p, f0.k, eigen.alpha.residue
    if (eigen.alpha.p, eigen.alpha.k) != (p, k):
        raise ValueError("mixed (p, k) arithmetic is not defined")
    b, mod = f0.domain, p**k
    n = b.size
    vals = _every_value(f0)
    at_parent = parent_values(p, vals, n)   # by child id 1..n-1
    phi = [0] * (2 * n - 2)
    phi[0::2] = [(q - alpha * x) % mod for q, x in zip(at_parent, vals[1:])]
    phi[1::2] = [(x - alpha * q) % mod for q, x in zip(at_parent, vals[1:])]
    return EdgeForm(p, k, b, tuple(phi))


def local_eigen_extend(p: int, k: int, ap: int, radius: int, seed: int) -> VertexForm:
    """Seeded vertex form on the radius-R ball with (T f)(v) = ap f(v) at
    every interior vertex.

    Built outward sphere by sphere: the p (or p+1) children sums at each
    vertex are constrained, so all but the last child value are drawn from
    the seed and the last is corrected.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    b = ball(origin(p), radius)
    mod = p**k
    a = ap % mod
    n, inner = b.size, ball_size(p, radius - 1)
    rng = random.Random(seed * 1000003)
    vals = [rng.randrange(mod)] + [0] * (n - 1)
    # by vertex id v < inner: the parent id q and the children lo .. hi - 1
    par, cs = [None] + parent_values(p, range(inner), inner), child_bounds(p, inner)
    for v, q, lo, hi in zip(range(inner), par, cs, cs[1:]):
        # the center has no parent, which contributes 0
        need = a * vals[v] - (vals[q] if v else 0)
        drawn = [rng.randrange(mod) for _ in range(hi - lo - 1)]
        vals[lo:hi - 1] = drawn
        vals[hi - 1] = (need - sum(drawn)) % mod
    return VertexForm(p, k, b, tuple(vals))


def scale_form(f, factor: int):
    """Multiply every value of a vertex or edge form by an integer."""
    mod = f.p**f.k
    vals = tuple(None if x is None else x * factor % mod for x in f.values)
    return type(f)(f.p, f.k, f.domain, vals)


def nu_invariant(f) -> int:
    """Largest c <= k such that all values agree modulo p^c: the valuation
    of the gcd of p^k and their differences."""
    values = [x for x in f.values if x is not None]
    if not values:
        raise EmptyDomain("form has no values")
    base = values[0]
    return capped_val(math.gcd(f.p**f.k, *(v - base for v in values)), f.p, f.k)
