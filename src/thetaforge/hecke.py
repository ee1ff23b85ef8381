"""Functions on vertices and directed edges of a ball, the two Hecke-type
operators (adjacency sum and non-backtracking transfer), the passage from a
vertex eigenfunction to an edge eigenfunction, seeded eigen-extensions, and
the congruence-to-a-constant invariant.

A form is one table of values on one stored ball: residues mod p^k wrapped
as PrecisionInt, in a dict keyed by the ball's vertices or directed edges.
Every kernel reads the table into a list indexed by the ball's vertex or
edge ids and computes by index: a vertex's children are a contiguous id
range, so the adjacency sum is a slice sum plus the parent's value, and the
continuations of an edge are the child edges of its target (minus the edge
back) plus the target's parent edge, so the transfer sums are read off one
sum per vertex.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .errors import EmptyDomain, InvariantViolation, MissingEigenvalue
from .padic import PrecisionInt, hensel_unit_root
from .tree import Ball, ball, origin
from .util import capped_val


@dataclass(frozen=True)
class EigenData:
    """Adjacency eigenvalue a_p and/or transfer eigenvalue alpha_p.

    When both are present they must satisfy alpha^2 - a*alpha + p = 0 mod p^k.
    """

    ap: PrecisionInt | None = None
    alpha: PrecisionInt | None = None

    def __post_init__(self):
        if self.ap is not None and self.alpha is not None:
            a, al = self.ap, self.alpha
            q = PrecisionInt(al.p, al.k, al.p)
            if not (al * al - a * al + q).is_zero():
                raise ValueError("alpha is not a root of x^2 - a x + p")

    @staticmethod
    def ordinary(p: int, k: int, ap: int) -> "EigenData":
        a = PrecisionInt(p, k, ap)
        return EigenData(ap=a, alpha=hensel_unit_root(a, p, k))

    @staticmethod
    def supersingular(p: int, k: int) -> "EigenData":
        return EigenData(ap=PrecisionInt(p, k, 0), alpha=None)


@dataclass(frozen=True)
class VertexForm:
    p: int
    k: int
    domain: Ball
    # a 1-tuple holding the dict Vertex -> PrecisionInt, because
    # bench/child.py reads tables[0]; once the benchmark reads values through
    # an accessor, one flat list by vertex id replaces it
    tables: tuple


@dataclass(frozen=True)
class EdgeForm:
    p: int
    k: int
    domain: Ball
    # a 1-tuple holding the dict DirectedEdge -> PrecisionInt, as in VertexForm
    tables: tuple


def _shrunk_ball(b: Ball) -> Ball:
    if b.radius == 0:
        raise EmptyDomain("cannot shrink a radius-0 ball")
    return replace(b, radius=b.radius - 1, spheres=b.spheres[: b.radius])


def _vertex_residues(f) -> list:
    """The residues as a list indexed by vertex id.  Every vertex of the
    ball carries a value, and a key outside it is a KeyError."""
    b, (table,) = f.domain, f.tables
    vals = [table[v].residue for v in b.vertices()]
    if len(table) != b.size:    # every vertex has a value, so a key lies outside
        raise KeyError(next(v for v in table if b.ids.get(v, b.size) >= b.size))
    return vals


def _edge_residues(f) -> list:
    """The residues as a list indexed by edge id, None at an edge without a
    value.  A key outside the ball is a KeyError."""
    b, (table,) = f.domain, f.tables
    edges = b.edges[: 2 * b.size - 2]
    vals = [None if x is None else x.residue for x in map(table.get, edges)]
    if len(table) != len(vals) - vals.count(None):
        inside = set(edges)
        raise KeyError(next(e for e in table if e not in inside))
    return vals


def hecke_T(f: VertexForm) -> VertexForm:
    """(T f)(v) = sum of f over the p+1 neighbors of v, on the shrunken ball."""
    if f.domain.radius < 1:
        raise EmptyDomain("adjacency sum needs radius >= 1")
    inner = _shrunk_ball(f.domain)
    p, k, n = f.p, f.k, inner.size
    cs, par = f.domain.child_start, f.domain.parents
    vals = _vertex_residues(f)
    # the center has no parent
    sums = [sum(vals[cs[0]:cs[1]])] + [
        sum(vals[lo:hi]) + vals[q]
        for lo, hi, q in zip(cs[1:n], cs[2:n + 1], par[1:n])
    ]
    table = {v: PrecisionInt(p, k, t) for v, t in zip(inner.vertices(), sums)}
    return VertexForm(p, k, inner, (table,))


def hecke_U(f: EdgeForm) -> EdgeForm:
    """(U f)(e) = sum of f over the p continuations of e (the edge back excluded).

    Defined on the edges of the table whose p continuations all carry
    values, so repeated application keeps shrinking the edge set inward.
    Edges into the boundary sphere have no continuations inside the ball and
    are skipped.  The continuations of (s -> t) are the ball's edges leaving
    t, minus (t -> s): with S(t) the sum over t's child edges, U is S(t) on
    (s -> t) when t is s's child, and S(t) - f(t -> s) + f(t -> parent(t))
    when t is s's parent (no parent term at the center).
    """
    b = f.domain
    if b.radius < 1:
        raise EmptyDomain("transfer sum needs radius >= 1")
    p, k, n = f.p, f.k, b.size
    cs, par = b.child_start, b.parents
    inner = n - len(b.spheres[-1])      # ids 0..inner-1 are off the boundary sphere
    kids = [cs[i + 1] - cs[i] for i in range(inner)]
    for i, count in enumerate(kids):
        if count != p + (i == 0):
            raise InvariantViolation(
                f"vertex id {i} has {count + (i > 0)} neighbors in the ball, expected {p + 1}")
    vals = _edge_residues(f)
    # by child id c: whether (parent -> c) and (c -> parent) carry values;
    # id 0 pads the center, which has no parent edge
    has_down = [True] + [x is not None for x in vals[0::2]]
    has_up = [True] + [x is not None for x in vals[1::2]]
    missing = [count - sum(has_down[cs[i]:cs[i + 1]]) for i, count in enumerate(kids)]
    defined = []
    for c in range(1, n):
        s = par[c]
        if c < inner and has_down[c] and not missing[c]:
            defined.append(2 * c - 2)
        if has_up[c] and has_up[s] and missing[s] == (not has_down[c]):
            defined.append(2 * c - 1)
    if not defined:
        raise EmptyDomain("no edge has all its continuations in the domain")
    down = [0] + [x or 0 for x in vals[0::2]]
    up = [0] + [x or 0 for x in vals[1::2]]
    child_sums = [sum(down[cs[i]:cs[i + 1]]) for i in range(inner)] + [0] * (n - inner)
    sums = [0] * (2 * n - 2)
    sums[0::2] = child_sums[1:]
    sums[1::2] = [child_sums[s] - x + up[s] for s, x in zip(par[1:n], down[1:])]
    table = {b.edges[e]: PrecisionInt(p, k, sums[e]) for e in defined}
    return EdgeForm(p, k, f.domain, (table,))


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
    b = f0.domain
    n = b.size
    par = b.parents
    vals = _vertex_residues(f0)
    phi = [0] * (2 * n - 2)
    # child c: (parent -> c) at 2c - 2, (c -> parent) at 2c - 1
    phi[0::2] = [vals[q] - alpha * x for q, x in zip(par[1:n], vals[1:])]
    phi[1::2] = [x - alpha * vals[q] for q, x in zip(par[1:n], vals[1:])]
    table = {e: PrecisionInt(p, k, x) for e, x in zip(b.edges, phi)}
    return EdgeForm(p, k, b, (table,))


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
    cs, par, n = b.child_start, b.parents, b.size
    rng = random.Random(seed * 1000003)
    vals = [rng.randrange(mod)] + [0] * (n - 1)
    for v in range(n - len(b.spheres[radius])):
        # the center has no parent, which contributes 0
        need = a * vals[v] - (vals[par[v]] if v else 0)
        lo, hi = cs[v], cs[v + 1] - 1
        drawn = [rng.randrange(mod) for _ in range(hi - lo)]
        vals[lo:hi] = drawn
        vals[hi] = (need - sum(drawn)) % mod
    table = {v: PrecisionInt(p, k, c) for v, c in zip(b.vertices(), vals)}
    return VertexForm(p, k, b, (table,))


def scale_form(f, factor: int):
    """Multiply every value of a vertex or edge form by an integer."""
    (table,) = f.tables
    return type(f)(f.p, f.k, f.domain, ({w: val * factor for w, val in table.items()},))


def nu_invariant(f) -> int:
    """Largest c <= k such that all values agree modulo p^c: the valuation
    of the gcd of p^k and their differences."""
    values = [x.residue for x in f.tables[0].values()]
    if not values:
        raise EmptyDomain("form has no values")
    base = values[0]
    return capped_val(math.gcd(f.p**f.k, *(v - base for v in values)), f.p, f.k)
