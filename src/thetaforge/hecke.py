"""Functions on vertices and directed edges of a ball, the two Hecke-type
operators (adjacency sum and non-backtracking transfer), the passage from a
vertex eigenfunction to an edge eigenfunction, seeded eigen-extensions, and
the congruence-to-a-constant invariant.

Forms carry h components evaluated on one stored ball; values are residues
mod p^k wrapped as PrecisionInt.  Adjacency (depth, children, parent) and the
directed edges are read from the ball, which tree.ball() builds once; the
transfer operator reads each edge's continuations off the ball's record of
the edges leaving its target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import EmptyDomain, InvariantViolation, MissingEigenvalue
from .padic import PrecisionInt, hensel_unit_root
from .tree import Ball, ball, origin


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
    h: int
    domain: Ball
    tables: tuple           # one dict Vertex -> PrecisionInt per component


@dataclass(frozen=True)
class EdgeForm:
    p: int
    k: int
    h: int
    domain: Ball
    tables: tuple           # one dict DirectedEdge -> PrecisionInt per component


def _shrunk_ball(b: Ball) -> Ball:
    if b.radius == 0:
        raise EmptyDomain("cannot shrink a radius-0 ball")
    return replace(b, radius=b.radius - 1, spheres=b.spheres[: b.radius])


def hecke_T(f: VertexForm) -> VertexForm:
    """(T f)(v) = sum of f over the p+1 neighbors of v, on the shrunken ball."""
    if f.domain.radius < 1:
        raise EmptyDomain("adjacency sum needs radius >= 1")
    inner = _shrunk_ball(f.domain)
    p, k, out = f.p, f.k, f.domain.out_edges
    tables = []
    for table in f.tables:
        tables.append({
            v: PrecisionInt(p, k, sum(table[e.target].residue for e in out[v]))
            for v in inner.vertices()
        })
    return VertexForm(p, k, f.h, inner, tuple(tables))


def hecke_U(f: EdgeForm) -> EdgeForm:
    """(U f)(e) = sum of f over the p continuations of e (reversal excluded).

    Defined on the edges whose p continuations all carry values, so repeated
    application keeps shrinking the edge set inward.  Edges into the boundary
    sphere have no continuations inside the ball and are skipped.  The
    continuations of (s -> t) are the ball's edges leaving t, minus (t -> s).
    """
    b = f.domain
    if b.radius < 1:
        raise EmptyDomain("transfer sum needs radius >= 1")
    p, k = f.p, f.k
    known = f.tables[0]
    tables = [dict() for _ in range(f.h)]
    for e in known:
        t = e.target
        if b.depth(t) == b.radius:
            continue
        leaving = b.out_edges[t]
        if len(leaving) != p + 1:
            raise InvariantViolation(f"edge {e} has {len(leaving) - 1} continuations, expected {p}")
        conts = [c for c in leaving if c.target != e.source]
        if not all(c in known for c in conts):
            continue
        for table, out in zip(f.tables, tables):
            out[e] = PrecisionInt(p, k, sum(table[c].residue for c in conts))
    if not tables[0]:
        raise EmptyDomain("no edge has all its continuations in the domain")
    return EdgeForm(p, k, f.h, f.domain, tuple(tables))


def stabilize(f0: VertexForm, eigen: EigenData) -> EdgeForm:
    """phi(e) = f0(source(e)) - alpha * f0(target(e)).

    When f0 satisfies the adjacency eigen-equation at interior vertices, the
    result satisfies U phi = alpha phi on interior edges.
    """
    if not isinstance(f0, VertexForm):
        raise ValueError("stabilization takes a vertex form")
    if eigen.alpha is None:
        raise MissingEigenvalue("stabilization needs the transfer eigenvalue")
    p, k, alpha = f0.p, f0.k, eigen.alpha
    if (alpha.p, alpha.k) != (p, k):
        raise ValueError("mixed (p, k) arithmetic is not defined")
    edges = tuple(f0.domain.directed_edges())
    tables = []
    for table in f0.tables:
        tables.append({
            e: PrecisionInt(p, k, table[e.source].residue - alpha.residue * table[e.target].residue)
            for e in edges
        })
    return EdgeForm(p, k, f0.h, f0.domain, tuple(tables))


def local_eigen_extend(p: int, k: int, ap: int, radius: int, seed: int,
                       h: int = 1) -> VertexForm:
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
    tables = []
    for i in range(h):
        rng = random.Random(seed * 1000003 + i)
        vals = {b.center: rng.randrange(mod)}
        for s in b.spheres[:radius]:
            for v in s:
                # the center has no parent, which contributes 0
                need = (a * vals[v] - vals.get(b.parent(v), 0)) % mod
                kids = b.children(v)
                for w in kids[:-1]:
                    vals[w] = rng.randrange(mod)
                    need = (need - vals[w]) % mod
                vals[kids[-1]] = need
        tables.append({v: PrecisionInt(p, k, c) for v, c in vals.items()})
    return VertexForm(p, k, h, b, tuple(tables))


def scale_form(f, factor: int):
    """Multiply every value of a vertex or edge form by an integer."""
    tables = tuple(
        {w: val * factor for w, val in table.items()} for table in f.tables
    )
    if isinstance(f, VertexForm):
        return VertexForm(f.p, f.k, f.h, f.domain, tables)
    return EdgeForm(f.p, f.k, f.h, f.domain, tables)


def nu_invariant(f) -> int:
    """Largest c <= k such that all values (all components pooled) agree
    modulo p^c: the minimum pairwise valuation of differences."""
    values = []
    for table in f.tables:
        values.extend(table.values())
    if not values:
        raise EmptyDomain("form has no values")
    base = values[0]
    return min((v - base).valuation() for v in values)
