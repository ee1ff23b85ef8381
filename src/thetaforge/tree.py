"""The Bruhat-Tits tree of PGL2(Q_p) as homothety classes of rank-2 lattices.

A vertex is the scalar-normalized column Hermite form [[p^a, u], [0, p^b]]
with 0 <= u < p^a and min(a, b, val(u)) = 0; two vertices are equal iff their
fields are equal.  Edges are ordered pairs of adjacent vertices.

Vertices and edges are slotted and compute their hash once, at construction;
the cached value is the one the field tuple would hash to, so dict and set
order is that of plain frozen dataclasses.  Neighbours and distances are read
off the exponents in closed form.  A single edge checks that its ends are
adjacent.

A ball numbers its vertices 0..N-1 in sphere order, and child c owns the
directed edges 2(c-1) = (parent -> c) and 2c-1 = (c -> parent).  The tree
is (p+1)-regular, so one rule numbers every ball: the center's children
are 1..p+1, and vertex i >= 1 has the children p i + 2 .. p i + p + 1.
parent_ids, child_bounds, child_sums and parent_values state it as list
operations.  A ball is its center and radius; its Vertex and DirectedEdge
objects (spheres, ids, the edge list) are views of one vertex list, built
on first request by one walk out from the center that checks each
vertex's child count against the rule.  The edges pair each child with
its parent by parent_values.
Around the origin a vertex's id is also a closed form of its exponents
(origin_id_offset plus digit_reversals), which the torus orbits read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .errors import InvariantViolation
from .util import json_int, val_p


@dataclass(frozen=True, slots=True)
class Vertex:
    p: int
    a: int
    b: int
    u: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative")
        if not (0 <= self.u < self.p**self.a):
            raise ValueError("u must lie in [0, p^a)")
        # min(a, b, val(u)) > 0 iff a, b > 0 and p | u (u = 0 included)
        if self.a and self.b and self.u % self.p == 0:
            raise ValueError("matrix is not scalar-normalized")
        object.__setattr__(self, "_hash", hash((self.p, self.a, self.b, self.u)))

    def __hash__(self):
        return self._hash

    def to_json(self):
        return {"a": self.a, "b": self.b, "u": str(self.u)}

    @staticmethod
    def from_json(p: int, obj) -> "Vertex":
        return Vertex(p, json_int(obj["a"]), json_int(obj["b"]), json_int(obj["u"]))


def origin(p: int) -> Vertex:
    """The class of Z_p + Z_p."""
    return Vertex(p, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class DirectedEdge:
    source: Vertex
    target: Vertex
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if distance(self.source, self.target) != 1:
            raise ValueError("edge endpoints must be adjacent")
        object.__setattr__(self, "_hash", hash((self.source, self.target)))

    def __hash__(self):
        return self._hash

    def to_json(self):
        return {"source": self.source.to_json(), "target": self.target.to_json()}

    @staticmethod
    def from_json(p: int, obj) -> "DirectedEdge":
        return DirectedEdge(Vertex.from_json(p, obj["source"]), Vertex.from_json(p, obj["target"]))


def neighbors(v: Vertex) -> list:
    """The p+1 classes of index-p sublattices of a representative of v.

    In the order of the sublattices g_v [[p, c], [0, 1]] for c = 0..p-1, then
    g_v [[1, 0], [0, p]], each written directly in normal form.
    """
    p, a, b, u = v.p, v.a, v.b, v.u
    if a == 0 and b > 0:
        # [[p, c], [0, p^b]]: c = 0 is p times the class of (0, b-1, 0)
        out = [Vertex(p, 0, b - 1, 0)] + [Vertex(p, 1, b, c) for c in range(1, p)]
    else:
        # here b > 0 forces a > 0 and u a unit, so no scalar divides out
        pa = p**a
        out = [Vertex(p, a + 1, b, c * pa + u) for c in range(p)]
    # [[p^a, p u], [0, p^(b+1)]]: divide by p when a > 0
    out.append(Vertex(p, 0, b + 1, 0) if a == 0 else Vertex(p, a - 1, b, u % p ** (a - 1)))
    if len(set(out)) != p + 1:
        raise InvariantViolation(f"{v} has {len(set(out))} distinct neighbors, expected {p + 1}")
    return out


def distance(v: Vertex, w: Vertex) -> int:
    """Tree distance |b - a| of the elementary divisor exponents of the
    relative matrix; exact for normal-form vertices."""
    if v.p != w.p:
        raise ValueError("vertices on different trees")
    p = v.p
    # adj(g_v) * g_w = [[p^(b_v + a_w), off], [0, p^(a_v + b_w)]]
    c = min(v.b + w.a, v.a + w.b)
    off = p**v.b * w.u - v.u * p**w.b
    if off % p**c:
        c = val_p(off, p)
    return (v.a + v.b + w.a + w.b) - 2 * c


def ball_size(p: int, r: int) -> int:
    """The number of vertices within distance r >= 0 of a vertex: the
    center, p + 1 at distance 1, and p times as many at each further one."""
    return 1 + (p + 1) * (p**r - 1) // (p - 1)


def digit_reversals(p: int, n: int) -> list:
    """rev[u] for 0 <= u < p^n: the n base-p digits of u in reverse order,
    rev[u] = u_0 p^(n-1) + u_1 p^(n-2) + ... + u_(n-1)."""
    rev = [0]
    for _ in range(n):
        # u = hi p^(i-1) + lo, whose top digit hi is the reversal's lowest
        rev = [r * p + hi for hi in range(p) for r in rev]
    return rev


def origin_id_offset(p: int, a: int, b: int) -> int:
    """The id of Vertex(p, a, b, u) in a ball around the origin, minus
    digit_reversals(p, a)[u].

    A vertex's position in its sphere is the base-p number of the choices
    along its path from the origin, read in neighbors() order without the
    parent: the first step picks one of p + 1, each later one one of p.
    From the origin, (1, 0, c) is choice c and (0, 1, 0) choice p; below
    (a, b, u) with a > 0, (a + 1, b, u + c p^a) is choice c; below
    (0, b, 0) with b > 0, (1, b, c) is choice c - 1 and (0, b + 1, 0)
    choice p - 1.  So (a, 0, u) sits at the digit reversal of u, and
    (a, b, u) with b > 0 at the digits p, p - 1 (b - 1 times), u_0 - 1,
    u_1, ..., u_(a-1).
    """
    j = a + b
    if j == 0:
        return 0
    first = ball_size(p, j - 1)         # the first id at distance j
    if b == 0:
        return first
    # p, then p - 1 (b - 1 times), is p^b + p^(b-1) - 1; u_0 - 1 takes
    # p^(a-1) off the digit reversal of u
    return first + (p**b + p ** (b - 1) - 1) * p**a - (p ** (a - 1) if a else 0)


def parent_ids(p: int, cs):
    """The parent id of each vertex id c >= 1 in cs, lazily."""
    return ((c - 2) // p if c > p + 1 else 0 for c in cs)


def child_bounds(p: int, m: int) -> list:
    """bounds[0..m]: the children of vertex i < m are the ids
    bounds[i] .. bounds[i+1] - 1."""
    return [1, *range(p + 2, p * m + 3, p)]


def child_sums(p: int, xs, m: int) -> list:
    """The sum of xs over the children of each vertex i < m (m >= 1), where
    xs runs over the vertex ids: past the center, the sums of p strided
    slices, one per child position."""
    rest = zip(*[xs[p + 2 + r : p * m + 2 : p] for r in range(p)])
    return [sum(xs[1 : p + 2]), *map(sum, rest)]


def parent_values(p: int, xs, n: int) -> list:
    """xs[parent id of c] for c = 1..n-1 on a ball of n vertices, where xs
    runs over the vertex ids: xs[0] p + 1 times, then each of xs[1],
    xs[2], ... p times, by p strided slice assignments."""
    out = [xs[0]] * (n - 1)
    # one list of the later parents, shared by the p slices
    rest = list(islice(xs, 1, (n - 1) // p))
    for r in range(p):
        out[p + 1 + r :: p] = rest
    return out


@dataclass(frozen=True)
class Ball:
    """Distance-closed ball, its vertices numbered in sphere order (the
    center is 0) by the rule of parent_ids and child_bounds: the children of
    a vertex are contiguous ids (in neighbors() order minus the parent),
    and child c gives the directed edges 2(c-1) = (parent -> c) and
    2c-1 = (c -> parent).

    The tree objects are views of the vertex list, built on first request:
    spheres, vertices(), ids (vertex -> id) and the edges table (edge id ->
    DirectedEdge) with directed_edges().
    """

    center: Vertex
    radius: int

    @property
    def size(self) -> int:
        """The number of vertices, so their ids are 0..size-1."""
        return ball_size(self.center.p, self.radius)

    @cached_property
    def _verts(self) -> list:
        """The vertices in id order, by one walk out from the center: the
        children of each vertex are its neighbors() without its parent, and
        their count is checked against child_bounds."""
        p, n = self.center.p, self.size
        m = ball_size(p, self.radius - 1) if self.radius else 0
        # the id-sized list comes first, so a ball too large for memory
        # fails before any object is built
        verts = [self.center] * n
        bounds = child_bounds(p, m)
        parents = parent_ids(p, range(1, m))
        for i, lo, hi in zip(range(m), bounds, bounds[1:]):
            x = verts[i]
            par = verts[next(parents)] if i else None
            kids = [w for w in neighbors(x) if w != par]
            if len(kids) != hi - lo:
                raise InvariantViolation(f"{x} has {len(kids)} neighbors off its "
                                         f"parent in the ball, expected {hi - lo}")
            verts[lo:hi] = kids
        return verts

    @cached_property
    def spheres(self) -> tuple:
        """spheres[j] = tuple of vertices at distance j, in id order."""
        p, verts = self.center.p, self._verts
        sizes = [0] + [ball_size(p, j) for j in range(self.radius + 1)]
        return tuple(tuple(verts[a:b]) for a, b in zip(sizes, sizes[1:]))

    @cached_property
    def ids(self) -> dict:
        """vertex -> id."""
        return {w: i for i, w in enumerate(self._verts)}

    @cached_property
    def edges(self) -> tuple:
        """edge id -> DirectedEdge: (parent -> c), then (c -> parent), for
        each child c in id order."""
        verts = self._verts
        pars = parent_values(self.center.p, verts, len(verts))
        return tuple(e for c, q in zip(islice(verts, 1, None), pars)
                     for e in (DirectedEdge(q, c), DirectedEdge(c, q)))

    def vertices(self):
        """The vertices in id order."""
        yield from self._verts

    def directed_edges(self):
        """All oriented adjacent pairs inside the ball (tree edges, both ways),
        in id order: per sphere, each edge from a parent to a child and then
        its reverse."""
        yield from self.edges


def ball(v: Vertex, radius: int) -> Ball:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # p >= 2, so the size passes 2^radius: no list could index such a ball
    if radius >= sys.maxsize.bit_length() or ball_size(v.p, radius) > sys.maxsize:
        raise ValueError(f"a radius-{radius} ball has more vertices than sys.maxsize")
    return Ball(v, radius)


def sphere(v: Vertex, r: int) -> list:
    """All vertices at distance exactly r, by non-backtracking expansion."""
    return list(ball(v, r).spheres[r])


def geodesic_path(v: Vertex, w: Vertex) -> list:
    """The unique path v = x_0, ..., x_d = w of adjacent vertices."""
    path = [v]
    d = distance(v, w)
    x = v
    while d > 0:
        for y in neighbors(x):
            if distance(y, w) == d - 1:
                path.append(y)
                x = y
                d -= 1
                break
        else:
            raise InvariantViolation("no descending neighbor; tree structure broken")
    return path


def to_dot(center: Vertex, radius: int) -> str:
    """DOT text for the ball around a vertex, for quick visual inspection."""
    b = ball(center, radius)
    lines = ["graph bruhat_tits {"]

    def name(x):
        return f'"{x.a},{x.b},{x.u}"'

    lines.append(f"  {name(center)} [shape=doublecircle];")
    for e in b.edges[0::2]:
        lines.append(f"  {name(e.source)} -- {name(e.target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
