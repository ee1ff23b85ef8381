"""The Bruhat-Tits tree of PGL2(Q_p) as homothety classes of rank-2 lattices.

A vertex is the scalar-normalized column Hermite form [[p^a, u], [0, p^b]]
with 0 <= u < p^a and min(a, b, val(u)) = 0; two vertices are equal iff their
fields are equal.  Edges are ordered pairs of adjacent vertices.

Vertices and edges are slotted and compute their hash once, at construction;
the cached value is the one the field tuple would hash to, so dict and set
order is that of plain frozen dataclasses.  Neighbours and distances are read
off the exponents in closed form.  A single edge checks that its ends are
adjacent; ball() checks each tree edge once, with one distance() per
undirected edge, and builds both of its directions from that one check
(distance is symmetric).  A ball is its id tables: it numbers its
vertices 0..N-1 in sphere order as it creates them, records each one's
parent id and its contiguous child ids, and keeps its directed edges in one
list: child c gives edge 2(c-1) = (parent -> c) and edge 2c-1 = (c -> parent).
A shrunk copy (a smaller radius around the same center) shares those tables,
and its size bounds the ids that belong to it, so every directed_edges() call
yields the same edge objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @staticmethod
    def both_ways(v: Vertex, w: Vertex) -> tuple:
        """(v -> w, w -> v), equal to DirectedEdge(v, w) and DirectedEdge(w, v)
        but with one adjacency check for the pair: distance is symmetric, so
        the check on (v, w) is the check on (w, v)."""
        if distance(v, w) != 1:
            raise ValueError("edge endpoints must be adjacent")
        # fill the slots past the frozen __setattr__
        cls = DirectedEdge
        there, back = object.__new__(cls), object.__new__(cls)
        cls.source.__set__(there, v)
        cls.target.__set__(there, w)
        cls._hash.__set__(there, hash((v, w)))
        cls.source.__set__(back, w)
        cls.target.__set__(back, v)
        cls._hash.__set__(back, hash((w, v)))
        return there, back

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


@dataclass(frozen=True)
class Ball:
    """Distance-closed ball as breadth-first id tables.

    ball() numbers the vertices in sphere order (the center is 0) and fills
    the id tables once: each id's parent id (-1 at the center), the
    contiguous child ids child_start[i] .. child_start[i+1] - 1 (in
    neighbors() order minus the parent), and the directed edges, where child
    c gives edges 2(c-1) = (parent -> c) and 2c-1 = (c -> parent).  A smaller
    ball around the same center shares those tables, so only ids below size
    belong to it.
    """

    center: Vertex
    radius: int
    spheres: tuple          # spheres[j] = tuple of vertices at distance j
    ids: dict = field(compare=False)            # vertex -> id
    parents: tuple = field(compare=False)       # id -> parent id, -1 at the center
    child_start: tuple = field(compare=False)   # id -> first child id; one entry past the last id
    edges: tuple = field(compare=False)         # edge id -> DirectedEdge

    @property
    def size(self) -> int:
        """The number of vertices, so their ids are 0..size-1."""
        return sum(map(len, self.spheres))

    def vertices(self):
        """The vertices in id order."""
        for s in self.spheres:
            yield from s

    def directed_edges(self):
        """All oriented adjacent pairs inside the ball (tree edges, both ways),
        in id order: per sphere, each edge from a parent to a child and then
        its reverse."""
        yield from self.edges[: 2 * self.size - 2]


def ball(v: Vertex, radius: int) -> Ball:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    verts, parents, child_start, edges = [v], [-1], [], []
    spheres = [(v,)]
    for _ in range(radius):
        first = len(verts)
        for i in range(first - len(spheres[-1]), first):
            x = verts[i]
            par = edges[2 * i - 1].target if i else None
            kids = [w for w in neighbors(x) if w != par]
            child_start.append(len(verts))
            verts += kids
            parents += [i] * len(kids)
            for w in kids:
                edges += DirectedEdge.both_ways(x, w)
        spheres.append(tuple(verts[first:]))
    # the boundary sphere has no children
    child_start += [len(verts)] * (len(verts) + 1 - len(child_start))
    ids = {w: i for i, w in enumerate(verts)}
    return Ball(v, radius, tuple(spheres), ids, tuple(parents), tuple(child_start),
                tuple(edges))


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
    for e in b.edges[: 2 * b.size - 2 : 2]:
        lines.append(f"  {name(e.source)} -- {name(e.target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
