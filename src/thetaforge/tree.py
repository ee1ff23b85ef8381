"""The Bruhat-Tits tree of PGL2(Q_p) as homothety classes of rank-2 lattices.

A vertex is the scalar-normalized column Hermite form [[p^a, u], [0, p^b]]
with 0 <= u < p^a and min(a, b, val(u)) = 0; two vertices are equal iff their
fields are equal.  Edges are ordered pairs of adjacent vertices.

Vertices and edges are slotted and compute their hash once, at construction;
the cached value is the one the field tuple would hash to, so dict and set
order is that of plain frozen dataclasses.  Neighbours and distances are read
off the exponents in closed form.  A ball records, for each vertex, its
outgoing directed edges (to its children, then to its parent) as it creates
them; that record is the ball's one edge table, and every directed_edges()
call (also on a shrunk copy) yields those same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation
from .util import val_p


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
        return Vertex(p, int(obj["a"]), int(obj["b"]), int(obj["u"]))


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

    @property
    def p(self) -> int:
        return self.source.p

    def reversal(self) -> "DirectedEdge":
        return DirectedEdge(self.target, self.source)

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
    """Distance-closed ball with its breadth-first tree structure.

    ball() fills two tables once: the depth of each vertex, and out_edges[v],
    the directed edges leaving v: to each child (in neighbors() order minus
    the parent), then to the parent.  The center has no parent edge and the
    boundary sphere has only its parent edge.  Parent, children and
    adjacency are read off that record.  A smaller ball around the same
    center may share the tables, so lookups ignore entries beyond the radius.
    """

    center: Vertex
    radius: int
    spheres: tuple          # spheres[j] = tuple of vertices at distance j
    depth_of: dict = field(compare=False)
    out_edges: dict = field(compare=False)

    @property
    def p(self) -> int:
        return self.center.p

    def vertices(self):
        for s in self.spheres:
            yield from s

    def depth(self, v: Vertex) -> int:
        d = self.depth_of[v]
        if d > self.radius:
            raise KeyError(v)
        return d

    def directed_edges(self):
        """All oriented adjacent pairs inside the ball (tree edges, both ways):
        per sphere, each edge from a parent to a child and then its reverse."""
        out = self.out_edges
        for j, s in enumerate(self.spheres[: self.radius]):
            for x in s:
                for e in out[x][: -1 if j else None]:
                    yield e
                    yield out[e.target][-1]

    def parent(self, v: Vertex):
        """The parent of v, or None at the center."""
        return self.out_edges[v][-1].target if self.depth(v) else None

    def children(self, v: Vertex) -> tuple:
        d = self.depth(v)
        if d == self.radius:
            return ()
        return tuple(e.target for e in self.out_edges[v][: -1 if d else None])

    def adjacent(self, v: Vertex) -> tuple:
        """The neighbors of v inside the ball: its children, then its parent."""
        par = self.parent(v)
        return self.children(v) + (() if par is None else (par,))


def ball(v: Vertex, radius: int) -> Ball:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    spheres = [(v,)]
    depth_of, out_edges = {v: 0}, {v: ()}
    for j in range(1, radius + 1):
        nxt = []
        for x in spheres[-1]:
            up = out_edges[x]       # (x -> parent,) recorded when x was created
            par = up[0].target if up else None
            down = tuple(DirectedEdge(x, w) for w in neighbors(x) if w != par)
            for e in down:
                depth_of[e.target] = j
                out_edges[e.target] = (DirectedEdge(e.target, x),)
                nxt.append(e.target)
            out_edges[x] = down + up
        spheres.append(tuple(nxt))
    return Ball(v, radius, tuple(spheres), depth_of, out_edges)


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
    for x in b.vertices():
        if x != center:
            lines.append(f"  {name(b.parent(x))} -- {name(x)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
