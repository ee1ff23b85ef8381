"""Lattice-reduction tree code, kept as a test oracle.

These are the lattice normal form, the neighbours, the distance and the
torus action that `thetaforge` computed before it read them off the
exponents in closed form: every neighbour is the column-reduced normal form
of an exact integer basis, the distance takes the valuations of all three
entries of the relative matrix, and every orbit image normalizes the basis
of a torus element's embedding matrix times the base point with `act`.
They serve only to cross-check the closed forms.

`reference_ball` is the eager walk `ball()` ran before its id tables were
read off by arithmetic and its tree objects built on request: one pass out
from the center that records every vertex, its parent and child ids and
both directions of every edge as it meets them.
"""

from dataclasses import dataclass

from thetaforge.errors import InvariantViolation, PrecisionExhausted
from thetaforge.hecke import VertexForm
from thetaforge.torus import TorusElement, base_sequence, coset_labels
from thetaforge.tree import DirectedEdge, Vertex, neighbors
from thetaforge.util import val_p


def basis_matrix(v: Vertex):
    """Exact integer column basis [[p^a, u], [0, p^b]] of a vertex."""
    return (v.p**v.a, v.u, 0, v.p**v.b)


def _reduce_triangular(p, x, up, y, prec):
    """Normalize an upper-triangular residue matrix [[x, up], [0, y]] known
    mod p^prec into Vertex data, or raise when the digits run out."""
    mod = p**prec
    x %= mod
    y %= mod
    up %= mod
    if x == 0 or y == 0:
        raise PrecisionExhausted("diagonal entry is zero to working precision")
    va, vb = val_p(x, p), val_p(y, p)
    if va >= prec or vb >= prec:
        raise PrecisionExhausted("diagonal valuation exceeds working precision")
    vu = val_p(up, p) if up else None
    c = min(va, vb) if vu is None else min(va, vb, vu)
    a, b = va - c, vb - c
    if a + b >= prec - c:
        raise PrecisionExhausted("result exponents exceed working precision")
    # scale the second column by the unit part of y, then reduce u mod p^a
    unit_y = (y // p**vb) % mod
    u = (up // p**c) * pow(unit_y, -1, mod) % p**a if a > 0 else 0
    return Vertex(p, a, b, u)


def _normal_form_residues(p, m00, m01, m10, m11, prec):
    """Column-reduce a residue matrix known mod p^prec to a Vertex."""
    mod = p**prec
    m00, m01, m10, m11 = m00 % mod, m01 % mod, m10 % mod, m11 % mod
    v0 = val_p(m10, p) if m10 else prec
    v1 = val_p(m11, p) if m11 else prec
    if min(v0, v1) >= prec:
        # bottom row vanishes to precision: already triangular
        return _reduce_triangular(p, m00, m01, m11, prec)
    if v1 > v0:
        m00, m01 = m01, m00
        m10, m11 = m11, m10
        v0, v1 = v1, v0
    # pivot on m11: clear m10 with the exact quotient m10/m11
    q = (m10 // p**v1) * pow(m11 // p**v1, -1, mod) % mod
    m00 = (m00 - q * m01) % mod
    # now the matrix is [[m00, m01], [0, m11]] up to the column swap that
    # puts the zero in the bottom-left corner
    return _reduce_triangular(p, m00, m01, m11, prec)


def normal_form(m) -> Vertex:
    """Vertex for the column span of a 2x2 PrecisionInt matrix."""
    (m00, m01), (m10, m11) = m
    p, k = m00.p, m00.k
    if any((e.p, e.k) != (p, k) for e in (m01, m10, m11)):
        raise ValueError("matrix entries must share (p, k)")
    return _normal_form_residues(p, m00.residue, m01.residue, m10.residue, m11.residue, k)


def act(t: TorusElement, w):
    """Image of a vertex or directed edge under the embedded torus element
    x + y*sqrt(d) -> [[x, d y], [y, x]], normalized mod p^k."""
    if isinstance(w, DirectedEdge):
        return DirectedEdge(act(t, w.source), act(t, w.target))
    e00, e01, e10, e11 = t.x, t.torus.d * t.y, t.y, t.x
    g00, g01, g10, g11 = basis_matrix(w)
    m00 = e00 * g00 + e01 * g10
    m01 = e00 * g01 + e01 * g11
    m10 = e10 * g00 + e11 * g10
    m11 = e10 * g01 + e11 * g11
    return _normal_form_residues(t.torus.p, m00, m01, m10, m11, t.k)


def normal_form_exact(p: int, m00: int, m01: int, m10: int, m11: int) -> Vertex:
    """Vertex for the column span of an exact integer matrix with nonzero det."""
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("matrix is singular")
    prec = val_p(det, p) + 1
    return _normal_form_residues(p, m00, m01, m10, m11, prec)


def reference_neighbors(v: Vertex) -> list:
    """The p+1 classes of index-p sublattices of a representative of v."""
    p = v.p
    pa, u, _, pb = basis_matrix(v)
    out = []
    for c in range(p):
        # g_v * [[p, c], [0, 1]]
        out.append(normal_form_exact(p, pa * p, c * pa + u, 0, pb))
    # g_v * [[1, 0], [0, p]]
    out.append(normal_form_exact(p, pa, p * u, 0, pb * p))
    if len(set(out)) != p + 1:
        raise InvariantViolation(f"{v} has {len(set(out))} distinct neighbors, expected {p + 1}")
    return out


def reference_distance(v: Vertex, w: Vertex) -> int:
    """Tree distance |b - a| of the elementary divisor exponents of the
    relative matrix; exact for normal-form vertices."""
    if v.p != w.p:
        raise ValueError("vertices on different trees")
    p = v.p
    # adj(g_v) * g_w, an exact upper-triangular integer matrix
    top = p**v.b * p**w.a
    off = p**v.b * w.u - v.u * p**w.b
    bot = p**v.a * p**w.b
    voff = val_p(off, p)
    vals = [val_p(top, p), val_p(bot, p)] + ([] if voff is None else [voff])
    c = min(vals)
    return (v.a + v.b + w.a + w.b) - 2 * c


def reference_orbit_images(torus, j: int, mode: str = "vertex", base=None) -> dict:
    """label -> image of the level-j base point, each by act() on the label
    lifted to precision j + 2."""
    if base is None:
        verts, edges = base_sequence(torus, max(j, 1))
        base = verts[j] if mode == "vertex" else edges[j - 1]
    k = j + 2
    labels = tuple(coset_labels(torus, j))
    return {(x, y): act(TorusElement(torus, k, x=x, y=y), base) for x, y in labels}


def reference_shifted_levels(form, torus, n_max: int, shift) -> list:
    """The level tables of from_tree(form, ..., shift=shift): every base
    point is moved by act(shift, .) and the orbit read off it by act()."""
    verts, edges = base_sequence(torus, n_max)
    mode = "vertex" if isinstance(form, VertexForm) else "edge"
    start = 0 if mode == "vertex" else 1
    levels = [None] * (n_max + 1)
    (table,) = form.tables
    for j in range(start, n_max + 1):
        base = act(shift, verts[j] if mode == "vertex" else edges[j - 1])
        images = reference_orbit_images(torus, j, mode, base=base)
        levels[j] = {f"{x}:{y}": table[w].residue for (x, y), w in images.items()}
    return levels


@dataclass(frozen=True)
class ReferenceBall:
    spheres: tuple          # spheres[j] = tuple of vertices at distance j
    ids: dict               # vertex -> id
    parents: tuple          # id -> parent id, -1 at the center
    child_start: tuple      # id -> first child id; one entry past the last id
    edges: tuple            # edge id -> DirectedEdge


def reference_ball(v: Vertex, radius: int) -> ReferenceBall:
    """The radius-R ball around v by one eager non-backtracking walk: each
    vertex's children are its neighbors() minus its parent, numbered in
    sphere order, and child c records edges 2(c-1) = (parent -> c) and
    2c-1 = (c -> parent)."""
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
                edges += (DirectedEdge(x, w), DirectedEdge(w, x))
        spheres.append(tuple(verts[first:]))
    # the boundary sphere has no children
    child_start += [len(verts)] * (len(verts) + 1 - len(child_start))
    ids = {w: i for i, w in enumerate(verts)}
    return ReferenceBall(tuple(spheres), ids, tuple(parents), tuple(child_start), tuple(edges))
