"""Lattice-reduction tree code, kept as a test oracle.

These are the neighbours, the distance and the torus orbit images that
`thetaforge` computed before it read them off the exponents in closed form:
every neighbour is the column-reduced normal form of an exact integer basis,
the distance takes the valuations of all three entries of the relative
matrix, and every orbit image normalizes the basis of a lifted torus element
times the base point with `act`.  They serve only to cross-check the closed
forms.
"""

from thetaforge.errors import InvariantViolation
from thetaforge.hecke import VertexForm
from thetaforge.torus import _lift_label, act, base_sequence, coset_labels
from thetaforge.tree import Vertex, _normal_form_residues
from thetaforge.util import val_p


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
    pa, u, _, pb = v.basis_matrix()
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
    return {lbl: act(_lift_label(torus, lbl, k), base) for lbl in labels}


def reference_shifted_levels(form, torus, n_max: int, shift) -> list:
    """The level tables of from_tree(form, ..., shift=shift): every base
    point is moved by act(shift, .) and the orbit read off it by act()."""
    verts, edges = base_sequence(torus, n_max)
    mode = "vertex" if isinstance(form, VertexForm) else "edge"
    start = 0 if mode == "vertex" else 1
    levels = [None] * (n_max + 1)
    for j in range(start, n_max + 1):
        base = act(shift, verts[j] if mode == "vertex" else edges[j - 1])
        images = reference_orbit_images(torus, j, mode, base=base)
        levels[j] = {f"{x}:{y}": form.tables[0][w].residue for (x, y), w in images.items()}
    return levels
