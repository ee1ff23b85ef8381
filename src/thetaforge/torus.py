"""Action of a nonsplit (or split) torus on the tree through a fixed embedding.

Inert kind: the units of the unramified quadratic extension modulo scalars,
embedded by x + y*sqrt(d) -> [[x, d y], [y, x]].  The level-j coset space is
the projective line over Z/p^j, enumerated by canonical representatives and
decomposed as torsion x cyclic p-part for pushforward to group rings.
TorusElement and the coset labels share one group law: an element is stored
as its canonical level-k label and multiplied with _label_mul.

Orbit tables on the standard base points are read off in closed form: the
label (x : y) sends v_j = [[p^j, 0], [0, 1]] to the lattice
p^j Z^2 + Z (d y, x), whose normal form is
  Vertex(p, j, 0, d y x^(-1) mod p^j)        if x is a unit,
  Vertex(p, 0, j, 0)                         if x = 0 mod p^j,
  Vertex(p, j - v, v, w^(-1) mod p^(j - v))  otherwise, x / (d y) = p^v w;
and sends the edge (v_(j-1), v_j) to the pair of images of its endpoints.

Split kind: only its base sequence, a branch off the standard apartment, is
kept, for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TransitivityViolation
from .tree import DirectedEdge, Vertex, origin
from .util import is_nonresidue, val_p


@dataclass(frozen=True)
class QuadraticTorus:
    p: int
    kind: str               # "inert" | "split"
    d: int | None = None    # non-residue for the inert kind

    def __post_init__(self):
        if self.kind not in ("inert", "split"):
            raise ValueError("kind must be 'inert' or 'split'")
        if self.kind == "inert":
            if self.p == 2:
                raise ValueError("inert tori at p = 2 are not supported")
            if self.d is None or not is_nonresidue(self.d, self.p):
                raise ValueError(f"{self.d} is not a quadratic non-residue mod {self.p}")
        elif self.d is not None:
            raise ValueError("split tori carry no non-residue")


@dataclass(frozen=True)
class TorusElement:
    """Class of x + y*sqrt(d) in the inert torus, mod scalars.

    Stored projectively mod p^k as the canonical level-k coset label (y
    normalized to 1 when it is a unit, otherwise x), and multiplied by the
    label group law.
    """

    torus: QuadraticTorus
    k: int
    x: int
    y: int

    def __post_init__(self):
        if self.torus.kind != "inert":
            raise ValueError("torus elements are kept for the inert kind only")
        if self.k < 1:
            raise ValueError("representative is zero mod scalars to precision")
        x, y = _canonical_pair(self.torus.p, self.k, self.x, self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if self.torus != other.torus:
            raise ValueError("elements of different tori")
        k = min(self.k, other.k)
        x, y = _label_mul(self.torus, k, (self.x, self.y), (other.x, other.y))
        return TorusElement(self.torus, k, x, y)


def filtration_order(torus: QuadraticTorus, j: int) -> int:
    """Index of the j-th standard compact subgroup in the maximal one."""
    if torus.kind != "inert":
        raise ValueError("filtration orders are finite only for the inert kind")
    if j < 0:
        raise ValueError("level must be nonnegative")
    if j == 0:
        return 1
    return (torus.p + 1) * torus.p ** (j - 1)


def base_sequence(torus: QuadraticTorus, n: int):
    """Consecutive vertices v_0..v_n with stabilizers the standard filtration,
    and the edges e_j = (v_{j-1} -> v_j)."""
    p = torus.p
    if torus.kind == "inert":
        verts = [Vertex(p, j, 0, 0) for j in range(n + 1)]
    else:
        # distance-j branch off the apartment at its basepoint
        verts = [origin(p)] + [Vertex(p, j, 0, 1) for j in range(1, n + 1)]
    edges = [DirectedEdge(verts[j - 1], verts[j]) for j in range(1, n + 1)]
    return verts, edges


# ---------------------------------------------------------------------------
# coset labels: canonical points of P^1(Z/p^j)


def _canonical_pair(p: int, j: int, x: int, y: int):
    mod = p**j
    if j == 0:
        return (1, 0)
    x, y = x % mod, y % mod
    if x % p == 0 and y % p == 0:
        raise ValueError("pair is not primitive")
    if y % p != 0:
        return (x * pow(y, -1, mod) % mod, 1)
    return (1, y * pow(x, -1, mod) % mod)


def coset_labels(torus: QuadraticTorus, j: int) -> list:
    """Canonical representatives of the level-j coset space, as pairs (x, y)."""
    p = torus.p
    if j == 0:
        return [(1, 0)]
    mod = p**j
    labels = [(x, 1) for x in range(mod)]
    labels += [(1, y) for y in range(0, mod, p)]
    return labels


def _label_mul(torus: QuadraticTorus, j: int, a, b):
    p, d = torus.p, torus.d
    mod = p**j
    x = (a[0] * b[0] + d * a[1] * b[1]) % mod
    y = (a[0] * b[1] + a[1] * b[0]) % mod
    return _canonical_pair(p, j, x, y)


def _label_pow(torus, j, a, e):
    acc = _canonical_pair(torus.p, j, 1, 0)
    base = a
    while e > 0:
        if e & 1:
            acc = _label_mul(torus, j, acc, base)
        base = _label_mul(torus, j, base, base)
        e >>= 1
    return acc


def _element_order(torus, j, a, bound):
    acc = a
    e = 1
    ident = _canonical_pair(torus.p, j, 1, 0)
    while acc != ident:
        acc = _label_mul(torus, j, acc, a)
        e += 1
        if e > bound:
            raise InvariantViolation("order exceeds group size")
    return e


def _crt_exponent(keep: int, kill: int) -> int:
    """Exponent congruent to 1 mod keep and 0 mod kill (coprime orders)."""
    return kill * pow(kill, -1, keep)


def coset_decomposition(torus: QuadraticTorus, j: int) -> dict:
    """The level-j coset group split as torsion x cyclic p-part: the dict
    sending each canonical label tgen^i * fgen^f to (i, f), its torsion index
    and free digit, 0 <= i < p + 1 and 0 <= f < p^(j-1); level 0 is (1 : 0).

    tgen is the CRT torsion projection of the first label (in coset_labels
    order) whose projection has order p + 1; fgen is (1 : p), the class of
    1 + p sqrt(d), which lies in the free part already.  One walk over the
    group fills the dict, one label multiplication per label.
    """
    p = torus.p
    if j == 0:
        return {(1, 0): (0, 0)}
    torsion_order = p + 1
    free_order = p ** (j - 1)
    ident = _canonical_pair(p, j, 1, 0)
    alpha_t = _crt_exponent(torsion_order, free_order)
    labels = coset_labels(torus, j)
    # torsion generator: first label whose torsion projection has full order
    tgen = None
    for lbl in labels:
        cand = _label_pow(torus, j, lbl, alpha_t)
        if _element_order(torus, j, cand, torsion_order + 1) == torsion_order:
            tgen = cand
            break
    if tgen is None:
        raise InvariantViolation("torsion part of the coset group must be cyclic")
    fgen = _canonical_pair(p, j, 1, p)
    parts, row = {}, ident
    for i in range(torsion_order):
        acc = row
        for f in range(free_order):
            parts[acc] = (i, f)
            acc = _label_mul(torus, j, acc, fgen)
        row = _label_mul(torus, j, row, tgen)
    # every step is a canonical label and the walk takes as many steps as
    # there are labels, so it covers them exactly once iff it never repeats;
    # a generator of short order repeats one
    if len(parts) != len(labels):
        raise InvariantViolation(
            f"torsion x free walk does not cover the level-{j} cosets exactly once"
        )
    return parts


@dataclass(frozen=True)
class OrbitTable:
    """Bijection between level-j cosets and the orbit of the base vertex/edge.

    free_exponent is the p-exponent of the free quotient the labels map onto
    (max(j-1, 0) for the local model).
    """

    torus: QuadraticTorus
    level: int
    mode: str               # "vertex" | "edge"
    labels: tuple           # canonical (x, y) pairs
    images: dict            # label -> Vertex | DirectedEdge
    parents: dict           # label -> label at level-1 (empty at level 0)
    split_parts: dict       # label -> (torsion index, free digit)
    free_exponent: int

    def rows(self):
        for lbl in self.labels:
            yield lbl, self.images[lbl]


def _standard_image(p: int, d: int, j: int, x: int, y: int) -> Vertex:
    """Image of v_j under the torus element x + y*sqrt(d), (x, y) primitive:
    the normal form of p^j Z^2 + Z (d y, x), read off in closed form."""
    mod = p**j
    x %= mod
    if x % p:
        return Vertex(p, j, 0, d * y * pow(x, -1, mod) % mod)
    if x == 0:
        return Vertex(p, 0, j, 0)
    # 0 < v < j and y is a unit: (d y, x) spans the same line as (w^(-1), p^v)
    v = val_p(x, p)
    r = p ** (j - v)
    return Vertex(p, j - v, v, d * y * pow(x // p**v, -1, r) % r)


def _standard_images(torus: QuadraticTorus, j: int, mode: str, labels, parents) -> list:
    """Images of the level-j base vertex or edge under each label."""
    p, d = torus.p, torus.d
    tip = [_standard_image(p, d, j, x, y) for x, y in labels]
    if mode == "vertex":
        return tip
    # an edge's source is the parent label's image of v_(j-1)
    below = {}
    out = []
    for lbl, t in zip(labels, tip):
        par = parents[lbl]
        src = below.get(par)
        if src is None:
            src = below[par] = _standard_image(p, d, j - 1, *par)
        out.append(DirectedEdge(src, t))
    return out


def orbit_table(torus: QuadraticTorus, j: int, mode: str = "vertex",
                base=None) -> OrbitTable:
    """Enumerate the level-j cosets, map the j-th base point through each,
    and record the bijection with its orbit plus the projection to level j-1.

    The base point is the j-th point of base_sequence, mapped in closed
    form; base, if given, must be that point.
    """
    if torus.kind != "inert":
        raise ValueError("orbit tables are finite only for the inert kind")
    if j < 0:
        raise ValueError("level must be nonnegative")
    if mode not in ("vertex", "edge"):
        raise ValueError("mode must be 'vertex' or 'edge'")
    if mode == "edge" and j == 0:
        raise ValueError("edge orbits start at level 1")
    verts, edges = base_sequence(torus, max(j, 1))
    standard = verts[j] if mode == "vertex" else edges[j - 1]
    if base is not None and base != standard:
        raise ValueError(f"orbit tables start from the standard base point {standard}")
    labels = tuple(coset_labels(torus, j))
    parents = {}
    if j >= 1:
        for lbl in labels:
            parents[lbl] = _canonical_pair(torus.p, j - 1, *lbl)
    acted = _standard_images(torus, j, mode, labels, parents)
    seen = {}
    for lbl, w in zip(labels, acted):
        if w in seen:
            raise TransitivityViolation(
                f"cosets {seen[w]} and {lbl} agree on the base point at level {j}"
            )
        seen[w] = lbl
    images = dict(zip(labels, acted))
    return OrbitTable(torus, j, mode, labels, images, parents,
                      coset_decomposition(torus, j), max(j - 1, 0))
