"""Action of a nonsplit (or split) torus on the tree through a fixed embedding.

Inert kind: the units of the unramified quadratic extension modulo scalars,
embedded by x + y*sqrt(d) -> [[x, d y], [y, x]].  The level-j coset space is
the projective line over Z/p^j, enumerated by canonical representatives and
decomposed as torsion x cyclic p-part for pushforward to group rings.  A
label's position in that enumeration is arithmetic ((x : 1) at x, (1 : y) at
p^j + y / p), so the decomposition and the parent map are lists by position;
a compatible system stores each label at its walk step instead, where both
are a rule (see measures).
TorusElement and the coset labels share one group law: an element is stored
as its canonical level-k label and multiplied with _label_mul.

Orbit images of the standard base points are read off in closed form, by
blocks of label positions (_orbit_blocks), and the edge (v_(j-1), v_j) goes
to the pair of images of its endpoints.  orbit_table builds those images as
Vertex and DirectedEdge objects, for the CLI and for inspection; orbit_ids
reads the same blocks straight to the ids of a ball around the origin, with
no object built, for from_tree.  The orbit blocks and the coset walk read
every unit inverse mod p^j off one table (_unit_inverses), built from the
powers of a generator of (Z/p^J)^x for some J >= j, so no label costs a
modular inverse; from_tree builds one table, of its top level, for every
level.

Split kind: only its base sequence, a branch off the standard apartment, is
kept, for inspection.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .errors import InvariantViolation, TransitivityViolation
from .tree import DirectedEdge, Vertex, digit_reversals, origin, origin_id_offset
from .util import is_nonresidue


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


def _step_of(torus: QuadraticTorus, j: int, steps, x: int, y: int) -> int:
    """The walk step of the canonical level-j label (j >= 1) of the
    primitive pair (x, y), read off steps, the level's walk by label
    position: (x : 1) is at position x and (1 : y), p | y, at p^j + y / p."""
    p = torus.p
    x, y = _canonical_pair(p, j, x, y)
    return steps[x if y % p else p**j + y // p]


def _unit_inverses(p: int, j: int) -> list:
    """inv[w] = w^(-1) mod p^j for every unit 0 < w < p^j, and 0 at the
    multiples of p ([0] at j = 0); it also inverts w mod p^i, i <= j, as
    inv[w] mod p^i, so one table serves every level up to j.

    For odd p, (Z/p^j)^x is cyclic, generated by a primitive root g mod p
    (the least g whose p - 1 powers mod p are distinct) with g^(p-1) != 1
    mod p^2, else by g + p.  So inv[g^e] = g^(-e) comes from the list of
    powers of g: p^j multiplications, no inverse per entry.  At p = 2 the
    group is not cyclic for j >= 3, and the table is refused.
    """
    if p == 2:
        raise ValueError("unit inverse tables are built for odd p only")
    if j == 0:
        return [0]
    mod = p**j
    g = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)
    if pow(g, p - 1, p * p) == 1:
        g += p
    powers = list(accumulate(repeat(g, mod - mod // p - 1), lambda a, b: a * b % mod,
                             initial=1))
    inv = [0] * mod
    # g^e and g^(-e) = g^(order - e), e = 0, 1, ..., order - 1
    for w, w_inv in zip(powers, chain((1,), reversed(powers))):
        inv[w] = w_inv
    return inv


def coset_decomposition(torus: QuadraticTorus, j: int) -> list:
    """The level-j coset group split as torsion x cyclic p-part, by label
    position: entry t is the step s = i p^(j-1) + f at which the walk
    reaches the t-th label of coset_labels, which is tgen^i * fgen^f, with
    torsion index 0 <= i < p + 1 and free digit 0 <= f < p^(j-1); level 0
    is [0].

    tgen is the CRT torsion projection of the first label (in coset_labels
    order) whose projection has order p + 1; fgen is (1 : p), the class of
    1 + p sqrt(d), which lies in the free part already.  The walk runs by
    rows.  It steps through the free part once, fgen^f = (1 : y_f) with
    p | y_f, the identity row at positions p^j + y_f / p; each step
    (1 : y)(1 : p) = (1 + d p y : y + p) reads the inverse of 1 + d p y = 1
    mod p off the level's unit-inverse table.  Each torsion row tgen^i =
    (x : 1), i > 0, then sends y_f to the position of (x : 1)(1 : y_f) =
    (x + d y_f : 1 + x y_f), which is (x + d y_f) (1 + x y_f)^(-1) mod p^j,
    one table read per label, since 1 + x y_f = 1 mod p.
    """
    return list(_coset_walk(torus, j, _unit_inverses(torus.p, j)))


def _coset_walk(torus: QuadraticTorus, j: int, inv: list) -> array:
    """coset_decomposition with every inverse read off inv, a unit-inverse
    table mod p^J for some J >= j, as an array of machine ints: a step
    holds no int object until it is read."""
    if j == 0:
        return array("q", [0])
    p = torus.p
    torsion_order = p + 1
    free_order = p ** (j - 1)
    mod, d = p**j, torus.d
    alpha_t = _crt_exponent(torsion_order, free_order)
    # torsion generator: first label, in coset_labels order, whose torsion
    # projection has full order
    labels = chain(zip(range(mod), repeat(1)), zip(repeat(1), range(0, mod, p)))
    tgen = next((cand for cand in (_label_pow(torus, j, lbl, alpha_t) for lbl in labels)
                 if _element_order(torus, j, cand, torsion_order + 1) == torsion_order), None)
    if tgen is None:
        raise InvariantViolation("torsion part of the coset group must be cyclic")
    ys, y, dp = [0] * free_order, 0, d * p
    for f in range(1, free_order):
        y = ys[f] = (y + p) * inv[(1 + dp * y) % mod] % mod
    steps = array("q", [-1]) * (torsion_order * free_order)
    # row i holds the steps i p^(j-1) + f, in the order of the free digits f
    for s, y in enumerate(ys):
        steps[mod + y // p] = s
    row_start = _canonical_pair(p, j, 1, 0)
    for i in range(1, torsion_order):
        row_start = _label_mul(torus, j, row_start, tgen)
        x, one = row_start
        if one != 1:
            # tgen has short order: this row is the free part again, whose
            # labels the identity row holds, so some label stays unfilled
            break
        at = [(x + d * y) * inv[(1 + x * y) % mod] % mod for y in ys]
        for s, t in enumerate(at, i * free_order):
            steps[t] = s
    # every step is a canonical label and the walk takes as many steps as
    # there are labels, so it covers them exactly once iff it never repeats
    # one, iff no position is left unfilled; a generator of short order
    # repeats one
    if -1 in steps:
        raise InvariantViolation(
            f"torsion x free walk does not cover the level-{j} cosets exactly once"
        )
    return steps


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


def _orbit_blocks(p: int, d: int, j: int, inv: list):
    """The images of v_j under the level-j labels, in blocks of label
    positions: each block (a, b, us, at) sends the labels at the positions
    at (a slice of coset_labels) to Vertex(p, a, b, u) for u in us.

    The label (x : y) sends v_j = [[p^j, 0], [0, 1]] to the lattice
    p^j Z^2 + Z (d y, x), whose normal form is
      Vertex(p, 0, j, 0)                           if x = 0 mod p^j,
      Vertex(p, j - v, v, d y w^(-1) mod p^(j-v))  if x = p^v w, w a unit,
    so (x : 1), x = p^v w with w = c mod p, runs over the positions
    p^v c, p^v (c + p), ... and (1 : y), p | y, over p^j + y / p.  At
    level 0 the one label (1 : 0) fixes v_0, the origin.  Each w^(-1) mod
    p^(j-v) is the entry inv[w] mod p^(j-v) of inv, a unit-inverse table
    mod p^J for some J >= j, so a block is d inv[w] mod p^(j-v) over the
    slice inv[c : p^(j-v) : p].
    """
    mod = p**j
    yield 0, j, [0], slice(0, 1)
    if not j:
        return
    for v in range(j):
        r, q = p ** (j - v), p**v
        for c in range(1, p):
            us = [d * w_inv % r for w_inv in inv[c:r:p]]
            yield j - v, v, us, slice(q * c, mod, q * p)
    yield j, 0, [d * y % mod for y in range(0, mod, p)], slice(mod, mod + mod // p)


def orbit_ids(torus: QuadraticTorus, j: int) -> list:
    """The ids of the images of v_j under the level-j labels, in
    coset_labels order, in any ball around the origin of radius >= j, with
    no Vertex built: Vertex(p, a, b, u) has id origin_id_offset(p, a, b)
    plus the a-digit reversal of u, which is its j-digit one over
    p^(j - a)."""
    return _orbit_ids(torus, j, _unit_inverses(torus.p, j))


def _orbit_ids(torus: QuadraticTorus, j: int, inv: list) -> list:
    """orbit_ids with its inverses read off inv, a unit-inverse table mod
    p^J for some J >= j."""
    p = torus.p
    rev = digit_reversals(p, j)
    ids = [0] * filtration_order(torus, j)
    for a, b, us, at in _orbit_blocks(p, torus.d, j, inv):
        base, q = origin_id_offset(p, a, b), p ** (j - a)
        ids[at] = [base + rev[u] // q for u in us]
    return ids


def _orbit_images(torus: QuadraticTorus, j: int, inv: list) -> list:
    """The images of v_j under the level-j labels, in coset_labels order,
    with inv as in _orbit_blocks."""
    p = torus.p
    out = [None] * filtration_order(torus, j)
    for a, b, us, at in _orbit_blocks(p, torus.d, j, inv):
        out[at] = [Vertex(p, a, b, u) for u in us]
    return out


def _parent_positions(p: int, j: int) -> list:
    """The position at level j - 1 of the parent of each level-j label, in
    coset_labels order (none at level 0): with m = p^(j-1), (x : 1) lies
    over (x mod m : 1) at x mod m and (1 : y) over (1 : y mod m) at
    m + (y mod m) / p; every level-1 label lies over (1 : 0)."""
    if j <= 1:
        return [0] * (p + 1) if j else []
    m = p ** (j - 1)
    return list(range(m)) * p + list(range(m, m + m // p)) * p


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
    up = _parent_positions(torus.p, j)
    lower = coset_labels(torus, j - 1) if j else []
    parents = {lbl: lower[t] for lbl, t in zip(labels, up)}
    # one unit-inverse table for both levels of images and the walk
    inv = _unit_inverses(torus.p, j)
    acted = _orbit_images(torus, j, inv)
    if mode == "edge":
        # an edge's source is the parent label's image of v_(j-1)
        below = _orbit_images(torus, j - 1, inv)
        acted = [DirectedEdge(below[t], w) for t, w in zip(up, acted)]
    seen = {}
    for lbl, w in zip(labels, acted):
        if w in seen:
            raise TransitivityViolation(
                f"cosets {seen[w]} and {lbl} agree on the base point at level {j}"
            )
        seen[w] = lbl
    images = dict(zip(labels, acted))
    q = torus.p ** max(j - 1, 0)
    split_parts = {lbl: divmod(s, q) for lbl, s in zip(labels, _coset_walk(torus, j, inv))}
    return OrbitTable(torus, j, mode, labels, images, parents, split_parts, max(j - 1, 0))
