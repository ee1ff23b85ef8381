"""Towers of coefficient tables satisfying the exact distribution relations,
their group-ring theta elements, ordinary normalization, plus/minus
extraction for zero adjacency eigenvalue, and the product L-element.

A system stores each level as three tuples by label position: the residues,
the position of each label's parent one level down, and the projection of
each label to the free quotient (Z/p^m(level))^delta, as its flat index in
the group ring.  Positions follow coset_labels for towers read off the tree
and key order for synthetic ones; the label names ("x:y", "tau|d") are built
from the position only where their text matters: labels(j), a distribution
report and the synthesizer's draw order (parents by sorted name).  The
distribution checker is one scatter-add of each level onto its parents'
positions; the theta pushforward is one scatter-add onto the free indices.
The raw and the normalized theta and the L-element are each built once per
system and level, in the system's memo.  One rule, _fiber_targets, gives
what each fiber sums to (alpha c_j on edges, a_p c_j - c_(j-1) on
vertices); the synthesizer solves it and the checker tests it.

from_tree reads a tower off a form on a ball centered at the origin, which
the inert torus fixes: the image of the base vertex v_j under a label h is a
ball vertex at depth j, whose id torus.orbit_ids gives in closed form, and
the image of the base edge e_j is the ball edge into h v_j, whose source is
the parent label's image of v_(j-1).  Parent positions and free digits are
arithmetic on label position (torus._parent_positions, and the walk of
torus.coset_decomposition).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import wraps
from operator import ne

from . import groupring
from .errors import (
    CompatibilityViolation,
    DistributionViolation,
    InvariantViolation,
    NotDivisible,
    NotOrdinary,
    NotSupersingular,
    PrecisionExhausted,
    TransitivityViolation,
    UnsupportedDelta,
)
from .groupring import GroupRingElement, QuotientClass, _axis_map, divide_omega_tilde, star

# torus, tree and the form classes are imported by from_tree, their only
# reader, so a synthetic system loads no torus
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .padic import EigenData
    from .torus import QuadraticTorus, TorusElement


def _check_mode(mode: str, eigen: EigenData) -> None:
    """A mode is vertex or edge, and carries the eigenvalue its fiber rule
    reads: a_p on vertices, alpha on edges."""
    if mode not in ("vertex", "edge"):
        raise ValueError("mode must be 'vertex' or 'edge'")
    if mode == "vertex" and eigen.ap is None:
        raise ValueError("vertex systems need the adjacency eigenvalue")
    if mode == "edge" and eigen.alpha is None:
        raise ValueError("edge systems need the transfer eigenvalue")


def _check_label_kind(kind: str) -> None:
    """A system's labels are named as a torus tower's or a synthetic one's."""
    if kind not in ("torus", "synth"):
        raise ValueError(f"unknown label kind {kind!r}: a system's labels are "
                         "'torus' or 'synth'")


def level_labels(label_kind: str, p: int, delta: int, torsion: int, e: int, j: int) -> list:
    """The names of the level-j labels, in position order.

    "torus": "x:y" for the canonical pairs of coset_labels; "synth":
    "tau|d_1,...,d_delta" for the torsion index tau < torsion (0 at level 0)
    and the free digits d_i < p^e, outer axis first, in key order.
    """
    if label_kind == "torus":
        if j == 0:
            return ["1:0"]
        mod = p**j
        return [f"{x}:1" for x in range(mod)] + [f"1:{y}" for y in range(0, mod, p)]
    # the digit strings in flat-index order, outer axis first
    digits = list(map(str, range(p**e)))
    for _ in range(delta - 1):
        digits = [f"{a},{t}" for a in digits for t in range(p**e)]
    return [f"{tau}|{d}" for tau in range(torsion if j else 1) for d in digits]


@dataclass(frozen=True)
class CompatibleSystem:
    p: int
    k: int
    delta: int
    mode: str                   # "vertex" | "edge"
    eigen: EigenData
    n_max: int
    torsion: int
    level_exp: tuple            # m(j) per level j
    label_kind: str             # "torus" | "synth": what level_labels names the positions
    levels: tuple               # levels[j]: tuple of residues by label position (None below start)
    fibers: tuple               # fibers[j]: tuple of parent positions at level j - 1 (None at start)
    free: tuple                 # free[j]: tuple of flat group indices by label position
    # the memo of theta_level, theta_ordinary and lp, (function name, *args)
    # -> result, successful results only (_memoized): out of ==, hash and
    # repr, and started empty by dataclasses.replace; the levels are
    # tuples, so a system cannot change under it
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_mode(self.mode, self.eigen)
        _check_label_kind(self.label_kind)

    @property
    def start_level(self) -> int:
        return 0 if self.mode == "vertex" else 1

    def table(self, j: int) -> tuple:
        t = self.levels[j]
        if t is None:
            raise ValueError(f"level {j} is not populated")
        return t

    def labels(self, j: int) -> list:
        """The names of the level-j labels, in the order of table(j)."""
        self.table(j)
        return level_labels(self.label_kind, self.p, self.delta, self.torsion,
                            self.level_exp[j], j)


@dataclass(frozen=True)
class DistributionReport:
    ok: bool
    relations_checked: int
    first_violation: tuple | None   # (upper layer, label, lhs, rhs)

    def to_json(self):
        out = {"ok": self.ok, "relations_checked": self.relations_checked}
        if self.first_violation is not None:
            layer, label, lhs, rhs = self.first_violation
            out["violation"] = {"layer": layer, "label": label,
                                "lhs": str(lhs), "rhs": str(rhs)}
        return out


@dataclass(frozen=True)
class ThetaElement:
    level: int
    value: GroupRingElement
    normalization: int          # exponent r of the alpha^(-r) factor applied


@dataclass(frozen=True)
class SignedThetaClass:
    level: int                  # system level the table came from
    layer: int                  # algebra layer of the group ring
    eps: int
    cls: QuotientClass          # representative already carries the sign


@dataclass(frozen=True)
class PMPair:
    plus: SignedThetaClass | None
    minus: SignedThetaClass | None


@dataclass(frozen=True)
class PadicLFunction:
    kind: str                   # "ordinary" | "plus" | "minus"
    level: int
    value: GroupRingElement
    ideal_tag: str | None
    factor_value: GroupRingElement


# ---------------------------------------------------------------------------
# construction from a form on the tree


def from_tree(form, torus: QuadraticTorus, eigen: EigenData, n_max: int,
              shift: TorusElement | None = None) -> CompatibleSystem:
    """Read a compatible system off the torus orbits: c_j(h) = form(h * w_j).

    The form must be a local eigen-extension (vertex mode) or a stabilized
    eigen edge form (edge mode) defined on a ball of radius >= n_max around
    the origin.  Each label's value is read at the ball id of its image,
    which orbit_ids gives in closed form: no tree object is built or looked
    up, so the ball's object views stay unbuilt.  With a shift s the base
    points are s * w_j; the torus is commutative, so label h reads the
    standard orbit at the label h * s.

    Every level reads its unit inverses off one table built for the top
    level, and the checks hold no per-label object beyond the level's ids:
    transitivity marks the images in a byte per ball id, and the edge check
    compares parents lazily.
    """
    from .hecke import VertexForm
    from .torus import (
        _canonical_pair, _coset_walk, _label_mul, _label_position, _orbit_ids,
        _parent_positions, _unit_inverses, coset_labels,
    )
    from .tree import origin, parent_ids
    if torus.kind != "inert":
        raise ValueError("genuine systems are built for the inert kind")
    mode = "vertex" if isinstance(form, VertexForm) else "edge"
    b = form.domain
    if b.center != origin(torus.p):
        raise ValueError(f"the form's ball is centered at {b.center}, not at the origin "
                         "the torus fixes")
    if b.radius < n_max:
        raise PrecisionExhausted(f"form ball radius {b.radius} < depth {n_max}")
    if shift is not None:
        if shift.torus != torus:
            raise ValueError("the shift must lie in the same torus")
        if shift.k < n_max:
            raise PrecisionExhausted(f"shift known mod p^{shift.k} < p^{n_max}")
    p, k = form.p, form.k
    values = form.values
    start = 0 if mode == "vertex" else 1
    levels: list = [None] * (n_max + 1)
    fibers: list = [None] * (n_max + 1)
    free: list = [None] * (n_max + 1)
    level_exp = tuple(max(j - 1, 0) for j in range(n_max + 1))
    # one table for every level: inv[w] mod p^j inverts w mod p^j
    inv = _unit_inverses(p, n_max)
    below = None                # ball ids of the labels one level down
    for j in range(n_max + 1):
        if j >= start:
            # the walk runs before the orbit ids, so its transients and the
            # ids are never held together
            free[j] = tuple(_coset_walk(torus, j, inv, list(range(p ** level_exp[j]))))
        ids = _orbit_ids(torus, j, inv)                     # depth j <= radius
        # one byte per ball id marks the images, with no per-id object
        seen = bytearray(b.size)
        for c in ids:
            seen[c] = 1
        if seen.count(1) != len(ids):
            raise TransitivityViolation(f"two level-{j} cosets agree on the base point")
        up = tuple(_parent_positions(p, j))
        if mode == "edge":
            # the image of e_j under h is the ball edge into h v_j, so its
            # source must be the parent label's image of v_(j-1)
            if j and any(map(ne, parent_ids(p, ids), map(below.__getitem__, up))):
                t = next(t for t, (q, u) in enumerate(zip(parent_ids(p, ids), up)) if q != below[u])
                raise InvariantViolation(f"the image of the level-{j} base edge under "
                                         f"{coset_labels(torus, j)[t]} is not a ball edge")
            below = ids
        if j < start:
            continue
        if shift is not None and j:
            s_lbl = _canonical_pair(p, j, shift.x, shift.y)
            ids = [ids[_label_position(p, j, *_label_mul(torus, j, lbl, s_lbl))]
                   for lbl in coset_labels(torus, j)]
        # the edge into vertex c from its parent has edge id 2c - 2
        if mode == "vertex":
            levels[j] = tuple(map(values.__getitem__, ids))
        else:
            levels[j] = tuple(values[2 * c - 2] for c in ids)
        if None in levels[j]:
            raise KeyError(f"the form has no value at an image of the level-{j} base point")
        if j > start:
            fibers[j] = up
    # the top level's table and ids are the largest transients: drop them
    # before the check allocates its own
    del inv, ids, below
    sys = CompatibleSystem(
        p, k, 1, mode, eigen, n_max, p + 1, level_exp, "torus",
        tuple(levels), tuple(fibers), tuple(free),
    )
    report = check_distribution(sys)
    if not report.ok:
        raise DistributionViolation(f"distribution relations fail: {report.to_json()}")
    return sys


# ---------------------------------------------------------------------------
# synthetic systems


def synth_system(p: int, k: int, mode: str, eigen: EigenData, n_max: int,
                 delta: int = 1, torsion: int | None = None,
                 level_map: str = "local", seed: int = 0) -> CompatibleSystem:
    """Seeded tower satisfying the distribution relations by construction.

    Coefficients at each new level are drawn from the seed, then one member
    of every fiber is corrected so the fiber sum matches the required
    combination of the two lower levels.

    The level-j labels are the pairs (torsion index, free digits) of
    Z/torsion x (Z/p^m(j))^delta, with key "tau|d_1,...,d_delta"; level 0 has
    the one label of the trivial group.  level_map "local" uses free
    exponents m(j) = max(j-1, 0) (mirroring the inert orbit structure);
    "full" uses m(j) = j.
    """
    _check_mode(mode, eigen)
    if torsion is None:
        torsion = p + 1
    if torsion < 1:
        raise ValueError("torsion order must be >= 1")
    if torsion % p == 0:
        raise ValueError("torsion order must be coprime to p")
    if level_map == "local":
        level_exp = tuple(max(j - 1, 0) for j in range(n_max + 1))
    elif level_map == "full":
        level_exp = tuple(range(n_max + 1))
    else:
        raise ValueError("level_map must be 'local' or 'full'")
    mod = p**k
    start = 0 if mode == "vertex" else 1
    if n_max < start:
        raise ValueError(f"{mode} systems need n_max >= {start}")
    rng = random.Random(seed)
    levels: list = [None] * (n_max + 1)
    fibers: list = [None] * (n_max + 1)
    free: list = [None] * (n_max + 1)
    for j in range(start, n_max + 1):
        # the label tau|d is at position tau * p^(m(j) delta) + flat index of d
        size = (p ** level_exp[j]) ** delta
        free[j] = tuple(range(size)) * (torsion if j else 1)
        if j > start:
            # a label's parent keeps its torsion index (0 at level 0) and
            # reduces each free digit mod p^m(j-1)
            q, q_down = p ** level_exp[j], p ** level_exp[j - 1]
            down = _axis_map(delta, q, lambda t: t % q_down, q_down)
            step = q_down**delta if j > 1 else 0
            fibers[j] = tuple(tau * step + d for tau in range(torsion) for d in down)
    # first populated level is free; then each fiber, its parents in sorted
    # key order and its members in key order, draws all but its last member
    levels[start] = tuple(rng.randrange(mod) for _ in free[start])
    for j in range(start, n_max):
        members: list = [[] for _ in levels[j]]
        for t, parent in enumerate(fibers[j + 1]):
            members[parent].append(t)
        names = level_labels("synth", p, delta, torsion, level_exp[j], j)
        targets = _fiber_targets(mode, eigen, mod, levels, fibers, j)
        table = [0] * len(fibers[j + 1])
        for parent in sorted(range(len(names)), key=names.__getitem__):
            *drawn, last = members[parent]
            acc = 0
            for t in drawn:
                table[t] = rng.randrange(mod)
                acc += table[t]
            table[last] = (targets[parent] - acc) % mod
        levels[j + 1] = tuple(table)
    return CompatibleSystem(
        p, k, delta, mode, eigen, n_max, torsion, level_exp, "synth",
        tuple(levels), tuple(fibers), tuple(free),
    )


# ---------------------------------------------------------------------------
# the exact distribution checker


def _fiber_targets(mode, eigen, mod, levels, fibers, j) -> list:
    """What each level-(j+1) fiber sums to, by the position of the level-j
    label it lies over: alpha c_j (edge) or a_p c_j - c_(j-1) (vertex,
    c_(-1) = 0), mod p^k."""
    a = (eigen.alpha if mode == "edge" else eigen.ap).residue
    if mode == "edge" or j == 0:
        return [a * c % mod for c in levels[j]]
    below = levels[j - 1]
    return [(a * c - below[u]) % mod for c, u in zip(levels[j], fibers[j])]


def check_distribution(sys: CompatibleSystem) -> DistributionReport:
    """Recompute both sides of every applicable projection relation: each
    level is added onto its parents' positions at once.  A failure is
    reported at the least label, by name, of the lowest failing level, with
    the relations checked counted as a walk in sorted name order would."""
    mod = sys.p**sys.k
    checked = 0
    for j in range(sys.start_level, sys.n_max):
        sums = [0] * len(sys.table(j))
        for parent, c in zip(sys.fibers[j + 1], sys.table(j + 1)):
            sums[parent] += c
        lhs = [c % mod for c in sums]
        rhs = _fiber_targets(sys.mode, sys.eigen, mod, sys.levels, sys.fibers, j)
        if lhs != rhs:
            names = sys.labels(j)
            t = min((t for t, (a, b) in enumerate(zip(lhs, rhs)) if a != b),
                    key=names.__getitem__)
            checked += 1 + sum(name < names[t] for name in names)
            return DistributionReport(False, checked, (j + 1, names[t], lhs[t], rhs[t]))
        checked += len(rhs)
    return DistributionReport(True, checked, None)


# ---------------------------------------------------------------------------
# theta elements


def _check_level(sys: CompatibleSystem, n: int):
    if n > sys.n_max or n < sys.start_level:
        raise ValueError(f"level {n} outside populated range")


def _memoized(build):
    """Build each (name, *args) result once per system: a success is stored
    in sys._memo and returned as the same object after; a raise stores
    nothing, so every later call raises again."""
    @wraps(build)
    def get(sys: CompatibleSystem, *args):
        key = (build.__name__, *args)
        out = sys._memo.get(key)
        if out is None:
            out = sys._memo[key] = build(sys, *args)
        return out

    return get


@_memoized
def theta_level(sys: CompatibleSystem, n: int) -> ThetaElement:
    """Pushforward of the level-n table to the free quotient group ring,
    built on the first call for each level and returned as the same element
    after."""
    _check_level(sys, n)
    layer = sys.level_exp[n]
    coeffs = [0] * (sys.p**layer) ** sys.delta
    for i, c in zip(sys.free[n], sys.table(n)):
        coeffs[i] += c
    value = GroupRingElement(sys.p, sys.k, layer, sys.delta, tuple(coeffs))
    return ThetaElement(n, value, 0)


@_memoized
def theta_ordinary(sys: CompatibleSystem, n: int) -> ThetaElement:
    """alpha^(-n) times the raw theta, with exact tower compatibility
    checked, built once per system and level; a failed check raises again
    on every call."""
    if sys.mode != "edge":
        raise NotOrdinary("ordinary normalization applies to edge systems")
    alpha = sys.eigen.alpha
    if not alpha.is_unit():
        raise NotOrdinary("transfer eigenvalue is not a unit")
    _check_level(sys, n)
    inv = alpha.inverse()
    thetas = {}
    for j in range(sys.start_level, n + 1):
        raw = theta_level(sys, j).value
        scale = pow(inv.residue, j, sys.p**sys.k)
        thetas[j] = ThetaElement(j, raw * scale, j)
    for j in range(sys.start_level + 1, n + 1):
        upper, lower = thetas[j].value, thetas[j - 1].value
        if sys.level_exp[j] == sys.level_exp[j - 1]:
            projected = upper
        else:
            projected = groupring.project(upper)
        if projected != lower:
            raise CompatibilityViolation(f"projection of layer {j} misses layer {j - 1}")
    return thetas[n]


def _pm_extract_at(sys: CompatibleSystem, level: int) -> SignedThetaClass:
    layer = sys.level_exp[level]
    eps = 1 if layer % 2 == 0 else -1
    raw = theta_level(sys, level).value
    # divisibility by Omega~^{-eps} is the annihilation Omega^eps * raw = 0
    try:
        cls = divide_omega_tilde(raw, eps)
    except NotDivisible as exc:
        raise NotSupersingular(
            f"omega annihilation fails at level {level} (layer {layer})"
        ) from exc
    half = layer // 2 if eps > 0 else (layer + 1) // 2
    sign = -1 if half % 2 else 1
    signed = QuotientClass(cls.rep * sign, eps)
    return SignedThetaClass(level, layer, eps, signed)


def pm_extract(sys: CompatibleSystem, n: int) -> PMPair:
    """Signed plus/minus classes from the latest levels of each parity."""
    if sys.mode != "vertex":
        raise NotSupersingular("plus/minus extraction applies to vertex systems")
    if sys.eigen.ap is None or sys.eigen.ap.residue != 0:
        raise NotSupersingular("adjacency eigenvalue must be zero")
    if sys.delta != 1:
        raise UnsupportedDelta("plus/minus extraction is defined for delta = 1")
    _check_level(sys, n)
    plus = minus = None
    for level in range(n, sys.start_level - 1, -1):
        parity = sys.level_exp[level] % 2
        if parity == 0 and plus is None:
            plus = _pm_extract_at(sys, level)
        elif parity == 1 and minus is None:
            minus = _pm_extract_at(sys, level)
        if plus is not None and minus is not None:
            break
    return PMPair(plus, minus)


def pm_project_class(cls: SignedThetaClass, target_layer: int) -> QuotientClass:
    """Reduce a signed class to a lower layer of the same parity, where it is
    a class modulo the smaller omega ideal."""
    if (cls.layer - target_layer) % 2 != 0 or target_layer > cls.layer:
        raise ValueError("target layer must be lower and of equal parity")
    return QuotientClass(groupring.project_to(cls.cls.rep, target_layer), cls.eps)


def lp(sys: CompatibleSystem, n: int, kind: str = "ordinary") -> PadicLFunction:
    """The product of the (normalized or signed) theta with its involution,
    built once per system, level and kind."""
    return _lp(sys, n, kind)


@_memoized
def _lp(sys: CompatibleSystem, n: int, kind: str) -> PadicLFunction:
    if kind == "ordinary":
        theta = theta_ordinary(sys, n)
        value = theta.value * star(theta.value)
        return PadicLFunction("ordinary", n, value, None, theta.value)
    if kind in ("plus", "minus"):
        pair = pm_extract(sys, n)
        cls = pair.plus if kind == "plus" else pair.minus
        if cls is None:
            raise NotSupersingular(f"no level of the required parity up to {n}")
        rep = cls.cls.rep
        value = rep * star(rep)
        return PadicLFunction(kind, cls.level, value, cls.cls.ideal_tag, rep)
    raise ValueError("kind must be 'ordinary', 'plus' or 'minus'")
