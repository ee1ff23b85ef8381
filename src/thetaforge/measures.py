"""Towers of coefficient tables satisfying the exact distribution relations,
their group-ring theta elements, ordinary normalization, plus/minus
extraction for zero adjacency eigenvalue, and the product L-element.

A system stores, per level, a table over opaque coset labels together with
the fiber map to the previous level and the projection of each label to the
free quotient (Z/p^m(level))^delta, as its flat index in the group ring.  The
distribution checker needs only fibers; the theta pushforward needs only the
free projections, and is one pass adding each coefficient at its index.
One rule, _fiber_target, gives what each fiber sums to (alpha c_j on edges,
a_p c_j - c_(j-1) on vertices); the synthesizer solves it and the checker
tests it.

from_tree reads a tower off a form on a ball centered at the origin, which
the inert torus fixes: the image of the base vertex v_j under a label h is a
ball vertex at depth j, and the image of the base edge e_j is the ball edge
into h v_j, whose source is the parent label's image of v_(j-1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import groupring
from .errors import (
    CompatibilityViolation,
    DistributionViolation,
    InvariantViolation,
    NotDivisible,
    NotOrdinary,
    NotSupersingular,
    PrecisionExhausted,
    UnsupportedDelta,
)
from .groupring import GroupRingElement, QuotientClass, _axis_map, divide_omega_tilde, star
from .hecke import EigenData, VertexForm
from .torus import QuadraticTorus, TorusElement, _canonical_pair, _label_mul, orbit_table
from .tree import origin


def _check_mode(mode: str, eigen: EigenData) -> None:
    """A mode is vertex or edge, and carries the eigenvalue its fiber rule
    reads: a_p on vertices, alpha on edges."""
    if mode not in ("vertex", "edge"):
        raise ValueError("mode must be 'vertex' or 'edge'")
    if mode == "vertex" and eigen.ap is None:
        raise ValueError("vertex systems need the adjacency eigenvalue")
    if mode == "edge" and eigen.alpha is None:
        raise ValueError("edge systems need the transfer eigenvalue")


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
    levels: tuple               # levels[j]: dict label -> residue (None below start)
    fibers: tuple               # fibers[j]: dict label_j -> label_{j-1}
    free: tuple                 # free[j]: dict label -> flat group index

    def __post_init__(self):
        _check_mode(self.mode, self.eigen)

    @property
    def start_level(self) -> int:
        return 0 if self.mode == "vertex" else 1

    def table(self, j: int) -> dict:
        t = self.levels[j]
        if t is None:
            raise ValueError(f"level {j} is not populated")
        return t

    def labels(self, j: int):
        return self.table(j).keys()


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
    """Read a compatible system off the orbit tables: c_j(h) = form(h * w_j).

    The form must be a local eigen-extension (vertex mode) or a stabilized
    eigen edge form (edge mode) defined on a ball of radius >= n_max around
    the origin.  With a shift s the base points are s * w_j; the torus is
    commutative, so label h reads the standard orbit at the label h * s.
    """
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
    values = form.tables[0]
    start = 0 if mode == "vertex" else 1
    levels: list = [None] * (n_max + 1)
    fibers: list = [None] * (n_max + 1)
    free: list = [None] * (n_max + 1)
    level_exp = tuple(max(j - 1, 0) for j in range(n_max + 1))
    below = above = None        # vertex ids and keys of the labels one level down
    for j in range(n_max + 1):
        tab = orbit_table(torus, j, "vertex")
        if mode == "edge":
            # the image of e_j under h is the ball edge into h v_j, so its
            # source must be the parent label's image of v_(j-1)
            ids = {lbl: b.ids[w] for lbl, w in tab.images.items()}   # depth j <= radius
            for lbl in tab.labels if j else ():
                if b.parents[ids[lbl]] != below[tab.parents[lbl]]:
                    raise InvariantViolation(
                        f"the image of the level-{j} base edge under {lbl} is not a ball edge")
            below = ids
        if j < start:
            continue
        point = tab.images if mode == "vertex" else {
            lbl: b.edges[2 * c - 2] for lbl, c in ids.items()}
        if shift is not None:
            s_lbl = _canonical_pair(torus.p, j, shift.x, shift.y)
            point = {lbl: point[_label_mul(torus, j, lbl, s_lbl)] for lbl in tab.labels}
        keys = {lbl: f"{lbl[0]}:{lbl[1]}" for lbl in tab.labels}
        levels[j] = {keys[lbl]: values[point[lbl]].residue for lbl in tab.labels}
        free[j] = {keys[lbl]: tab.split_parts[lbl][1] for lbl in tab.labels}
        if j > start:
            fibers[j] = {keys[lbl]: above[tab.parents[lbl]] for lbl in tab.labels}
        above = keys
    sys = CompatibleSystem(
        p, k, 1, mode, eigen, n_max, torus.p + 1, level_exp,
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
    keys: list = []             # keys[j][tau * p^(m(j) delta) + flat index]
    for j in range(n_max + 1):
        q = p ** level_exp[j]
        # product() lists the digit tuples in flat-index order, outer axis first
        digits = [",".join(map(str, d)) for d in itertools.product(range(q), repeat=delta)]
        keys.append([f"{tau}|{d}" for tau in range(torsion if j else 1) for d in digits])
        if j < start:
            continue
        size = len(digits)
        free[j] = {key: i % size for i, key in enumerate(keys[j])}
        if j > start:
            # a label's parent keeps its torsion index (0 at level 0) and
            # reduces each free digit mod p^m(j-1)
            q_down = p ** level_exp[j - 1]
            down = _axis_map(delta, q, lambda t: t % q_down, q_down)
            above = keys[j - 1]
            step = q_down**delta if j > 1 else 0
            fibers[j] = {key: above[i // size * step + down[i % size]]
                         for i, key in enumerate(keys[j])}
    # first populated level is free
    levels[start] = {key: rng.randrange(mod) for key in keys[start]}
    for j in range(start, n_max):
        by_parent: dict = {}
        for key, parent_key in fibers[j + 1].items():
            by_parent.setdefault(parent_key, []).append(key)
        table = {}
        for parent_key, members in sorted(by_parent.items()):
            target = _fiber_target(mode, eigen, mod, levels, fibers, j, parent_key)
            acc = 0
            for key in members[:-1]:
                table[key] = rng.randrange(mod)
                acc = (acc + table[key]) % mod
            table[members[-1]] = (target - acc) % mod
        levels[j + 1] = table
    return CompatibleSystem(
        p, k, delta, mode, eigen, n_max, torsion, level_exp,
        tuple(levels), tuple(fibers), tuple(free),
    )


# ---------------------------------------------------------------------------
# the exact distribution checker


def _fiber_target(mode, eigen, mod, levels, fibers, j, key):
    """What the level-(j+1) fiber over label key of level j sums to:
    alpha c_j (edge) or a_p c_j - c_(j-1) (vertex, c_(-1) = 0), mod p^k."""
    if mode == "edge":
        return eigen.alpha.residue * levels[j][key] % mod
    target = eigen.ap.residue * levels[j][key]
    if j >= 1:
        target -= levels[j - 1][fibers[j][key]]
    return target % mod


def check_distribution(sys: CompatibleSystem) -> DistributionReport:
    """Recompute both sides of every applicable projection relation."""
    mod = sys.p**sys.k
    start = sys.start_level
    checked = 0
    for j in range(start, sys.n_max):
        upper = j + 1
        sums: dict = {key: 0 for key in sys.labels(j)}
        for key, c in sys.table(upper).items():
            sums[sys.fibers[upper][key]] = (sums[sys.fibers[upper][key]] + c) % mod
        for key in sorted(sys.labels(j)):
            lhs = sums[key]
            rhs = _fiber_target(sys.mode, sys.eigen, mod, sys.levels, sys.fibers, j, key)
            checked += 1
            if lhs != rhs:
                return DistributionReport(False, checked, (upper, key, lhs, rhs))
    return DistributionReport(True, checked, None)


# ---------------------------------------------------------------------------
# theta elements


def _check_level(sys: CompatibleSystem, n: int):
    if n > sys.n_max or n < sys.start_level:
        raise ValueError(f"level {n} outside populated range")


def theta_level(sys: CompatibleSystem, n: int) -> ThetaElement:
    """Pushforward of the level-n table to the free quotient group ring."""
    _check_level(sys, n)
    layer = sys.level_exp[n]
    coeffs = [0] * (sys.p**layer) ** sys.delta
    free = sys.free[n]
    for key, c in sys.table(n).items():
        coeffs[free[key]] += c
    value = GroupRingElement(sys.p, sys.k, layer, sys.delta, tuple(coeffs))
    return ThetaElement(n, value, 0)


def theta_ordinary(sys: CompatibleSystem, n: int) -> ThetaElement:
    """alpha^(-n) times the raw theta, with exact tower compatibility checked."""
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
    """The product of the (normalized or signed) theta with its involution."""
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
