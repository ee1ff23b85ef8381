"""Towers of coefficient tables satisfying the exact distribution relations,
their group-ring theta elements, ordinary normalization, plus/minus
extraction for zero adjacency eigenvalue, and the product L-element.

A system stores each level as one tuple of residues, by label position, in
one layout given by rule from (p, delta, torsion, level_exp).  Level j >= 1
is torsion blocks of (Z/p^m(j))^delta: the label "tau|d_1,...,d_delta" sits
at tau * p^(m(j) delta) + the flat index of its free digits d (outer axis
first), and level 0 is the one label "0|0".  A label's free index is its
position mod p^(m(j) delta); its parent one level down keeps tau (0 at level
0) and reduces each free digit mod p^m(j-1).  So each fiber lies in one
torsion block, as strided slices along every axis: _fiber_sums adds each
level onto the level below, _over repeats a level's entries at the labels
over them, and the theta pushforward adds the torsion blocks.  No index
list is stored or written; label names are built from the position only
where their text matters: labels(j), a distribution report and the
synthesizer's draw order (parents by sorted name).  The raw and the
normalized theta and the L-element are each built once per system and
level, in the system's memo.  One rule, _fiber_targets, gives what each
fiber sums to (alpha c_j on edges, a_p c_j - c_(j-1) on vertices); the
synthesizer solves it and the checker tests it.

from_tree reads a tower off a form on a ball centered at the origin, which
the inert torus fixes: the image of the base vertex v_j under a label h is a
ball vertex at depth j, whose id torus.orbit_ids gives in closed form, and
the image of the base edge e_j is the ball edge into h v_j, whose source is
the parent label's image of v_(j-1).  The coset walk writes the label h =
tgen^i fgen^f as its step s = i p^(j-1) + f, and h's value goes to position
s: that is the layout above at torsion p + 1, delta = 1 and the local level
map, since tgen is the same pair at every level, so a label and its parent
share i and reduce f.  A shift by tgen^a fgen^b is then a rotation of the
step coordinates, (i, f) -> (i + a mod p + 1, f + b mod p^(j-1)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain
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
from .groupring import GroupRingElement, QuotientClass, divide_omega_tilde, star

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


def level_labels(p: int, delta: int, torsion: int, e: int, j: int) -> list:
    """The names of the level-j labels, in position order:
    "tau|d_1,...,d_delta" for the torsion index tau < torsion (0 at level 0)
    and the free digits d_i < p^e, outer axis first."""
    # the digit strings in flat-index order, outer axis first
    digits = list(map(str, range(p**e)))
    for _ in range(delta - 1):
        digits = [f"{a},{t}" for a in digits for t in range(p**e)]
    return [f"{tau}|{d}" for tau in range(torsion if j else 1) for d in digits]


def _over(p: int, delta: int, torsion: int, level_exp: tuple, j: int, below) -> list:
    """The level-(j-1) entries below, each repeated at the positions of the
    level-j labels over it (j >= 1).  A label's parent keeps its torsion
    block, and the one label of level 0 lies under every block; it reduces
    each free digit mod p^m(j-1), so on each axis, inner first, every row
    of the level below is repeated p^(m(j) - m(j-1)) times."""
    q, q_down = p ** level_exp[j], p ** level_exp[j - 1]
    out, size = list(below) * (torsion if j == 1 else 1), 1
    for _ in range(delta):
        row = q_down * size
        out = list(chain.from_iterable(out[at:at + row] * (q // q_down)
                                       for at in range(0, len(out), row)))
        size *= q
    return out


def _fiber_sums(p: int, delta: int, level_exp: tuple, j: int, above) -> list:
    """The level-(j+1) entries above summed over the fiber of each level-j
    label: on each axis, inner first, a row's p^(m(j+1) - m(j)) chunks of
    the lower length are added entrywise (the fiber of digit f is the
    strided slice f, f + p^m(j), ...), inside each torsion block; at level 0
    the blocks are added as well."""
    q, q_down = p ** level_exp[j + 1], p ** level_exp[j]
    out, size = list(above), 1
    for _ in range(delta):
        chunk = q_down * size
        chunks = range(0, q * size, chunk)
        out = list(chain.from_iterable(
            map(sum, zip(*(out[at + c:at + c + chunk] for c in chunks)))
            for at in range(0, len(out), q * size)))
        size = chunk
    return [sum(out)] if j == 0 else out


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
    levels: tuple               # levels[j]: tuple of residues by label position (None below start)
    # the memo of theta_level, theta_ordinary and lp, (function name, *args)
    # -> result, successful results only (_memoized): out of ==, hash and
    # repr, and started empty by dataclasses.replace; the levels are
    # tuples, so a system cannot change under it
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_mode(self.mode, self.eigen)

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
        return level_labels(self.p, self.delta, self.torsion, self.level_exp[j], j)


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
    which orbit_ids gives in closed form, and stored at the label's walk
    step: no tree object is built or looked up, so the ball's object views
    stay unbuilt.  With a shift s the base points are s * w_j; the torus is
    commutative, so label h reads the standard orbit at the label h * s,
    a rotation of each torsion row and of the rows.

    Every level reads its unit inverses off one table built for the top
    level, and the checks hold no per-label object beyond the level's ids:
    transitivity marks the images in a byte per ball id, and the edge check
    compares parents by the layout rule, lazily.
    """
    from .hecke import VertexForm
    from .torus import _coset_walk, _orbit_ids, _step_of, _unit_inverses
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
    level_exp = tuple(max(j - 1, 0) for j in range(n_max + 1))
    # one table for every level: inv[w] mod p^j inverts w mod p^j
    inv = _unit_inverses(p, n_max)
    below = None                # ball ids of the level-(j-1) labels, by step
    for j in range(n_max + 1):
        # each label's image id, at the label's walk step
        steps = _coset_walk(torus, j, inv)
        turn = _step_of(torus, j, steps, shift.x, shift.y) if shift is not None and j else 0
        ids = [0] * len(steps)
        for s, c in zip(steps, _orbit_ids(torus, j, inv)):      # depth j <= radius
            ids[s] = c
        del steps
        # one byte per ball id marks the images, with no per-id object
        seen = bytearray(b.size)
        for c in ids:
            seen[c] = 1
        if seen.count(1) != len(ids):
            raise TransitivityViolation(f"two level-{j} cosets agree on the base point")
        if mode == "edge":
            # the image of e_j under h is the ball edge into h v_j, so its
            # source must be the parent label's image of v_(j-1)
            if j and any(map(ne, parent_ids(p, ids), _over(p, 1, p + 1, level_exp, j, below))):
                over = _over(p, 1, p + 1, level_exp, j, below)
                s = next(s for s, (a, u) in enumerate(zip(parent_ids(p, ids), over)) if a != u)
                raise InvariantViolation(f"the image of the level-{j} base edge under "
                                         f"{level_labels(p, 1, p + 1, level_exp[j], j)[s]} "
                                         "is not a ball edge")
            below = ids
        if j < start:
            continue
        if turn:
            q = p ** level_exp[j]
            rows, turn = divmod(turn, q)
            ids = list(chain.from_iterable(
                ids[at + turn:at + q] + ids[at:at + turn]
                for at in ((i + rows) % (p + 1) * q for i in range(p + 1))))
        # the edge into vertex c from its parent has edge id 2c - 2
        if mode == "vertex":
            levels[j] = tuple(map(values.__getitem__, ids))
        else:
            levels[j] = tuple(values[2 * c - 2] for c in ids)
        if None in levels[j]:
            raise KeyError(f"the form has no value at an image of the level-{j} base point")
    # the top level's table and ids are the largest transients: drop them
    # before the check allocates its own
    del inv, ids, below
    sys = CompatibleSystem(p, k, 1, mode, eigen, n_max, p + 1, level_exp, tuple(levels))
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
    shape = (p, delta, torsion, level_exp)
    rng = random.Random(seed)
    levels: list = [None] * (n_max + 1)
    # first populated level is free; then each fiber, its parents in sorted
    # key order and its members in key order, draws all but its last member
    count = (torsion if start else 1) * p ** (level_exp[start] * delta)
    levels[start] = tuple(rng.randrange(mod) for _ in range(count))
    for j in range(start, n_max):
        members: list = [[] for _ in levels[j]]
        for t, parent in enumerate(_over(*shape, j + 1, range(len(levels[j])))):
            members[parent].append(t)
        names = level_labels(p, delta, torsion, level_exp[j], j)
        targets = _fiber_targets(mode, eigen, mod, levels, j, shape)
        table = [0] * sum(map(len, members))
        for parent in sorted(range(len(names)), key=names.__getitem__):
            *drawn, last = members[parent]
            acc = 0
            for t in drawn:
                table[t] = rng.randrange(mod)
                acc += table[t]
            table[last] = (targets[parent] - acc) % mod
        levels[j + 1] = tuple(table)
    return CompatibleSystem(p, k, delta, mode, eigen, n_max, torsion, level_exp, tuple(levels))


# ---------------------------------------------------------------------------
# the exact distribution checker


def _fiber_targets(mode, eigen, mod, levels, j, shape) -> list:
    """What each level-(j+1) fiber sums to, by the position of the level-j
    label it lies over: alpha c_j (edge) or a_p c_j - c_(j-1) (vertex,
    c_(-1) = 0), mod p^k; shape is (p, delta, torsion, level_exp)."""
    a = (eigen.alpha if mode == "edge" else eigen.ap).residue
    if mode == "edge" or j == 0:
        return [a * c % mod for c in levels[j]]
    return [(a * c - b) % mod for c, b in zip(levels[j], _over(*shape, j, levels[j - 1]))]


def check_distribution(sys: CompatibleSystem) -> DistributionReport:
    """Recompute both sides of every applicable projection relation: each
    level's fibers are summed at once, by the layout rule.  A failure is
    reported at the least label, by name, of the lowest failing level, with
    the relations checked counted as a walk in sorted name order would."""
    mod = sys.p**sys.k
    shape = (sys.p, sys.delta, sys.torsion, sys.level_exp)
    checked = 0
    for j in range(sys.start_level, sys.n_max):
        sums = _fiber_sums(sys.p, sys.delta, sys.level_exp, j, sys.table(j + 1))
        lhs = [c % mod for c in sums]
        rhs = _fiber_targets(sys.mode, sys.eigen, mod, sys.levels, j, shape)
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
    """Pushforward of the level-n table to the free quotient group ring, the
    sum of its torsion blocks, built on the first call for each level and
    returned as the same element after."""
    _check_level(sys, n)
    layer = sys.level_exp[n]
    table, size = sys.table(n), (sys.p**layer) ** sys.delta
    # a label's free index is its position in its torsion block
    coeffs = map(sum, zip(*(table[at:at + size] for at in range(0, len(table), size))))
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
