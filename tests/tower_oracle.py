"""Dict-keyed towers and the label-order tower, kept as test oracles.

These are the system, `from_tree`, `synth_system`, `check_distribution` and
`theta_level` that `thetaforge.measures` used before it stored each level as
tuples by label position: every level is three dicts keyed by the label
names "x:y" (read off the tree) or "tau|d" (synthetic), the distribution
check walks the labels in sorted name order, and theta adds one
coefficient per label through the free-index dict.  `reference_decomposition`
is the dict-filling walk `torus.coset_decomposition` ran then, and
`_parent_labels` the label-keyed parent map `torus` kept then;
`reference_stepped` renames a tree tower's labels "x:y" to "i|f", its
torsion index and free digit, in walk-step order, the layout measures now
uses; `reference_system_to_json` writes the positional system artifact from
the dicts in key order.

`label_order_from_tree` is `from_tree` as it ran before the layout rule:
each level by position in `coset_labels` order, with a stored tuple of
parent positions and one of free digits.  `to_ball` is the inverse of the
rule's placement: it carries a tower of the rule's layout to the vertex form
on the ball whose `from_tree` tower it is.

They serve only to cross-check the positional tower.
"""

import itertools
import random
from dataclasses import dataclass

from thetaforge.errors import (
    DistributionViolation,
    InvariantViolation,
    PrecisionExhausted,
    TransitivityViolation,
)
from thetaforge.groupring import GroupRingElement, _axis_map
from thetaforge.hecke import VertexForm
from thetaforge.measures import DistributionReport, ThetaElement, _check_level, _check_mode
from thetaforge.padic import EigenData
from thetaforge.serialize import eigen_to_json
from thetaforge.torus import (
    QuadraticTorus,
    TorusElement,
    _canonical_pair,
    _crt_exponent,
    _element_order,
    _label_mul,
    _label_pow,
    _parent_positions,
    coset_decomposition,
    coset_labels,
    orbit_ids,
)
from thetaforge.tree import ball, origin
from torus_oracle import label_position
from tree_oracle import reference_ball


def _parent_labels(p: int, j: int, labels) -> dict:
    """label -> its projection to level j - 1 (none at level 0): the
    canonical pair of the label mod p^(j-1), which is (1 : 0) at level 1 and
    the pair of residues itself for (x : 1) and (1 : y) above it."""
    if j <= 1:
        return {lbl: (1, 0) for lbl in labels} if j else {}
    m = p ** (j - 1)
    return {(x, y): (x % m, y % m) for x, y in labels}


@dataclass(frozen=True)
class DictSystem:
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


def reference_from_tree(form, torus: QuadraticTorus, eigen: EigenData, n_max: int,
                        shift: TorusElement | None = None) -> DictSystem:
    """Read a compatible system off the torus orbits: c_j(h) = form(h * w_j).

    The form must be a local eigen-extension (vertex mode) or a stabilized
    eigen edge form (edge mode) defined on a ball of radius >= n_max around
    the origin.  Each label's value is read at the ball id of its image,
    which orbit_ids gives in closed form: no tree object is built or looked
    up, so the ball's object views stay unbuilt.  With a shift s the base
    points are s * w_j; the torus is commutative, so label h reads the
    standard orbit at the label h * s.
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
    values = form.values
    # the parent ids by the eager walk, not by the ball under test
    ball_parents = reference_ball(b.center, b.radius).parents if mode == "edge" else None
    start = 0 if mode == "vertex" else 1
    levels: list = [None] * (n_max + 1)
    fibers: list = [None] * (n_max + 1)
    free: list = [None] * (n_max + 1)
    level_exp = tuple(max(j - 1, 0) for j in range(n_max + 1))
    below = above = None        # vertex ids and keys of the labels one level down
    for j in range(n_max + 1):
        labels = coset_labels(torus, j)
        ids = dict(zip(labels, orbit_ids(torus, j)))       # depth j <= radius
        if len(set(ids.values())) != len(labels):
            raise TransitivityViolation(f"two level-{j} cosets agree on the base point")
        parents = _parent_labels(torus.p, j, labels)
        if mode == "edge":
            # the image of e_j under h is the ball edge into h v_j, so its
            # source must be the parent label's image of v_(j-1)
            for lbl in labels if j else ():
                if ball_parents[ids[lbl]] != below[parents[lbl]]:
                    raise InvariantViolation(
                        f"the image of the level-{j} base edge under {lbl} is not a ball edge")
            below = ids
        if j < start:
            continue
        if shift is None:
            at = labels
        else:
            s_lbl = _canonical_pair(torus.p, j, shift.x, shift.y)
            at = [_label_mul(torus, j, lbl, s_lbl) for lbl in labels]
        # the edge into vertex c from its parent has edge id 2c - 2
        if mode == "vertex":
            level = [values[ids[lbl]] for lbl in at]
        else:
            level = [values[2 * ids[lbl] - 2] for lbl in at]
        if None in level:
            raise KeyError(f"the form has no value at an image of the level-{j} base point")
        split_parts = reference_decomposition(torus, j)
        keys = [f"{x}:{y}" for x, y in labels]
        levels[j] = dict(zip(keys, level))
        free[j] = dict(zip(keys, [split_parts[lbl][1] for lbl in labels]))
        if j > start:
            fibers[j] = dict(zip(keys, [above[parents[lbl]] for lbl in labels]))
        above = dict(zip(labels, keys))
    sys = DictSystem(
        p, k, 1, mode, eigen, n_max, torus.p + 1, level_exp,
        tuple(levels), tuple(fibers), tuple(free),
    )
    report = reference_check_distribution(sys)
    if not report.ok:
        raise DistributionViolation(f"distribution relations fail: {report.to_json()}")
    return sys


def reference_synth_system(p: int, k: int, mode: str, eigen: EigenData, n_max: int,
                           delta: int = 1, torsion: int | None = None,
                           level_map: str = "local", seed: int = 0) -> DictSystem:
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
    return DictSystem(
        p, k, delta, mode, eigen, n_max, torsion, level_exp,
        tuple(levels), tuple(fibers), tuple(free),
    )


def _fiber_target(mode, eigen, mod, levels, fibers, j, key):
    """What the level-(j+1) fiber over label key of level j sums to:
    alpha c_j (edge) or a_p c_j - c_(j-1) (vertex, c_(-1) = 0), mod p^k."""
    if mode == "edge":
        return eigen.alpha.residue * levels[j][key] % mod
    target = eigen.ap.residue * levels[j][key]
    if j >= 1:
        target -= levels[j - 1][fibers[j][key]]
    return target % mod


def reference_check_distribution(sys: DictSystem) -> DistributionReport:
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


def reference_theta_level(sys: DictSystem, n: int) -> ThetaElement:
    """Pushforward of the level-n table to the free quotient group ring."""
    _check_level(sys, n)
    layer = sys.level_exp[n]
    coeffs = [0] * (sys.p**layer) ** sys.delta
    free = sys.free[n]
    for key, c in sys.table(n).items():
        coeffs[free[key]] += c
    value = GroupRingElement(sys.p, sys.k, layer, sys.delta, tuple(coeffs))
    return ThetaElement(n, value, 0)


def reference_decomposition(torus: QuadraticTorus, j: int) -> dict:
    """The level-j coset group split as torsion x cyclic p-part: the dict
    sending each canonical label tgen^i * fgen^f to (i, f), its torsion index
    and free digit, 0 <= i < p + 1 and 0 <= f < p^(j-1); level 0 is (1 : 0).

    tgen is the CRT torsion projection of the first label (in coset_labels
    order) whose projection has order p + 1; fgen is (1 : p), the class of
    1 + p sqrt(d), which lies in the free part already.  One walk over the
    group fills the dict, one label multiplication per label; the step by
    fgen is written out inline.
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
    mod, dp = p**j, torus.d * p
    parts, row = {}, ident
    for i in range(torsion_order):
        x, y = row
        for f in range(free_order):
            parts[x, y] = (i, f)
            # times fgen = (1 : p), renormalized as _canonical_pair does
            x, y = (x + dp * y) % mod, (p * x + y) % mod
            if y % p:
                x, y = x * pow(y, -1, mod) % mod, 1
            else:
                x, y = 1, y * pow(x, -1, mod) % mod
        row = _label_mul(torus, j, row, tgen)
    # every step is a canonical label and the walk takes as many steps as
    # there are labels, so it covers them exactly once iff it never repeats;
    # a generator of short order repeats one
    if len(parts) != len(labels):
        raise InvariantViolation(
            f"torsion x free walk does not cover the level-{j} cosets exactly once"
        )
    return parts


def reference_stepped(ref: DictSystem, torus: QuadraticTorus) -> DictSystem:
    """A dict tower read off the tree, each label "x:y" renamed "i|f" by
    reference_decomposition and the keys in walk-step order (i, f)."""
    names = []
    for j in range(ref.n_max + 1):
        parts = sorted(reference_decomposition(torus, j).items(), key=lambda item: item[1])
        names.append({f"{x}:{y}": f"{i}|{f}" for (x, y), (i, f) in parts})
    levels, fibers, free = [], [], []
    for j, table in enumerate(ref.levels):
        if table is None:
            levels.append(None)
            fibers.append(None)
            free.append(None)
            continue
        renamed = names[j].items()
        levels.append({new: table[old] for old, new in renamed})
        free.append({new: ref.free[j][old] for old, new in renamed})
        fibers.append(ref.fibers[j] and {new: names[j - 1][ref.fibers[j][old]]
                                         for old, new in renamed})
    return DictSystem(ref.p, ref.k, ref.delta, ref.mode, ref.eigen, ref.n_max, ref.torsion,
                      ref.level_exp, tuple(levels), tuple(fibers), tuple(free))


def reference_system_to_json(s: DictSystem):
    """The positional artifact of a dict-keyed system: the header and each
    level's residues in the key order of its free dict (position order in
    reference_synth_system and reference_stepped)."""
    return {
        "p": s.p, "k": s.k, "delta": s.delta, "mode": s.mode,
        "eigen": eigen_to_json(s.eigen), "n_max": s.n_max,
        "torsion": s.torsion, "level_exp": list(s.level_exp),
        "levels": [None if t is None else [str(t[key]) for key in free]
                   for t, free in zip(s.levels, s.free)],
    }


@dataclass(frozen=True)
class LabelOrderTower:
    levels: tuple               # levels[j]: residues in coset_labels order (None below start)
    fibers: tuple               # fibers[j]: parent positions at level j - 1 (None at start)
    free: tuple                 # free[j]: the free digit of each label


def label_order_from_tree(form, torus: QuadraticTorus, n_max: int,
                          shift: TorusElement | None = None) -> LabelOrderTower:
    """The tower of from_tree with its labels in coset_labels order: the
    label at position t reads the form at the ball id orbit_ids gives it
    (or, shifted, the id of its product with the shift), its parent is
    _parent_positions' entry and its free digit its walk step mod p^(j-1).
    It runs none of from_tree's checks."""
    p, mode = torus.p, "vertex" if isinstance(form, VertexForm) else "edge"
    start = 0 if mode == "vertex" else 1
    levels, fibers, free = ([None] * (n_max + 1) for _ in range(3))
    for j in range(start, n_max + 1):
        ids = orbit_ids(torus, j)
        if shift is not None and j:
            s_lbl = _canonical_pair(p, j, shift.x, shift.y)
            ids = [ids[label_position(p, j, *_label_mul(torus, j, lbl, s_lbl))]
                   for lbl in coset_labels(torus, j)]
        levels[j] = tuple(form.values[c if mode == "vertex" else 2 * c - 2] for c in ids)
        free[j] = tuple(s % p ** max(j - 1, 0) for s in coset_decomposition(torus, j))
        if j > start:
            fibers[j] = tuple(_parent_positions(p, j))
    return LabelOrderTower(tuple(levels), tuple(fibers), tuple(free))


def to_ball(levels, torus: QuadraticTorus, k: int) -> VertexForm:
    """The vertex form on the ball of radius len(levels) - 1 around the
    origin that holds, at the ball id of the image of v_j under each
    level-j label, the tower's entry at the label's walk step."""
    p, n = torus.p, len(levels) - 1
    b = ball(origin(p), n)
    values = [None] * b.size
    for j, table in enumerate(levels):
        for step, c in zip(coset_decomposition(torus, j), orbit_ids(torus, j)):
            values[c] = table[step]
    return VertexForm(p, k, b, tuple(values))
