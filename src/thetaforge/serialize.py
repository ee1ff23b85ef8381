"""JSON wire formats and artifact files.

Every artifact is wrapped in a self-describing envelope with a schema
version; readers refuse unknown versions.  Artifact files are written under
an output directory, each named by its kind and the first 16 hex digits of
SHA-256 of its bytes, so identical runs produce byte-identical files.

A form is one flat tuple of residues by the ids of its ball's points.  Its
artifact lists one entry per point with a value, by the point itself rather
than its id, sorted by the point's exponents.  The artifact keeps the layout
of the multi-component forms it replaced, "h": 1 and a one-element "values"
list per entry, so form artifacts keep their bytes; a reader refuses any
other h, and an entry whose "values" is not a list of one value.

A system artifact is the system's header and, per level, its three tuples
by label position (residues as decimal strings); no label is named.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter

from .util import json_int, prime_int

# each payload type is imported by the reader or writer that builds it, so a
# command loads only the modules of the artifacts it reads and writes; the
# names below are for type checkers, without loading typing at start-up
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .groupring import GroupRingElement
    from .measures import CompatibleSystem
    from .padic import EigenData

SCHEMA = "thetaforge/1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def envelope(kind: str, payload) -> dict:
    return {"schema": SCHEMA, "kind": kind, "payload": payload}


def open_envelope(obj, kind: str | None = None):
    if not isinstance(obj, dict):
        raise ValueError(f"artifact must be a JSON object, got {type(obj).__name__}")
    if obj.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema version {obj.get('schema')!r}")
    if kind is not None and obj.get("kind") != kind:
        raise ValueError(f"expected artifact kind {kind!r}, got {obj.get('kind')!r}")
    return obj["payload"]


def _sha256_hex(data: bytes) -> str:
    """Hex SHA-256 by the interpreter's built-in module (_sha2 on 3.12+,
    _sha256 before), which loads no OpenSSL as hashlib does (about 3.5 MB)."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a CPython built without the module
            from hashlib import sha256
    return sha256(data).hexdigest()


def write_artifact(outdir: str, kind: str, payload) -> str:
    # binary mode: the file's bytes are exactly the bytes its name hashes
    os.makedirs(outdir, exist_ok=True)
    data = canonical_dumps(envelope(kind, payload)).encode()
    path = os.path.join(outdir, f"{kind}-{_sha256_hex(data)[:16]}.json")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _unique_keys(pairs) -> dict:
    """json object hook: a key given twice is a ValueError, not a silent
    overwrite by the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
        raise ValueError(f"JSON object repeats the key(s) {repeated}")
    return obj


def read_artifact(path: str, kind: str | None = None):
    with open(path) as fh:
        return open_envelope(json.load(fh, object_pairs_hook=_unique_keys), kind)


# ---------------------------------------------------------------------------
# per-type payloads


def _payload_reader(read):
    """Report a payload of the wrong shape (a number where an object or a
    list belongs, a list too short) as ValueError, like a bad value."""

    @functools.wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except (AttributeError, IndexError, TypeError) as exc:
            what = read.__name__.removesuffix("_from_json")
            raise ValueError(f"malformed {what} payload: {exc}") from exc

    return checked


def eigen_to_json(e: EigenData):
    return {
        "ap": e.ap.to_json() if e.ap is not None else None,
        "alpha": e.alpha.to_json() if e.alpha is not None else None,
    }


@_payload_reader
def eigen_from_json(obj) -> EigenData:
    from .padic import EigenData, PrecisionInt
    ap = None if obj["ap"] is None else PrecisionInt.from_json(obj["ap"])
    alpha = None if obj["alpha"] is None else PrecisionInt.from_json(obj["alpha"])
    return EigenData(ap=ap, alpha=alpha)


def form_to_json(f):
    """One entry per point with a value, in the order of the point's exponents."""
    from .hecke import VertexForm
    kind = "vertex" if isinstance(f, VertexForm) else "edge"

    def exps(v):
        return v.a, v.b, v.u

    order = exps if kind == "vertex" else lambda e: exps(e.source) + exps(e.target)
    pairs = sorted(((w, r) for w, r in zip(f.points(), f.values) if r is not None),
                   key=lambda pair: order(pair[0]))
    entries = [{"w": w.to_json(), "values": [str(r)]} for w, r in pairs]
    return {
        "p": f.p, "k": f.k, "h": 1, "kind": kind,
        "radius": f.domain.radius,
        "center": f.domain.center.to_json(),
        "entries": entries,
    }


@_payload_reader
def form_from_json(obj):
    from .hecke import EdgeForm, VertexForm
    from .tree import DirectedEdge, Vertex, ball
    if obj["kind"] not in ("vertex", "edge"):
        raise ValueError(f"unknown form kind {obj['kind']!r}")
    p, k, h = prime_int(obj["p"]), json_int(obj["k"]), json_int(obj["h"])
    if h != 1:
        raise ValueError(f"a form carries one table of values, not h = {h}")
    center = Vertex.from_json(p, obj["center"])
    dom = ball(center, json_int(obj["radius"]))
    residues, mod = {}, p**k
    for row in obj["entries"]:
        if obj["kind"] == "vertex":
            w = Vertex.from_json(p, row["w"])
            ends = (w,)
        else:
            w = DirectedEdge.from_json(p, row["w"])
            ends = (w.source, w.target)
        # a ball is a subtree, so an edge with both ends in it is one of its edges
        if not all(x in dom.ids for x in ends):
            raise ValueError(f"form entry {row['w']} lies outside the ball")
        if w in residues:
            raise ValueError(f"form entry {row['w']} repeats a point")
        vals = row["values"]
        if not (isinstance(vals, list) and len(vals) == 1):
            raise ValueError(f"form entry {row['w']} must carry a list of one value, "
                             f"not {vals!r}")
        if not 0 <= (r := json_int(vals[0])) < mod:
            raise ValueError(f"form entry {row['w']}: residue {vals[0]} lies outside [0, {p}^{k})")
        residues[w] = r
    cls = VertexForm if obj["kind"] == "vertex" else EdgeForm
    points = dom.vertices() if cls is VertexForm else dom.directed_edges()
    return cls(p, k, dom, tuple(map(residues.get, points)))


def orbit_table_to_json(tab):
    rows = []
    for lbl, w in tab.rows():
        tau, digit = tab.split_parts[lbl]
        rows.append({"h": [tau, digit], "w": w.to_json()})
    return {
        "p": tab.torus.p, "d": tab.torus.d, "level": tab.level,
        "mode": tab.mode, "free_exponent": tab.free_exponent, "rows": rows,
    }


def system_to_json(s: CompatibleSystem):
    """The header, then each level as three lists by label position: the
    residues, the parent's position one level down and the flat free index."""
    return {
        "p": s.p, "k": s.k, "delta": s.delta, "mode": s.mode,
        "eigen": eigen_to_json(s.eigen), "n_max": s.n_max,
        "torsion": s.torsion, "level_exp": list(s.level_exp), "label_kind": s.label_kind,
        "levels": [None if t is None else list(map(str, t)) for t in s.levels],
        "fibers": [None if t is None else list(t) for t in s.fibers],
        "free": [None if t is None else list(t) for t in s.free],
    }


def _check_count(kind: str, p: int, delta: int, torsion: int, e: int, j: int,
                 count: int) -> None:
    """Refuse a level j of count labels unless they can cover its free
    quotient (Z/p^e)^delta and a tower of this kind has that many; e delta
    is compared with count's bit length first (p >= 2), so a huge e
    computes nothing."""
    if e < 0 or e * delta >= count.bit_length():
        raise ValueError(f"level {j}: {count} labels cannot cover (Z/{p}^{e})^{delta}")
    if kind == "torus":
        want = (p + 1) * p ** (j - 1) if j else 1
    else:
        want = (torsion if j else 1) * p ** (e * delta)
    if want != count:
        raise ValueError(f"level {j}: {count} labels, where a {kind} tower has {want}")


def _positions(values, count: int, what: str, j: int) -> tuple:
    """A level-j list of one integer per label position."""
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"level {j}: the {what} must list the {count} level-{j} labels")
    try:
        return tuple(map(json_int, values))
    except ValueError as exc:
        raise ValueError(f"level {j}: the {what}: {exc}") from None


def _free_indices(values, count: int, p: int, e: int, delta: int, j: int) -> tuple:
    """The flat free index of each level-j label, refused unless the labels
    cover (Z/p^e)^delta in fibers of equal size."""
    free = _positions(values, count, "free indices", j)
    size = p ** (e * delta)
    sizes = Counter(free)
    if (len(sizes) != size or not all(0 <= i < size for i in sizes)
            or len(set(sizes.values())) > 1):
        raise ValueError(f"level {j}: the free indices do not cover (Z/{p}^{e})^{delta} "
                         "in fibers of equal size")
    return free


@_payload_reader
def system_from_json(obj) -> CompatibleSystem:
    """The system of an artifact, each level read back by label position.
    A level must have as many labels as its tower, residues in [0, p^k),
    parents inside the level below and free indices that cover
    (Z/p^e)^delta in fibers of equal size."""
    from .measures import CompatibleSystem, _check_label_kind
    kind = obj.get("label_kind")
    _check_label_kind(kind)
    n_max, p, delta = json_int(obj["n_max"]), prime_int(obj["p"]), json_int(obj["delta"])
    k, torsion = json_int(obj["k"]), json_int(obj["torsion"])
    level_exp = tuple(json_int(e) for e in obj["level_exp"])
    mode, eigen = obj["mode"], eigen_from_json(obj["eigen"])
    start = 0 if mode == "vertex" else 1
    mod = p**k
    levels, fibers, free = [], [], []
    for j in range(n_max + 1):
        lv = obj["levels"][j]
        level = up = indices = None
        if lv is not None:
            count = len(lv)
            _check_count(kind, p, delta, torsion, level_exp[j], j, count)
            level = _positions(lv, count, "residues", j)
            if min(level) < 0 or max(level) >= mod:
                raise ValueError(f"level {j}: a residue lies outside [0, {p}^{k})")
            indices = _free_indices(obj["free"][j], count, p, level_exp[j], delta, j)
            if j > start:
                # a fiber map from outside is checked here; from_tree and
                # synth_system build consistent ones
                up = _positions(obj["fibers"][j], count, "fibers", j)
                if min(up) < 0 or max(up) >= len(levels[j - 1] or ()):
                    raise ValueError(f"level {j}: a fiber points outside the "
                                     f"level-{j - 1} labels")
        levels.append(level)
        fibers.append(up)
        free.append(indices)
    return CompatibleSystem(
        p, k, delta, mode, eigen, n_max, torsion, level_exp, kind,
        tuple(levels), tuple(fibers), tuple(free),
    )


@_payload_reader
def groupring_from_json(obj) -> GroupRingElement:
    from .groupring import GroupRingElement
    return GroupRingElement.from_json(obj)
