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

A system artifact is the system's header and, per level, its residues by
label position, as decimal strings; no label is named and no index list is
written.  The positions follow measures' layout rule, a function of the
header's (p, delta, torsion, level_exp): level j >= 1 is torsion blocks of
(Z/p^m(j))^delta, the label tau|d at tau * p^(m(j) delta) + the flat index
of d, its free index that position mod p^(m(j) delta), and its parent the
label tau|(d mod p^m(j-1)) one level down (0|0 at level 0).  So a reader
checks the header and each level's count and range, and nothing else.
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
    """The header, then each level's residues by label position."""
    return {
        "p": s.p, "k": s.k, "delta": s.delta, "mode": s.mode,
        "eigen": eigen_to_json(s.eigen), "n_max": s.n_max,
        "torsion": s.torsion, "level_exp": list(s.level_exp),
        "levels": [None if t is None else list(map(str, t)) for t in s.levels],
    }


def _check_count(p: int, delta: int, torsion: int, e: int, j: int, count: int) -> None:
    """Refuse a level j of count labels unless its tower has that many,
    (torsion if j else 1) p^(e delta); e delta is compared with count's bit
    length first (p >= 2), so a huge e delta computes nothing."""
    if e * delta >= count.bit_length():
        raise ValueError(f"level {j}: {count} labels cannot cover (Z/{p}^{e})^{delta}")
    want = (torsion if j else 1) * p ** (e * delta)
    if want != count:
        raise ValueError(f"level {j}: {count} labels, where the tower has {want}")


@_payload_reader
def system_from_json(obj) -> CompatibleSystem:
    """The system of an artifact, each level read back by label position.

    The header must describe a tower of the layout rule: torsion >= 1 and
    prime to p, delta >= 1, n_max at least the mode's first level, and
    level_exp the local map (max(j - 1, 0)) or the full map (j).  From the
    first level up, each level lists its tower's label count of residues in
    [0, p^k); below it, a level is null.  A payload that still carries
    label_kind, fibers or free is of the earlier layout, where a torus
    tower kept its labels in coset_labels order, and is refused: read by
    the rule, its residues would give another theta."""
    from .measures import CompatibleSystem
    stale = [key for key in ("label_kind", "fibers", "free") if key in obj]
    if stale:
        raise ValueError(f"a system payload with {', '.join(stale)} is of the earlier "
                         "layout, whose torus labels were not in walk-step order")
    n_max, p, delta = json_int(obj["n_max"]), prime_int(obj["p"]), json_int(obj["delta"])
    k, torsion = json_int(obj["k"]), json_int(obj["torsion"])
    mode, eigen = obj["mode"], eigen_from_json(obj["eigen"])
    start = 0 if mode == "vertex" else 1
    if torsion < 1 or torsion % p == 0:
        raise ValueError(f"torsion order {torsion} must be >= 1 and prime to {p}")
    if delta < 1:
        raise ValueError(f"delta {delta} must be >= 1")
    if n_max < start:
        raise ValueError(f"n_max {n_max} lies below the {mode} tower's first level")
    level_exp = tuple(json_int(e) for e in obj["level_exp"])
    if level_exp not in (tuple(max(j - 1, 0) for j in range(len(level_exp))),
                         tuple(range(len(level_exp)))) or len(level_exp) != n_max + 1:
        raise ValueError(f"level_exp {list(level_exp)} is neither the local nor the full "
                         f"level map of levels 0..{n_max}")
    if not (isinstance(obj["levels"], list) and len(obj["levels"]) == n_max + 1):
        raise ValueError(f"the levels must list levels 0..{n_max}")
    mod = p**k
    levels = []
    for j, lv in enumerate(obj["levels"]):
        if j < start:
            if lv is not None:
                raise ValueError(f"level {j} lies below the {mode} tower's first level")
            levels.append(None)
            continue
        if not isinstance(lv, list):
            raise ValueError(f"level {j}: the residues must be a list, not {lv!r}")
        _check_count(p, delta, torsion, level_exp[j], j, len(lv))
        try:
            level = tuple(map(json_int, lv))
        except ValueError as exc:
            raise ValueError(f"level {j}: the residues: {exc}") from None
        if min(level) < 0 or max(level) >= mod:
            raise ValueError(f"level {j}: a residue lies outside [0, {p}^{k})")
        levels.append(level)
    return CompatibleSystem(p, k, delta, mode, eigen, n_max, torsion, level_exp, tuple(levels))


@_payload_reader
def groupring_from_json(obj) -> GroupRingElement:
    from .groupring import GroupRingElement
    return GroupRingElement.from_json(obj)
