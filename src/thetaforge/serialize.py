"""JSON wire formats and artifact files.

Every artifact is wrapped in a self-describing envelope with a schema
version; readers refuse unknown versions.  Artifact files are written under
an output directory with content-hash names, so identical runs produce
byte-identical files.

A form carries one table of values.  Its artifact keeps the layout of the
multi-component forms it replaced, "h": 1 and a one-element "values" list
per entry, so form artifacts keep their bytes; a reader refuses any other h.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import Counter

from .groupring import GroupRingElement, digits_of, flat_index
from .hecke import EdgeForm, EigenData, VertexForm
from .measures import CompatibleSystem
from .padic import PrecisionInt
from .tree import DirectedEdge, Vertex
from .util import json_int

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


def write_artifact(outdir: str, kind: str, payload) -> str:
    os.makedirs(outdir, exist_ok=True)
    text = canonical_dumps(envelope(kind, payload))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    path = os.path.join(outdir, f"{kind}-{digest}.json")
    with open(path, "w") as fh:
        fh.write(text)
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
    ap = None if obj["ap"] is None else PrecisionInt.from_json(obj["ap"])
    alpha = None if obj["alpha"] is None else PrecisionInt.from_json(obj["alpha"])
    return EigenData(ap=ap, alpha=alpha)


def form_to_json(f):
    """One entry per evaluation point carrying its value."""
    kind = "vertex" if isinstance(f, VertexForm) else "edge"
    (table,) = f.tables
    if kind == "vertex":
        keys = sorted(table, key=lambda v: (v.a, v.b, v.u))
    else:
        keys = sorted(
            table,
            key=lambda e: (e.source.a, e.source.b, e.source.u,
                           e.target.a, e.target.b, e.target.u),
        )
    entries = [{"w": w.to_json(), "values": [str(table[w].residue)]} for w in keys]
    return {
        "p": f.p, "k": f.k, "h": 1, "kind": kind,
        "radius": f.domain.radius,
        "center": f.domain.center.to_json(),
        "entries": entries,
    }


@_payload_reader
def form_from_json(obj):
    from .tree import ball

    if obj["kind"] not in ("vertex", "edge"):
        raise ValueError(f"unknown form kind {obj['kind']!r}")
    p, k, h = (json_int(obj[key]) for key in ("p", "k", "h"))
    if h != 1:
        raise ValueError(f"a form carries one table of values, not h = {h}")
    center = Vertex.from_json(p, obj["center"])
    dom = ball(center, json_int(obj["radius"]))
    table = {}
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
        if w in table:
            raise ValueError(f"form entry {row['w']} repeats a point")
        (val,) = row["values"]
        table[w] = PrecisionInt(p, k, json_int(val))
    cls = VertexForm if obj["kind"] == "vertex" else EdgeForm
    return cls(p, k, dom, (table,))


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
    levels = []
    fibers = []
    free = []
    for j in range(s.n_max + 1):
        if s.levels[j] is None:
            levels.append(None)
            fibers.append(None)
            free.append(None)
            continue
        levels.append({lbl: str(c) for lbl, c in sorted(s.levels[j].items())})
        fibers.append(dict(sorted(s.fibers[j].items())) if s.fibers[j] else None)
        q = s.p ** s.level_exp[j]
        free.append({lbl: list(digits_of(i, q, s.delta)) for lbl, i in sorted(s.free[j].items())})
    return {
        "p": s.p, "k": s.k, "delta": s.delta, "mode": s.mode,
        "eigen": eigen_to_json(s.eigen), "n_max": s.n_max,
        "torsion": s.torsion, "level_exp": list(s.level_exp),
        "levels": levels, "fibers": fibers, "free": free,
    }


def _free_indices(digits: dict, p: int, e: int, delta: int, j: int) -> dict:
    """The flat group index of each level-j label, refused unless the labels
    cover (Z/p^e)^delta in fibers of equal size.  The label count is compared
    with p^(e delta) first, so a huge e allocates nothing."""
    count = len(digits)
    # p >= 2, so p^(e delta) > count once e delta reaches count's bit length
    if e < 0 or e * delta >= count.bit_length():
        raise ValueError(f"level {j}: {count} labels cannot cover (Z/{p}^{e})^{delta}")
    try:
        free = {lbl: flat_index(tuple(d), p**e, delta) for lbl, d in digits.items()}
    except ValueError as exc:
        raise ValueError(f"free digits at level {j}: {exc}") from exc
    sizes = Counter(free.values())
    if len(sizes) != p ** (e * delta) or len(set(sizes.values())) > 1:
        raise ValueError(f"level {j}: the free digits do not cover (Z/{p}^{e})^{delta} "
                         "in fibers of equal size")
    return free


@_payload_reader
def system_from_json(obj) -> CompatibleSystem:
    n_max, p, delta = json_int(obj["n_max"]), json_int(obj["p"]), json_int(obj["delta"])
    level_exp = tuple(json_int(e) for e in obj["level_exp"])
    levels = []
    fibers = []
    free = []
    for j in range(n_max + 1):
        lv = obj["levels"][j]
        if lv is None:
            levels.append(None)
            fibers.append(None)
            free.append(None)
            continue
        levels.append({lbl: json_int(c) for lbl, c in lv.items()})
        fb = obj["fibers"][j]
        fibers.append(dict(fb) if fb else None)
        free.append(_free_indices(obj["free"][j], p, level_exp[j], delta, j))
    s = CompatibleSystem(
        p, json_int(obj["k"]), delta, obj["mode"],
        eigen_from_json(obj["eigen"]), n_max, json_int(obj["torsion"]),
        level_exp, tuple(levels), tuple(fibers), tuple(free),
    )
    # a fiber map from outside is checked here; from_tree and synth_system
    # build consistent ones
    for j in range(s.start_level + 1, n_max + 1):
        if levels[j] is None:
            continue
        fb, below = fibers[j], levels[j - 1]
        if fb is None or fb.keys() != levels[j].keys():
            raise ValueError(f"level {j}: the fibers must map exactly the level-{j} labels")
        if below is None or not below.keys() >= set(fb.values()):
            raise ValueError(f"level {j}: a fiber points outside the level-{j - 1} labels")
    return s


@_payload_reader
def groupring_from_json(obj) -> GroupRingElement:
    return GroupRingElement.from_json(obj)
