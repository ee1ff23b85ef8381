"""Command-line front end: reproducible runs wired through JSON artifacts.

Every subcommand prints a short human-readable summary, writes its result as
a content-hash-named JSON artifact under the output directory, and exits
nonzero with a machine-readable error object when a module raises.

Each subcommand takes --config FILE, --out and only the parameter flags it
reads: the tree commands --p; torus orbit --p, --torus-kind and --d, and
base-seq those and --n-max; forms eigen-extend --p, --k and --seed; synth
--p, --k, --delta, --n-max and --seed.  The other commands read p, k and
delta from their input artifact.  A value comes from its flag, else the
config file (keys p k delta n_max kind d seed out), else the default.

Each handler imports the modules it runs, so a call loads only those; it
calls serialize and groupring functions through their modules, so a patched
module attribute is the one called.  argparse is imported by build_parser,
so a process that imports this module without parsing flags never loads it.
"""

from __future__ import annotations

import json
import sys

from . import serialize
from .errors import ConductorTooLarge, ThetaForgeError
from .util import default_nonresidue, is_prime, json_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

# parameter name (also its config-file key): flag, type, default, choices
PARAMS = {
    "p": ("--p", int, 3, None),
    "k": ("--k", int, 6, None),
    "delta": ("--delta", int, 1, None),
    "n_max": ("--n-max", int, 3, None),
    "kind": ("--torus-kind", str, "inert", ("inert", "split")),
    "d": ("--d", int, None, None),
    "seed": ("--seed", int, 0, None),
}


def load_config(path: str | None) -> dict:
    """Simple key = value text format; '#' starts a comment."""
    if path is None:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _fill(args) -> None:
    """Set --out and each parameter the command takes from its flag, else the
    config file, else the default; then check the rules on what was set."""
    raw = load_config(args.config)
    if args.out is None:
        args.out = raw.get("out", "artifacts")
    for key in args.params:
        if getattr(args, key) is None:
            _, typ, default, _ = PARAMS[key]
            value = raw.get(key, default)
            setattr(args, key, None if value is None else typ(value))
    taken, p = set(args.params), getattr(args, "p", None)
    if "p" in taken and not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if "delta" in taken and args.delta < 1:
        raise ValueError("delta must be >= 1")
    if "n_max" in taken and args.n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if {"k", "n_max"} <= taken and args.k < args.n_max + 2:
        raise ValueError("precision must satisfy k >= n_max + 2")
    # only the torus commands take d; an inert torus at p = 2 is refused there
    if "d" in taken and args.d is None and args.kind == "inert" and p % 2 == 1:
        args.d = default_nonresidue(p)


def _parse_vertex(p: int, text: str):
    from .tree import Vertex
    a, b, u = (int(x) for x in text.split(","))
    return Vertex(p, a, b, u)


def _emit(args, kind: str, payload, summary: str) -> int:
    path = serialize.write_artifact(args.out, kind, payload)
    print(summary)
    print(f"artifact: {path}")
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_tree(args) -> int:
    from .tree import distance, geodesic_path, neighbors, origin, sphere, to_dot
    p = args.p
    if args.tree_cmd == "neighbors":
        v = _parse_vertex(p, args.vertex)
        nb = neighbors(v)
        payload = {"p": p, "vertex": v.to_json(), "neighbors": [w.to_json() for w in nb]}
        return _emit(args, "neighbors", payload, f"{len(nb)} neighbors of ({v.a},{v.b},{v.u})")
    if args.tree_cmd == "distance":
        v = _parse_vertex(p, args.v)
        w = _parse_vertex(p, args.w)
        d = distance(v, w)
        path = [x.to_json() for x in geodesic_path(v, w)]
        payload = {"p": p, "distance": d, "path": path}
        return _emit(args, "distance", payload, f"distance = {d}")
    if args.tree_cmd == "sphere":
        v = _parse_vertex(p, args.vertex) if args.vertex else origin(p)
        sph = sphere(v, args.r)
        payload = {"p": p, "r": args.r, "count": len(sph),
                   "vertices": [w.to_json() for w in sph]}
        return _emit(args, "sphere", payload, f"{len(sph)} vertices at distance {args.r}")
    if args.tree_cmd == "dot":
        v = _parse_vertex(p, args.vertex) if args.vertex else origin(p)
        text = to_dot(v, args.r)
        print(text, end="")
        return _emit(args, "dot", {"p": p, "r": args.r, "dot": text}, "DOT graph emitted")
    raise ValueError(args.tree_cmd)


def cmd_torus(args) -> int:
    from .torus import QuadraticTorus, base_sequence, orbit_table
    torus = QuadraticTorus(args.p, args.kind, args.d)
    if args.torus_cmd == "orbit":
        tab = orbit_table(torus, args.level, args.mode)
        payload = serialize.orbit_table_to_json(tab)
        return _emit(args, "orbit", payload,
                     f"level {args.level}: {len(tab.labels)} cosets, no collisions")
    if args.torus_cmd == "base-seq":
        verts, edges = base_sequence(torus, args.n_max)
        payload = {
            "p": args.p, "kind": args.kind, "d": torus.d,
            "vertices": [v.to_json() for v in verts],
            "edges": [e.to_json() for e in edges],
        }
        return _emit(args, "base-seq", payload, f"base sequence of depth {args.n_max}")
    raise ValueError(args.torus_cmd)


def cmd_forms(args) -> int:
    from .hecke import local_eigen_extend, nu_invariant, stabilize
    from .padic import EigenData
    if args.forms_cmd == "eigen-extend":
        f = local_eigen_extend(args.p, args.k, args.ap, args.radius, args.seed)
        payload = serialize.form_to_json(f)
        return _emit(args, "form", payload,
                     f"eigen extension on the radius-{args.radius} ball, a_p = {args.ap}")
    if args.forms_cmd == "stabilize":
        f = serialize.form_from_json(serialize.read_artifact(args.form, "form"))
        eig = EigenData.ordinary(f.p, f.k, args.ap)
        phi = stabilize(f, eig)
        payload = serialize.form_to_json(phi)
        return _emit(args, "form", payload,
                     f"stabilized edge form, alpha = {eig.alpha.residue}")
    if args.forms_cmd == "nu":
        f = serialize.form_from_json(serialize.read_artifact(args.form, "form"))
        nu = nu_invariant(f)
        return _emit(args, "nu", {"nu": nu}, f"nu = {nu}")
    raise ValueError(args.forms_cmd)


def _eigen_from_args(args):
    from .padic import EigenData, PrecisionInt
    if args.mode == "edge":
        if args.ap is not None:
            return EigenData.ordinary(args.p, args.k, args.ap)
        if args.alpha is None:
            raise ValueError("edge systems need --ap or --alpha")
        return EigenData(ap=None, alpha=PrecisionInt(args.p, args.k, args.alpha))
    if args.ap is None:
        raise ValueError("vertex systems need --ap")
    return EigenData(ap=PrecisionInt(args.p, args.k, args.ap), alpha=None)


def cmd_synth(args) -> int:
    from .measures import synth_system
    eig = _eigen_from_args(args)
    s = synth_system(args.p, args.k, args.mode, eig, args.n_max, delta=args.delta,
                     torsion=args.torsion, level_map=args.level_map, seed=args.seed)
    payload = serialize.system_to_json(s)
    return _emit(args, "system", payload,
                 f"synthetic {args.mode} tower to depth {args.n_max}")


def cmd_check_dist(args) -> int:
    from .measures import check_distribution
    s = serialize.system_from_json(serialize.read_artifact(args.system, "system"))
    report = check_distribution(s)
    if not report.ok:
        print(json.dumps({"error": {"type": "DistributionViolation",
                                    "detail": report.to_json()}}))
        return 1
    return _emit(args, "check-dist", report.to_json(),
                 f"all {report.relations_checked} relations hold exactly")


def cmd_theta(args) -> int:
    from . import groupring
    from .measures import theta_level, theta_ordinary
    s = serialize.system_from_json(serialize.read_artifact(args.system, "system"))
    if args.ordinary:
        th = theta_ordinary(s, args.level)
    else:
        th = theta_level(s, args.level)
    payload = {"level": th.level, "normalization": th.normalization,
               "value": th.value.to_json()}
    if th.value.delta == 1:
        payload["poly"] = [str(c) for c in groupring.poly_view(th.value)]
    return _emit(args, "theta", payload,
                 f"theta at level {args.level}, layer {th.value.n}")


def cmd_lp(args) -> int:
    from . import groupring
    from .measures import lp
    s = serialize.system_from_json(serialize.read_artifact(args.system, "system"))
    l = lp(s, args.level, args.kind)
    payload = {"kind": l.kind, "level": l.level, "ideal": l.ideal_tag,
               "value": l.value.to_json(), "factor": l.factor_value.to_json()}
    mu = groupring.mu_invariant(l.value)
    return _emit(args, "lp", payload,
                 f"{l.kind} L-element at level {l.level}, mu = {mu}")


def _read_element(path: str):
    """The group-ring element of an artifact: its payload's "value" (a theta
    or L-element artifact) or the payload itself."""
    obj = serialize.read_artifact(path)
    if isinstance(obj, dict) and "value" in obj:
        obj = obj["value"]
    return serialize.groupring_from_json(obj)


def cmd_mu(args) -> int:
    from . import groupring
    x = _read_element(args.element)
    mu = groupring.mu_invariant(x)
    payload = {"mu": mu}
    if x.delta == 1:
        payload["lambda"] = groupring.lambda_invariant(x)
    return _emit(args, "mu", payload, f"mu = {mu}")


def cmd_specialize(args) -> int:
    from .characters import FiniteOrderCharacter, specialize
    x = _read_element(args.element)
    char = json.loads(args.character)
    m = char.get("m") if isinstance(char, dict) else None
    # the layer check comes before the character computes p^m
    if isinstance(m, (int, str)) and json_int(m) > x.n:
        raise ConductorTooLarge(f"conductor exponent {json_int(m)} exceeds layer {x.n}")
    rho = FiniteOrderCharacter.from_json(x.p, x.delta, char)
    val = specialize(x, rho)
    units = val.valuation_units()
    payload = {"character": rho.to_json(), "value": val.to_json(),
               "valuation_units": units, "ramification": val.ramification}
    return _emit(args, "specialize", payload,
                 f"specialized; valuation = {units}/{val.ramification}")


def cmd_howard_scan(args) -> int:
    from .characters import HowardFamily, howard_check
    raw = serialize.read_artifact(args.family, "family")
    if not isinstance(raw, dict):
        raise ValueError("family payload must be a JSON object")
    labels, elements = raw["labels"], raw["elements"]
    if not (isinstance(labels, list) and isinstance(elements, list)):
        raise ValueError("family labels and elements must be lists")
    if any(isinstance(l, (list, dict)) for l in labels):
        raise ValueError("family labels must be strings or numbers")
    family = HowardFamily(tuple(labels), tuple(serialize.groupring_from_json(e) for e in elements))
    if args.prime == "custom":
        if args.witness is None:
            raise ValueError("--prime custom needs a --witness coefficient list")
        prime = json.loads(args.witness)
        if not isinstance(prime, list):
            raise ValueError(f"a witness is a JSON list of coefficients, got {prime!r}")
        prime = [json_int(c) for c in prime]
    else:
        prime = args.prime
    report = howard_check(family, prime, args.k0)
    verdict = "pass" if report.passed else "fail"
    return _emit(args, "howard", report.to_json(),
                 f"{verdict}: {len(report.nontrivial_labels)} nontrivial member(s)")


# ---------------------------------------------------------------------------


def _leaf(subs, name, func, params=(), **kw):
    """A subcommand taking --config, --out and the flags of `params`."""
    sub = subs.add_parser(name, **kw)
    sub.add_argument("--config", default=None)
    sub.add_argument("--out", default=None)
    for key in params:
        flag, typ, _, choices = PARAMS[key]
        sub.add_argument(flag, dest=key, type=typ, default=None, choices=choices)
    sub.set_defaults(func=func, params=params)
    return sub


def build_parser() -> argparse.ArgumentParser:
    import argparse
    ap = argparse.ArgumentParser(prog="thetaforge")
    subs = ap.add_subparsers(dest="cmd", required=True)

    t = subs.add_parser("tree", help="tree combinatorics")
    ts = t.add_subparsers(dest="tree_cmd", required=True)
    tn = _leaf(ts, "neighbors", cmd_tree, ("p",))
    tn.add_argument("--vertex", default="0,0,0")
    td = _leaf(ts, "distance", cmd_tree, ("p",))
    td.add_argument("--v", required=True)
    td.add_argument("--w", required=True)
    tsp = _leaf(ts, "sphere", cmd_tree, ("p",))
    tsp.add_argument("--r", type=int, required=True)
    tsp.add_argument("--vertex", default=None)
    tdot = _leaf(ts, "dot", cmd_tree, ("p",))
    tdot.add_argument("--r", type=int, default=2)
    tdot.add_argument("--vertex", default=None)

    to = subs.add_parser("torus", help="torus orbits and base sequences")
    tos = to.add_subparsers(dest="torus_cmd", required=True)
    orb = _leaf(tos, "orbit", cmd_torus, ("p", "kind", "d"))
    orb.add_argument("--level", type=int, required=True)
    orb.add_argument("--mode", default="vertex", choices=("vertex", "edge"))
    _leaf(tos, "base-seq", cmd_torus, ("p", "kind", "d", "n_max"))

    fo = subs.add_parser("forms", help="forms on the ball")
    fos = fo.add_subparsers(dest="forms_cmd", required=True)
    fe = _leaf(fos, "eigen-extend", cmd_forms, ("p", "k", "seed"))
    fe.add_argument("--ap", type=int, required=True)
    fe.add_argument("--radius", type=int, required=True)
    fst = _leaf(fos, "stabilize", cmd_forms)
    fst.add_argument("--form", required=True)
    fst.add_argument("--ap", type=int, required=True)
    fn = _leaf(fos, "nu", cmd_forms)
    fn.add_argument("--form", required=True)

    sy = _leaf(subs, "synth", cmd_synth, ("p", "k", "delta", "n_max", "seed"),
               help="seeded compatible system")
    sy.add_argument("--mode", required=True, choices=("vertex", "edge"))
    sy.add_argument("--ap", type=int, default=None)
    sy.add_argument("--alpha", type=int, default=None)
    sy.add_argument("--torsion", type=int, default=None)
    sy.add_argument("--level-map", dest="level_map", default="local",
                    choices=("local", "full"))

    cd = _leaf(subs, "check-dist", cmd_check_dist, help="exact distribution checker")
    cd.add_argument("--system", required=True)

    th = _leaf(subs, "theta", cmd_theta, help="theta element of a system level")
    th.add_argument("--system", required=True)
    th.add_argument("--level", type=int, required=True)
    th.add_argument("--ordinary", action="store_true")

    lpp = _leaf(subs, "lp", cmd_lp, help="L-element theta * theta^*")
    lpp.add_argument("--system", required=True)
    lpp.add_argument("--level", type=int, required=True)
    lpp.add_argument("--kind", default="ordinary",
                     choices=("ordinary", "plus", "minus"))

    mu = _leaf(subs, "mu", cmd_mu, help="mu and lambda invariants")
    mu.add_argument("--element", required=True)

    sp = _leaf(subs, "specialize", cmd_specialize,
               help="evaluate at a finite-order character")
    sp.add_argument("--element", required=True)
    sp.add_argument("--character", required=True,
                    help='JSON, e.g. {"m":1,"exponents":[1]}')

    hs = _leaf(subs, "howard-scan", cmd_howard_scan, help="family nontriviality scan")
    hs.add_argument("--family", required=True)
    hs.add_argument("--prime", default="augmentation",
                    choices=("augmentation", "maximal", "custom"))
    hs.add_argument("--witness", default=None,
                    help="JSON coefficient list for a custom height-one witness")
    hs.add_argument("--k0", type=int, required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill(args)
        return args.func(args)
    except ThetaForgeError as exc:
        print(json.dumps({"error": exc.to_json()}))
        return 1
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "detail": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
