"""One fresh benchmark process.

Imports thetaforge from the checkout's ``src`` (set-up ends when that import
finishes), then does one of:

  setup                          nothing more; reports the import time
  ordinary-tower SEED TRACE      one run of the ordinary tower
  supersingular-split SEED TRACE one run of the supersingular split
  cli-check DIR...               untimed checks of the cli-chain artifacts
  overflow-probe SEED            the known int64 overflow at k=18, counted
  cli SPANS ARGS...              one traced ``thetaforge.cli`` call

Library runs time the pipeline from the first library call to the last,
then check every output with tracing off and the clock stopped.  The result
is one JSON object on the last line of standard output.  Expected sizes are
fixed: a mismatch exits nonzero, so a change cannot shrink the work unseen.
"""

import os
import sys
import time

import thetaforge

T_IMPORT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

from thetaforge import characters, cli, groupring, hecke, measures, serialize, torus, tree  # noqa: E402
from thetaforge.util import default_nonresidue  # noqa: E402

from spans import Tracer, Untraced  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# ordinary-tower: p=3, k=11 (below the int64 overflow bound at N=729), a_p=1
ORD = dict(p=3, k=11, ap=1, depth=7)
ORD_SIZES = {"vertices": 4373, "directed_edges": 8744,
             "labels": [4, 12, 36, 108, 324, 972, 2916],
             "layer_N": 729, "relations_checked": 1456}

# supersingular-split: p=3, k=8, depth 6, full level map, a_p=0
SS = dict(p=3, k=8, depth=6)
SS_SIZES = {"labels": [1, 12, 36, 108, 324, 972, 2916],
            "layer_N": 729, "relations_checked": 1453}

# cli-chain: p=3, k=11, depth 7 (below the int64 overflow bound at N=729)
CLI_SIZES = {"labels": [4, 12, 36, 108, 324, 972, 2916], "layer_N": 729,
             "relations_checked": 1456, "sphere": 324,
             "form_vertices": 485, "form_edges": 968}


SIZE_MISMATCH = 3      # exit code; run.py fails the whole run on it


class SizeMismatch(Exception):
    pass


def expect_sizes(got: dict, want: dict):
    for key, val in want.items():
        if got[key] != val:
            raise SizeMismatch(f"{key}: expected {val}, got {got[key]}")


class Checks:
    """Correctness checks of one process: name -> passed."""

    def __init__(self):
        self.results = {}

    def check(self, name: str, fn):
        """fn() must return True; a raise counts as a failed check."""
        try:
            ok = fn() is True
        except Exception as exc:  # a failing library call is a failed check
            print(f"check {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        self.results[name] = ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# ordinary-tower


def ordinary_tower(seed: int, t) -> dict:
    p, k, ap, depth = ORD["p"], ORD["k"], ORD["ap"], ORD["depth"]
    c = t.call
    start = time.perf_counter()
    eig = hecke.EigenData.ordinary(p, k, ap)
    tor = torus.QuadraticTorus(p, "inert", default_nonresidue(p))
    f0 = c("hecke.local_eigen_extend", hecke.local_eigen_extend, p, k, ap, depth, seed)
    tf = c("hecke.hecke_T", hecke.hecke_T, f0)
    phi = c("hecke.stabilize", hecke.stabilize, f0, eig)
    uphi = c("hecke.hecke_U", hecke.hecke_U, phi)
    nu = c("hecke.nu_invariant", hecke.nu_invariant, f0)
    system = c("measures.from_tree", measures.from_tree, phi, tor, eig, depth)
    report = c("measures.check_distribution", measures.check_distribution, system)
    c("measures.theta", measures.theta_ordinary, system, depth)
    ell = c("measures.lp", measures.lp, system, depth)
    shapes = [c("characters.interpolation_shape", characters.interpolation_shape,
                system, characters.FiniteOrderCharacter(p, m, 1, (1,)), depth)
              for m in range(3)]
    end = time.perf_counter()
    rss = peak_rss_mb()

    sizes = {"vertices": sum(1 for _ in f0.domain.vertices()),
             "directed_edges": len(phi.tables[0]),
             "labels": [len(system.table(j)) for j in range(1, depth + 1)],
             "layer_N": ell.value.group_size,
             "relations_checked": report.relations_checked}
    expect_sizes(sizes, ORD_SIZES)

    mod = p**k
    alpha = eig.alpha.residue
    f, g, ph, u = f0.tables[0], tf.tables[0], phi.tables[0], uphi.tables[0]
    chk = Checks()
    chk.check("distribution", lambda: report.ok)
    for m, rep in enumerate(shapes):
        chk.check(f"interpolation m={m}", lambda rep=rep: rep.ok)
    chk.check("mu(L) = 2 nu", lambda: groupring.mu_invariant(ell.value) == 2 * nu)
    chk.check("T f = a_p f", lambda: all(
        (g[v].residue - ap * f[v].residue) % mod == 0 for v in g))
    chk.check("U phi = alpha phi", lambda: all(
        (u[e].residue - alpha * ph[e].residue) % mod == 0 for e in u))
    return {"start": start, "end": end, "peak_rss_mb": rss, "checks": chk,
            "sizes": sizes, "tor": tor}


def ordinary_extras(t, out: dict):
    """Functions reached only inside other calls, called once more alone."""
    p, depth = ORD["p"], ORD["depth"]
    b = t.call("tree.ball", tree.ball, tree.origin(p), depth)
    _, edges = torus.base_sequence(out["tor"], depth)
    labels = 0
    for j in range(1, depth + 1):
        tab = t.call("torus.orbit_table", torus.orbit_table, out["tor"], j, "edge",
                     base=edges[j - 1])
        labels += len(tab.labels)
    n_edges = sum(1 for _ in b.directed_edges())
    expect_sizes({"vertices": sum(1 for _ in b.vertices()), "directed_edges": n_edges,
                  "labels": labels},
                 {"vertices": ORD_SIZES["vertices"],
                  "directed_edges": ORD_SIZES["directed_edges"],
                  "labels": sum(ORD_SIZES["labels"])})
    return {"tree.vertices": out["sizes"]["vertices"],
            "tree.directed_edges": out["sizes"]["directed_edges"],
            "torus.labels": labels,
            "measures.relations_checked": out["sizes"]["relations_checked"]}


# ---------------------------------------------------------------------------
# supersingular-split


def _eps(layer: int) -> int:
    return 1 if layer % 2 == 0 else -1


def _annihilation(system) -> list:
    """Omega^eps * theta == 0 at levels 2..depth, as the split script checks it."""
    p, k = system.p, system.k
    out = []
    for n in range(2, system.n_max + 1):
        layer = system.level_exp[n]
        raw = measures.theta_level(system, n).value
        ann = groupring.reduce_poly(groupring.omega_pm_poly(p, layer, _eps(layer)), p, k, layer)
        out.append((ann * raw).is_zero())
    return out


def _compat(hi, lo) -> tuple:
    return tuple(
        measures.pm_project_class(h, l.layer).same_class(l.cls)
        for h, l in ((hi.plus, lo.plus), (hi.minus, lo.minus))
    )


def _divides(system, cls) -> bool:
    """Omega~^{-eps} * rep equals the signed level theta, by multiplication only."""
    p, k, layer = system.p, system.k, cls.layer
    half = layer // 2 if cls.eps > 0 else (layer + 1) // 2
    sign = -1 if half % 2 else 1
    divisor = groupring.reduce_poly(groupring.omega_tilde_poly(p, layer, -cls.eps), p, k, layer)
    return divisor * cls.cls.rep == measures.theta_level(system, cls.level).value * sign


def supersingular_split(seed: int, t) -> dict:
    p, k, depth = SS["p"], SS["k"], SS["depth"]
    c = t.call
    start = time.perf_counter()
    eig = hecke.EigenData.supersingular(p, k)
    system = c("measures.synth_system", measures.synth_system, p, k, "vertex", eig,
               depth, level_map="full", seed=seed)
    report = c("measures.check_distribution", measures.check_distribution, system)
    annihilated = c("groupring.omega_annihilation", _annihilation, system)
    hi = c("measures.pm_extract", measures.pm_extract, system, depth)
    lo = c("measures.pm_extract", measures.pm_extract, system, depth - 2)
    compat = c("measures.pm_compat", _compat, hi, lo)
    for cls in (hi.plus, hi.minus):
        groupring.mu_invariant(cls.cls.rep * groupring.star(cls.cls.rep))
    end = time.perf_counter()
    rss = peak_rss_mb()

    sizes = {"labels": [len(system.table(j)) for j in range(depth + 1)],
             "layer_N": hi.plus.cls.rep.group_size,
             "relations_checked": report.relations_checked}
    expect_sizes(sizes, SS_SIZES)

    chk = Checks()
    chk.check("distribution", lambda: report.ok)
    for n, ok in zip(range(2, depth + 1), annihilated):
        chk.check(f"annihilation level {n}", lambda ok=ok: ok)
    for pair in (hi, lo):
        for cls in (pair.plus, pair.minus):
            chk.check(f"division level {cls.level}", lambda cls=cls: _divides(system, cls))
    chk.check("plus compatibility", lambda: compat[0])
    chk.check("minus compatibility", lambda: compat[1])
    return {"start": start, "end": end, "peak_rss_mb": rss, "checks": chk,
            "sizes": sizes, "system": system}


def supersingular_extras(t, out: dict):
    system = out["system"]
    p, depth = system.p, SS["depth"]
    layer = system.level_exp[depth]
    raw = measures.theta_level(system, depth).value
    t.call("groupring.divide_omega_tilde", groupring.divide_omega_tilde, raw, _eps(layer))
    for n in range(2, depth + 1):
        lay = system.level_exp[n]
        t.call("padic.omega_poly", groupring.omega_pm_poly, p, lay, _eps(lay))
    return {"groupring.layer_N": out["sizes"]["layer_N"]}


LIBRARY = {
    "ordinary-tower": (ordinary_tower, ordinary_extras),
    "supersingular-split": (supersingular_split, supersingular_extras),
}


def run_library(name: str, seed: int, traced: bool) -> dict:
    work, extras = LIBRARY[name]
    t = Tracer(f"{name}-{seed}-{os.getpid()}") if traced else Untraced()
    if traced:
        # public functions reached only from inside other calls
        t.wrap(groupring.GroupRingElement, "__mul__", "groupring.mul")
        t.wrap(groupring.GroupRingElement, "__rmul__", "groupring.mul")
        t.wrap(characters, "specialize", "characters.specialize")
    out = work(seed, t)
    result = {"t_import": T_IMPORT, "start": out["start"], "end": out["end"],
              "peak_rss_mb": out["peak_rss_mb"], "sizes": out["sizes"],
              "checks": out["checks"].results}
    if traced:
        result["counts"] = extras(t, out)
        result["spans"] = t.spans()
    return result


# ---------------------------------------------------------------------------
# cli-chain


def _interpolation(system, ell, depth: int) -> dict:
    """m -> whether ell specializes at the conductor-p^m character to the
    product of the period sums of system at rho and rho^-1."""
    out = {}
    for m in range(3):
        rho = characters.FiniteOrderCharacter(system.p, m, 1, (1,))
        rhs = (characters.period_sum(system, rho, depth)
               * characters.period_sum(system, rho.inverse(), depth))
        out[m] = characters.specialize(ell, rho) == rhs
    return out


def _artifact(directory: str, kind: str) -> list:
    return sorted(f for f in os.listdir(directory) if f.startswith(kind + "-"))


def check_cli(dirs: list) -> dict:
    """Checks on the artifacts each chain left in its directory."""
    chk = Checks()
    first = None
    for i, d in enumerate(dirs):
        names = sorted(os.listdir(d))
        if first is None:
            first = names
        else:
            chk.check(f"chain {i}: artifact names", lambda names=names: names == first)

        def load(kind, d=d):
            (name,) = _artifact(d, kind)
            return serialize.read_artifact(os.path.join(d, name), kind)

        system = serialize.system_from_json(load("system"))
        lp_art = load("lp")
        ell = serialize.groupring_from_json(lp_art["value"])
        depth = lp_art["level"]
        forms = [serialize.read_artifact(os.path.join(d, f), "form") for f in _artifact(d, "form")]
        sizes = {"labels": [len(system.table(j)) for j in range(1, system.n_max + 1)],
                 "layer_N": ell.group_size,
                 "relations_checked": load("check-dist")["relations_checked"],
                 "sphere": load("sphere")["count"],
                 "form_vertices": sum(len(f["entries"]) for f in forms if f["kind"] == "vertex"),
                 "form_edges": sum(len(f["entries"]) for f in forms if f["kind"] == "edge")}
        expect_sizes(sizes, CLI_SIZES)
        identities = _interpolation(system, ell, depth)
        for m, ok in identities.items():
            chk.check(f"chain {i}: lp interpolation m={m}", lambda ok=ok: ok)
        chk.check(f"chain {i}: mu artifact",
                  lambda: load("mu")["mu"] == groupring.mu_invariant(ell))
    return {"checks": chk.results, "sizes": sizes}


def overflow_probe(seed: int) -> dict:
    """The L-element of the cli-chain tower at k=18 instead of 11.

    p^18 < 2^31, so groupring._convolve takes its int64 path, and products at
    N=729 overflow it: the interpolation identity fails.  The failures are
    counted as a metric, not as checks of the benchmark's own workloads.
    """
    p, k, depth = 3, 18, 7
    system = measures.synth_system(p, k, "edge", hecke.EigenData.ordinary(p, k, 1), depth,
                                   seed=seed)
    ell = measures.lp(system, depth).value
    return {"failed": sum(not ok for ok in _interpolation(system, ell, depth).values())}


def traced_cli(span_path: str, argv: list) -> int:
    t = Tracer(f"cli-{os.getpid()}")
    for name in dir(serialize):
        if name == "write_artifact" or name.endswith("_to_json"):
            t.wrap(serialize, name, "serialize.write")
        elif name == "read_artifact" or name.endswith("_from_json"):
            t.wrap(serialize, name, "serialize.read")
    t.wrap(groupring, "lambda_invariant", "groupring.lambda_invariant")
    t.wrap(groupring.GroupRingElement, "__mul__", "groupring.mul")
    t.wrap(groupring.GroupRingElement, "__rmul__", "groupring.mul")
    code = t.call("cli.main", cli.main, argv)
    with open(span_path, "w") as fh:
        json.dump(t.spans(), fh)
    return code


def main(argv: list) -> int:
    if not os.path.samefile(os.path.dirname(os.path.dirname(thetaforge.__file__)), SRC):
        raise SystemExit(f"thetaforge imported from {thetaforge.__file__}, not from {SRC}")
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    try:
        if mode == "setup":
            result = {"t_import": T_IMPORT}
        elif mode == "cli-check":
            result = check_cli(argv[1:])
        elif mode == "overflow-probe":
            result = overflow_probe(int(argv[1]))
        else:
            result = run_library(mode, int(argv[1]), argv[2] == "1")
    except SizeMismatch as exc:
        print(f"{mode}: {exc}")
        return SIZE_MISMATCH
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
