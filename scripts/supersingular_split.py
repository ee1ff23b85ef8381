"""Supersingular run: a zero-eigenvalue tower, the omega annihilation, the
plus/minus extraction with signs, tower compatibility, and mu of the signed
products.

Usage: python scripts/supersingular_split.py [--p 3] [--k 6] [--depth 5]

Exits 1 when any printed check fails: the distribution relations, an omega
annihilation or the signed tower compatibility.
"""

import argparse
import sys

from thetaforge import groupring as gr
from thetaforge.errors import NotDivisible
from thetaforge.hecke import EigenData
from thetaforge.measures import (
    check_distribution,
    pm_extract,
    pm_project_class,
    synth_system,
    theta_level,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--k", type=int, default=6)
    ap.add_argument("--depth", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    p, k = args.p, args.k
    system = synth_system(p, k, "vertex", EigenData.supersingular(p, k),
                          args.depth, level_map="full", seed=args.seed)
    failed = []
    dist_ok = check_distribution(system).ok
    print(f"p = {p}, k = {k}, depth = {args.depth}: distribution ok = {dist_ok}")
    if not dist_ok:
        failed.append("distribution")

    for n in range(2, args.depth + 1):
        layer = system.level_exp[n]
        eps = 1 if layer % 2 == 0 else -1
        raw = theta_level(system, n).value
        tag = "+" if eps > 0 else "-"
        # Omega^eps * theta = 0 exactly when Omega~^(-eps) divides theta
        try:
            gr.divide_omega_tilde(raw, eps)
            killed = True
        except NotDivisible:
            killed = False
        print(f"level {n}: omega_{layer}^{tag} * theta = 0 is {killed}")
        if not killed:
            failed.append(f"annihilation at level {n}")

    pair = pm_extract(system, args.depth)
    for name, cls in (("plus", pair.plus), ("minus", pair.minus)):
        rep = cls.cls.rep
        prod = rep * gr.star(rep)
        print(f"{name}: level {cls.level}, layer {cls.layer}, "
              f"mu(signed theta * involution) = {gr.mu_invariant(prod)}")

    if args.depth >= 5:
        hi, lo = pair, pm_extract(system, args.depth - 2)
        ok_p = pm_project_class(hi.plus, lo.plus.layer).same_class(lo.plus.cls)
        ok_m = pm_project_class(hi.minus, lo.minus.layer).same_class(lo.minus.cls)
        print(f"signed tower compatibility: plus {ok_p}, minus {ok_m}")
        if not (ok_p and ok_m):
            failed.append("compatibility")

    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
