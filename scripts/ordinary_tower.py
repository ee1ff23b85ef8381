"""End-to-end ordinary run: eigen-extension, stabilization, tower, theta,
L-element, interpolation identity, and the mu = 2 nu law.

Usage: python scripts/ordinary_tower.py [--p 3] [--k 8] [--ap 1] [--depth 3]
                                       [--seed 21] [--nu 0]

The product identity is checked at every conductor p^m, m < depth.  Exits 1
when any printed check fails: the distribution relations, the mu = 2 nu law
or a product identity.
"""

import argparse
import sys

from thetaforge import groupring as gr
from thetaforge.characters import FiniteOrderCharacter, interpolation_shape
from thetaforge.hecke import local_eigen_extend, nu_invariant, scale_form, stabilize
from thetaforge.measures import check_distribution, from_tree, lp
from thetaforge.padic import EigenData
from thetaforge.torus import QuadraticTorus
from thetaforge.util import default_nonresidue


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--ap", type=int, default=1)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--nu", type=int, default=0, help="scale the form by p^nu")
    args = ap.parse_args()

    p, k = args.p, args.k
    torus = QuadraticTorus(p, "inert", default_nonresidue(p))
    eig = EigenData.ordinary(p, k, args.ap)
    print(f"p = {p}, k = {k}, a_p = {args.ap}, unit root alpha = {eig.alpha.residue}")

    failed = []
    f0 = scale_form(local_eigen_extend(p, k, args.ap, args.depth, args.seed), p**args.nu)
    nu = nu_invariant(f0)
    print(f"nu invariant of the input form: {nu}")

    # each form is dropped once the next stage is built from it, so the
    # vertex form is gone before from_tree and the edge form before lp
    phi = stabilize(f0, eig)
    del f0
    system = from_tree(phi, torus, eig, args.depth)
    del phi
    report = check_distribution(system)
    print(f"distribution relations: {report.relations_checked} checked, ok = {report.ok}")
    if not report.ok:
        failed.append("distribution")

    ell = lp(system, args.depth)
    theta = ell.factor_value        # the normalized theta the L-element is built from
    print(f"theta layer {theta.n}: mu = {gr.mu_invariant(theta)}, "
          f"lambda = {gr.lambda_invariant(theta)}")
    mu = gr.mu_invariant(ell.value)
    print(f"L-element: mu = {mu} (expected 2 nu = {2 * nu})")
    if mu != 2 * nu:
        failed.append("mu = 2 nu")

    for m_cond in range(args.depth):
        rho = FiniteOrderCharacter(p, m_cond, 1, (1,))
        rep = interpolation_shape(system, rho, args.depth)
        e = rep.lhs.ramification
        print(f"conductor p^{m_cond}: product identity ok = {rep.ok}, "
              f"val rho(L) = {rep.lhs_valuation} (units 1/{e}) "
              f"= {rep.factor_valuations[0]} + {rep.factor_valuations[1]}")
        if not rep.ok:
            failed.append(f"product identity at conductor p^{m_cond}")

    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
