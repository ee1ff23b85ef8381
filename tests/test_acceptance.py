"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line (with its wall time) once its assertions
hold; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

from thetaforge import groupring as gr
from thetaforge.characters import (
    FiniteOrderCharacter,
    HowardFamily,
    howard_check,
    interpolation_shape,
    period_sum,
)
from thetaforge.hecke import (
    EigenData,
    hecke_U,
    local_eigen_extend,
    nu_invariant,
    scale_form,
    stabilize,
)
from thetaforge.measures import (
    check_distribution,
    from_tree,
    lp,
    pm_extract,
    pm_project_class,
    synth_system,
    theta_level,
    theta_ordinary,
)
from thetaforge.padic import PrecisionInt, cyclotomic_sigma
from thetaforge.torus import QuadraticTorus, TorusElement, filtration_order, orbit_table
from thetaforge.tree import origin, sphere
from form_oracle import source_form, target_form
from kernel_oracle import T, binomial_minus_one, poly_mul, star_identity_check


def bumped(s, j, lbl, by):
    """s with its level-j coefficient at the label named lbl raised by `by`
    mod p^k."""
    table = list(s.table(j))
    at = s.labels(j).index(lbl)
    table[at] = (table[at] + by) % s.p**s.k
    return replace(s, levels=s.levels[:j] + (tuple(table),) + s.levels[j + 1:])


@contextmanager
def criterion(num, description, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"
    print(f"ACCEPTANCE {num:02d} PASS  {description}  ({dt:.2f}s)")


def test_01_sphere_filtration_law():
    with criterion(1, "sphere sizes match the filtration index law", 5.0):
        for p in (2, 3, 5):
            for j in range(1, 7):
                assert len(sphere(origin(p), j)) == (p + 1) * p ** (j - 1)
        for p in (3, 5):
            torus = QuadraticTorus(p, "inert", 2)
            for j in range(1, 7):
                assert filtration_order(torus, j) == (p + 1) * p ** (j - 1)


def test_02_simple_transitivity():
    with criterion(2, "orbit tables are collision-free of full size", 10.0):
        for p in (3, 5):
            torus = QuadraticTorus(p, "inert", 2)
            for j in range(5):
                tab = orbit_table(torus, j)
                assert len(tab.labels) == filtration_order(torus, j)
                images = list(tab.images.values())
                assert len(set(images)) == len(images)
                if j >= 1:
                    assert set(images) == set(sphere(origin(p), j))


def test_03_stabilization_relation_chain():
    with criterion(3, "transfer-operator relations on 21 seeded eigen-extensions", 10.0):
        p, k, radius = 3, 8, 4
        cases = 0
        for ap in (0, 1, 2):
            for seed in range(7):
                f0 = local_eigen_extend(p, k, ap, radius, seed)
                phi_s, phi_t = source_form(f0), target_form(f0)
                (s,), (t,) = phi_s.tables, phi_t.tables
                (u_s,), (u_t,) = hecke_U(phi_s).tables, hecke_U(phi_t).tables
                for e in u_s:
                    assert u_s[e] == t[e] * p
                    assert u_t[e] == t[e] * ap - s[e]
                if ap % p != 0:
                    eig = EigenData.ordinary(p, k, ap)
                    phi = stabilize(f0, eig)
                    (u_phi,), (ph,) = hecke_U(phi).tables, phi.tables
                    for e in u_phi:
                        assert u_phi[e] == eig.alpha * ph[e]
                cases += 1
        assert cases == 21


def test_04_distribution_relations():
    with criterion(4, "distribution relations, genuine and synthetic, with corruption", 30.0):
        k = 6
        genuine = []
        for p in (3, 5):
            torus = QuadraticTorus(p, "inert", 2)
            for ap in (0, 1):
                f0 = local_eigen_extend(p, k, ap, 3, seed=40 + ap)
                eig = EigenData(ap=PrecisionInt(p, k, ap), alpha=None)
                genuine.append(from_tree(f0, torus, eig, 3))
            eig = EigenData.ordinary(p, k, 1)
            f0 = local_eigen_extend(p, k, 1, 3, seed=44)
            genuine.append(from_tree(stabilize(f0, eig), torus, eig, 3))
        for s in genuine:
            assert check_distribution(s).ok
        # exhaustive corruption of one genuine system of each mode
        for s in (genuine[0], genuine[2]):
            for j in range(s.start_level, s.n_max + 1):
                for lbl in s.labels(j):
                    bad = bumped(s, j, lbl, 1)
                    assert not check_distribution(bad).ok
        # 50 synthetic seeds at depth 5, random corruption each
        rng = random.Random(1234)
        for seed in range(50):
            mode = "vertex" if seed % 2 == 0 else "edge"
            eig = (EigenData.supersingular(3, k) if mode == "vertex"
                   else EigenData.ordinary(3, k, 1 + seed % 2))
            lmap = "full" if seed % 3 == 0 else "local"
            s = synth_system(3, k, mode, eig, 5, level_map=lmap, seed=seed)
            assert check_distribution(s).ok
            j = rng.randrange(s.start_level, s.n_max + 1)
            lbl = rng.choice(sorted(s.labels(j)))
            bad = bumped(s, j, lbl, 1)
            report = check_distribution(bad)
            assert not report.ok
            assert report.first_violation is not None


def test_05_cyclotomic_factorization_and_xi():
    with criterion(5, "cyclotomic product identity and the two xi routes", 5.0):
        for p in (2, 3, 5):
            for n in range(1, 5):
                prod = T
                for j in range(1, n + 1):
                    prod = poly_mul(prod, cyclotomic_sigma(p, j))
                assert prod == binomial_minus_one(p**n)
        rng = random.Random(5)
        p, k = 3, 6
        count = 0
        while count < 100:
            n = count % 3  # layers 0..2, lifted to 1..3
            size = p**n
            x = gr.GroupRingElement(p, k, n, 1,
                                    tuple(rng.randrange(p**k) for _ in range(size)))
            lifted = gr.GroupRingElement(
                p, k, n + 1, 1, tuple(x.coeffs) + (0,) * (p ** (n + 1) - size))
            sig = gr.reduce_poly(cyclotomic_sigma(p, n + 1), p, k, n + 1)
            assert gr.xi(x) == sig * lifted
            count += 1


def test_06_supersingular_pm_suite():
    with criterion(6, "plus/minus annihilation, roundtrip, tower compatibility", 60.0):
        p, k = 3, 6
        systems = []
        for seed in (0, 1):
            systems.append(synth_system(p, k, "vertex", EigenData.supersingular(p, k),
                                        5, level_map="full", seed=seed))
        torus = QuadraticTorus(p, "inert", 2)
        f0 = local_eigen_extend(p, k, 0, 3, seed=61)
        systems.append(from_tree(f0, torus, EigenData.supersingular(p, k), 3))
        for s in systems:
            for n in range(max(2, s.start_level + 1), s.n_max + 1):
                layer = s.level_exp[n]
                eps = 1 if layer % 2 == 0 else -1
                raw = theta_level(s, n).value
                ann = gr.reduce_poly(gr.omega_pm_poly(p, layer, eps), p, k, layer)
                assert (ann * raw).is_zero()
            pair = pm_extract(s, s.n_max)
            for cls in (pair.plus, pair.minus):
                raw = theta_level(s, cls.level).value
                div = gr.reduce_poly(
                    gr.omega_tilde_poly(p, cls.layer, -cls.eps), p, k, cls.layer)
                half = cls.layer // 2 if cls.eps > 0 else (cls.layer + 1) // 2
                sign = -1 if half % 2 else 1
                assert div * (cls.cls.rep * sign) == raw
        # signed tower compatibility modulo the smaller omega ideal
        for s in systems[:2]:
            hi, lo = pm_extract(s, 5), pm_extract(s, 3)
            assert pm_project_class(hi.plus, lo.plus.layer).same_class(lo.plus.cls)
            assert pm_project_class(hi.minus, lo.minus.layer).same_class(lo.minus.cls)


def test_07_mu_equals_twice_nu():
    with criterion(7, "mu of the L-element equals twice nu, both kinds", 30.0):
        p, k = 3, 8
        torus = QuadraticTorus(p, "inert", 2)
        for nu in (0, 1, 2):
            eig = EigenData.ordinary(p, k, 1)
            f0 = scale_form(local_eigen_extend(p, k, 1, 3, seed=21), p**nu)
            assert nu_invariant(f0) == nu
            s = from_tree(stabilize(f0, eig), torus, eig, 3)
            assert gr.mu_invariant(lp(s, 3).value) == 2 * nu
            g0 = scale_form(local_eigen_extend(p, k, 0, 3, seed=13), p**nu)
            assert nu_invariant(g0) == nu
            sv = from_tree(g0, torus, EigenData.supersingular(p, k), 3)
            pair = pm_extract(sv, 3)
            for cls in (pair.plus, pair.minus):
                rep = cls.cls.rep
                assert gr.mu_invariant(rep * gr.star(rep)) == 2 * nu


def test_08_specialization_identities():
    with criterion(8, "involution identity and the interpolation product", 30.0):
        p, k = 3, 6
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randrange(1, 3)
            size = p**n
            lam = gr.GroupRingElement(p, k, n, 1,
                                      tuple(rng.randrange(p**k) for _ in range(size)))
            rho = FiniteOrderCharacter(p, rng.randrange(n + 1), 1, (rng.randrange(p**n),))
            assert star_identity_check(lam, rho).ok
        torus = QuadraticTorus(p, "inert", 2)
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, 3, seed=81)
        s = from_tree(stabilize(f0, eig), torus, eig, 3)
        for m_cond in (0, 1, 2):
            for e in (1, 2):
                rho = FiniteOrderCharacter(p, m_cond, 1, (e,))
                rep = interpolation_shape(s, rho, 3)
                assert rep.ok
                assert rep.lhs == period_sum(s, rho, 3) * period_sum(s, rho.inverse(), 3)


def test_09_base_sequence_independence():
    with criterion(9, "rotating the base sequence moves theta but not L", 30.0):
        p, k = 3, 6
        torus = QuadraticTorus(p, "inert", 2)
        eig = EigenData.ordinary(p, k, 2)
        f0 = local_eigen_extend(p, k, 2, 3, seed=91)
        phi = stabilize(f0, eig)
        s1 = from_tree(phi, torus, eig, 3)
        sigma = TorusElement(torus, k, x=1, y=3)
        s2 = from_tree(phi, torus, eig, 3, shift=sigma)
        assert theta_ordinary(s1, 3).value != theta_ordinary(s2, 3).value
        assert lp(s1, 3).value == lp(s2, 3).value


def test_10_howard_scanner():
    with criterion(10, "family scan finds the unique unit-augmentation member", 10.0):
        p, k, n = 3, 6, 2
        rng = random.Random(10)
        members = []
        labels = []
        for i in range(4):
            # kill the augmentation: subtract the total mass at the identity
            coeffs = [rng.randrange(p**k) for _ in range(p**n)]
            coeffs[0] = (coeffs[0] - sum(coeffs)) % p**k
            members.append(gr.GroupRingElement(p, k, n, 1, tuple(coeffs)))
            labels.append(f"dead{i}")
        members.append(gr.one(p, k, n))
        labels.append("alive")
        fam = HowardFamily(tuple(labels), tuple(members))
        report = howard_check(fam, "augmentation", 1)
        assert report.passed
        assert report.nontrivial_labels == ("alive",)
        zeros = HowardFamily(("z0", "z1"),
                             (gr.zero(p, k, n), gr.zero(p, k, n)))
        assert not howard_check(zeros, "augmentation", 1).passed
        assert not howard_check(zeros, "maximal", k).passed
