import random

import pytest

from thetaforge import groupring as gr
from thetaforge.characters import (
    FiniteOrderCharacter,
    HowardFamily,
    howard_check,
    interpolation_shape,
    period_sum,
    specialize,
)
from thetaforge.errors import ConductorTooLarge, NotOrdinary
from thetaforge.hecke import local_eigen_extend, stabilize
from thetaforge.measures import from_tree, lp, pm_extract, synth_system, theta_ordinary
from thetaforge.padic import CyclotomicValue, EigenData, euler_phi_p_power
from thetaforge.torus import QuadraticTorus
from kernel_oracle import reference_zeta_power, star_identity_check


TORUS3 = QuadraticTorus(3, "inert", 2)


def rand_elt(p, k, n, rng, delta=1):
    size = (p**n) ** delta
    return gr.GroupRingElement(p, k, n, delta, tuple(rng.randrange(p**k) for _ in range(size)))


class TestCharacters:
    def test_trivial_and_inverse(self):
        # exponents are reduced mod p^m, so 9 is the trivial exponent at m = 2
        rho = FiniteOrderCharacter(3, 2, 1, (9,))
        assert rho.exponents == (0,)
        tau = FiniteOrderCharacter(3, 2, 1, (4,))
        assert tau.inverse().exponents == (5,)

    def test_json(self):
        rho = FiniteOrderCharacter(3, 2, 2, (1, 5))
        assert FiniteOrderCharacter.from_json(3, 2, rho.to_json()) == rho


class TestSpecialize:
    def test_trivial_character_gives_augmentation(self):
        rng = random.Random(0)
        x = rand_elt(3, 5, 2, rng)
        rho = FiniteOrderCharacter(3, 0, 1, (0,))
        got = specialize(x, rho)
        assert got == CyclotomicValue(3, 5, 0, (x.augmentation(),))

    def test_group_element_maps_to_root_of_unity(self):
        x = gr.delta_element(3, 5, 1, (1,))
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        assert specialize(x, rho) == reference_zeta_power(3, 5, 1, 1)

    def test_conductor_guard(self):
        x = gr.delta_element(3, 5, 1, (1,))
        with pytest.raises(ConductorTooLarge):
            specialize(x, FiniteOrderCharacter(3, 2, 1, (1,)))

    def test_ring_homomorphism_100_random_pairs(self):
        rng = random.Random(1)
        for _ in range(100):
            x, y = rand_elt(3, 5, 2, rng), rand_elt(3, 5, 2, rng)
            rho = FiniteOrderCharacter(3, 1, 1, (rng.randrange(3),))
            assert specialize(x * y, rho) == specialize(x, rho) * specialize(y, rho)

    def test_delta_two_specialization(self):
        rng = random.Random(2)
        x, y = rand_elt(3, 4, 1, rng, delta=2), rand_elt(3, 4, 1, rng, delta=2)
        rho = FiniteOrderCharacter(3, 1, 2, (1, 2))
        assert specialize(x * y, rho) == specialize(x, rho) * specialize(y, rho)


class TestStarIdentity:
    def test_trivial_character(self):
        rng = random.Random(3)
        x = rand_elt(3, 5, 1, rng)
        rho = FiniteOrderCharacter(3, 0, 1, (0,))
        assert star_identity_check(x, rho).ok

    def test_single_group_element(self):
        x = gr.delta_element(3, 5, 1, (1,))
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        rep = star_identity_check(x, rho)
        assert rep.ok
        assert rep.lhs == reference_zeta_power(3, 5, 1, -1)

    def test_random_exact(self):
        rng = random.Random(4)
        for _ in range(100):
            x = rand_elt(3, 5, 2, rng)
            rho = FiniteOrderCharacter(3, 2, 1, (rng.randrange(9),))
            assert star_identity_check(x, rho).ok


def ordinary_tower(seed=5, k=6, n_max=3, ap=1):
    eig = EigenData.ordinary(3, k, ap)
    f0 = local_eigen_extend(3, k, ap, n_max, seed=seed)
    return from_tree(stabilize(f0, eig), TORUS3, eig, n_max)


class TestPeriodSum:
    def test_requires_edge_mode(self):
        s = synth_system(3, 6, "vertex", EigenData.supersingular(3, 6), 3, seed=1)
        with pytest.raises(NotOrdinary):
            period_sum(s, FiniteOrderCharacter(3, 0, 1, (0,)), 3)

    def test_trivial_character_total_sum(self):
        s = ordinary_tower()
        rho = FiniteOrderCharacter(3, 0, 1, (0,))
        got = period_sum(s, rho, 3)
        total = sum(s.table(3)) % 3**6
        inv = pow(s.eigen.alpha.inverse().residue, 3, 3**6)
        assert got == CyclotomicValue(3, 6, 0, (total * inv,))

    def test_agrees_with_specialized_theta(self):
        for seed in (5, 6, 7):
            s = ordinary_tower(seed=seed)
            for m in (2, 3):
                for e in range(3):
                    rho = FiniteOrderCharacter(3, 1, 1, (e,))
                    th = theta_ordinary(s, m)
                    assert period_sum(s, rho, m) == specialize(th.value, rho)

    def test_conductor_compatibility(self):
        s = ordinary_tower()
        with pytest.raises(ConductorTooLarge):
            period_sum(s, FiniteOrderCharacter(3, 2, 1, (1,)), 2)

    def test_level_above_n_max_is_refused(self):
        # the level check is theta_ordinary's: a ValueError, not an
        # IndexError past the end of the tower
        s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 3, seed=1)
        with pytest.raises(ValueError, match="level 5 outside populated range"):
            period_sum(s, FiniteOrderCharacter(3, 0, 1, (0,)), 5)

    def test_inverse_character_is_involution_route(self):
        # the inverse-character sum equals specializing the involuted theta
        s = ordinary_tower(seed=8)
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        ps_inv = period_sum(s, rho.inverse(), 3)
        th = theta_ordinary(s, 3)
        assert ps_inv == specialize(gr.star(th.value), rho)
        assert ps_inv.ramification == 2


def reference_period_sum(sys, rho, m):
    """The per-label period sum: one zeta power and one cyclotomic addition
    for every label."""
    p, k = sys.p, sys.k
    acc = CyclotomicValue(p, k, rho.m, (0,) * euler_phi_p_power(p, rho.m))
    free_mod = p**rho.m
    size = p ** (sys.level_exp[m] * sys.delta)
    # a label's free index is its position in its torsion block
    for _, c, t in sorted(zip(sys.labels(m), sys.table(m), range(len(sys.table(m))))):
        if c:
            digits = gr.digits_of(t % size, p ** sys.level_exp[m], sys.delta)
            e = sum(ei * (d % free_mod) for ei, d in zip(rho.exponents, digits))
            acc = acc + reference_zeta_power(p, k, rho.m, e) * c
    return acc * pow(sys.eigen.alpha.inverse().residue, m, p**k)


class TestPeriodSumAgainstPerLabelReference:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("cond", [0, 1, 2])
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("k", [5, 40])
    def test_synthetic_edge_systems(self, p, cond, delta, k):
        n_max = 3  # k = 5 is the minimum precision n_max + 2
        s = synth_system(p, k, "edge", EigenData.ordinary(p, k, 1), n_max,
                         delta=delta, seed=100 * p + 10 * cond + delta)
        rng = random.Random(k)
        chars = [FiniteOrderCharacter(p, cond, delta, (0,) * delta),
                 FiniteOrderCharacter(p, cond, delta, (1,) + (0,) * (delta - 1)),
                 FiniteOrderCharacter(p, cond, delta,
                                      tuple(rng.randrange(p**cond) for _ in range(delta)))]
        chars.append(chars[-1].inverse())
        levels = [j for j in range(1, n_max + 1) if s.level_exp[j] >= cond]
        assert levels
        for j in levels:
            for rho in chars:
                assert period_sum(s, rho, j) == reference_period_sum(s, rho, j)


class TestInterpolationShape:
    def test_trivial_character(self):
        s = ordinary_tower(seed=9)
        rep = interpolation_shape(s, FiniteOrderCharacter(3, 0, 1, (0,)), 3)
        assert rep.ok

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_conductor_p_product_identity(self, seed):
        s = ordinary_tower(seed=seed, k=6)
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        rep = interpolation_shape(s, rho, 3)
        assert rep.ok
        # valuation additivity of the product
        cap = 2 * 6
        assert rep.lhs_valuation == min(sum(rep.factor_valuations), cap)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("cond", [0, 1, 2])
    def test_rhs_is_the_product_of_the_two_period_sums(self, p, cond):
        # the report's right-hand side is period_sum at rho times period_sum
        # at rho^(-1), each a specialization of the raw level-m theta
        k, n_max = 6, 3
        s = synth_system(p, k, "edge", EigenData.ordinary(p, k, 1), n_max,
                         seed=10 * p + cond)
        rng = random.Random(cond)
        for e in (1, rng.randrange(p**cond)):
            rho = FiniteOrderCharacter(p, cond, 1, (e,))
            rep = interpolation_shape(s, rho, n_max)
            assert rep.rhs == period_sum(s, rho, n_max) * period_sum(s, rho.inverse(), n_max)
            assert rep.ok

    def test_level_above_n_max_is_refused(self):
        s = ordinary_tower(seed=10, n_max=4)
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        with pytest.raises(ValueError):
            interpolation_shape(s, rho, 5)

    def test_specialized_lp_depends_only_on_lp(self):
        from thetaforge.torus import TorusElement

        p, k = 3, 6
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, 3, seed=15)
        phi = stabilize(f0, eig)
        s1 = from_tree(phi, TORUS3, eig, 3)
        s2 = from_tree(phi, TORUS3, eig, 3, shift=TorusElement(TORUS3, k, x=1, y=3))
        rho = FiniteOrderCharacter(3, 2, 1, (1,))
        assert specialize(lp(s1, 3).value, rho) == specialize(lp(s2, 3).value, rho)

    def test_pm_specialization_when_character_kills_ideal(self):
        # conductor-p characters kill the omega ideal of matching parity
        p, k = 3, 6
        f0 = local_eigen_extend(p, k, 0, 3, seed=14)
        s = from_tree(f0, TORUS3, EigenData.supersingular(p, k), 3)
        pair = pm_extract(s, 3)
        cls = pair.minus           # layer 1, ideal omega_1^- = T * Sigma_p(T+1)
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        gen = gr.reduce_poly(gr.omega_pm_poly(p, cls.layer, cls.eps), p, k, cls.layer)
        assert specialize(gen, rho).is_zero()
        l = lp(s, 3, "minus")
        lhs = specialize(l.value, rho)
        rep = cls.cls.rep
        assert lhs == specialize(rep, rho) * specialize(gr.star(rep), rho)


class TestHowardCheck:
    def test_unit_augmentation_passes_and_identifies(self):
        rng = random.Random(6)
        unit = gr.one(3, 5, 2)
        killed = gr.delta_element(3, 5, 2, (1,)) - gr.one(3, 5, 2)  # aug 0
        fam = HowardFamily(("a", "b"), (killed, unit))
        rep = howard_check(fam, "augmentation", 1)
        assert rep.passed
        assert rep.nontrivial_labels == ("b",)

    def test_all_zero_family_fails(self):
        fam = HowardFamily(("z1", "z2"), (gr.zero(3, 5, 1), gr.zero(3, 5, 1)))
        for prime in ("augmentation", "maximal"):
            assert not howard_check(fam, prime, 1).passed

    def test_maximal_prime_mu_comparison(self):
        lam = gr.one(3, 5, 1) + gr.delta_element(3, 5, 1, (1,))
        scaled = lam * 3
        fam = HowardFamily(("3lam",), (scaled,))
        assert not howard_check(fam, "maximal", 1).passed
        assert howard_check(fam, "maximal", 2).passed

    def test_custom_witness_prime(self):
        # witness T - 1 <-> evaluation at gamma = 2
        lam = gr.reduce_poly((2, 1), 3, 4, 1)   # poly T + 2
        fam = HowardFamily(("x",), (lam,))
        witness = (-1, 1)
        rep = howard_check(fam, witness, 2)
        assert rep.passed                      # (T + 2) mod (T - 1) = 3 != 0
        assert not howard_check(fam, witness, 1).passed   # 3 == 0 mod 3^1

    def test_witness_normalization(self):
        # a list or tuple, trailing zeros dropped; a zero witness, a non-unit
        # leading coefficient or any other specification is a ValueError
        fam = HowardFamily(("x",), (gr.reduce_poly((2, 1), 3, 4, 1),))
        assert howard_check(fam, [-1, 1, 0, 0], 2) == howard_check(fam, (-1, 1), 2)
        for witness, match in (([], "nonzero"), ((0, 0), "nonzero"), ((1, 3, 0), "unit leading")):
            with pytest.raises(ValueError, match=match):
                howard_check(fam, witness, 2)
        for spec in ("prime", 5, None):
            for members in (fam, HowardFamily((), ())):   # an empty family too
                with pytest.raises(ValueError, match="unknown prime"):
                    howard_check(members, spec, 2)

    def test_distinct_labels_enforced(self):
        with pytest.raises(ValueError):
            HowardFamily(("a", "a"), (gr.zero(3, 4, 1), gr.zero(3, 4, 1)))

    def test_theta_family_from_towers(self):
        # family built from actual normalized theta elements
        elements = []
        labels = []
        for seed in (1, 2, 3):
            s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 3, seed=seed)
            elements.append(theta_ordinary(s, 3).value)
            labels.append(f"tower{seed}")
        fam = HowardFamily(tuple(labels), tuple(elements))
        rep = howard_check(fam, "augmentation", 6)
        assert len(rep.verdicts) == 3
