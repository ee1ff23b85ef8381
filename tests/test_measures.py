from dataclasses import replace

import pytest

import smith_oracle
from thetaforge import groupring as gr
from thetaforge.errors import (
    CompatibilityViolation,
    DistributionViolation,
    NotOrdinary,
    NotSupersingular,
    PrecisionExhausted,
    UnsupportedDelta,
)
from thetaforge.hecke import (
    EdgeForm,
    EigenData,
    VertexForm,
    hecke_U,
    local_eigen_extend,
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
from thetaforge.padic import PrecisionInt
from thetaforge.torus import QuadraticTorus, TorusElement
from thetaforge.tree import Vertex, ball, origin


TORUS3 = QuadraticTorus(3, "inert", 2)
TORUS5 = QuadraticTorus(5, "inert", 2)


def bumped(s, j, lbl, by):
    """s with its level-j coefficient at the label named lbl raised by `by`
    mod p^k."""
    table = list(s.table(j))
    at = s.labels(j).index(lbl)
    table[at] = (table[at] + by) % s.p**s.k
    return replace(s, levels=s.levels[:j] + (tuple(table),) + s.levels[j + 1:])


def constant_vertex_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    return VertexForm(p, k, b, (c,) * b.size)


def constant_edge_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    return EdgeForm(p, k, b, (c,) * (2 * b.size - 2))


class TestFromTree:
    def test_constant_vertex_form_needs_ap_p_plus_one(self):
        # fibers of size p sum a constant: p*c == (p+1)*c - c
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, p + 1), alpha=None)
        s = from_tree(constant_vertex_form(p, k, 3), TORUS3, eig, 3)
        assert check_distribution(s).ok

    def test_constant_edge_form_needs_alpha_p(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, p + 1), alpha=PrecisionInt(p, k, p))
        s = from_tree(constant_edge_form(p, k, 3), TORUS3, eig, 3)
        assert check_distribution(s).ok

    @pytest.mark.parametrize("torus,p", [(TORUS3, 3), (TORUS5, 5)])
    @pytest.mark.parametrize("ap", [0, 1])
    def test_genuine_vertex_pipeline(self, torus, p, ap):
        k = 6
        f0 = local_eigen_extend(p, k, ap, 3, seed=17)
        eig = EigenData(ap=PrecisionInt(p, k, ap), alpha=None)
        s = from_tree(f0, torus, eig, 3)
        assert check_distribution(s).ok

    @pytest.mark.parametrize("torus,p,ap", [(TORUS3, 3, 1), (TORUS5, 5, 2)])
    def test_genuine_edge_pipeline(self, torus, p, ap):
        k = 6
        f0 = local_eigen_extend(p, k, ap, 3, seed=23)
        eig = EigenData.ordinary(p, k, ap)
        s = from_tree(stabilize(f0, eig), torus, eig, 3)
        assert check_distribution(s).ok

    def test_wrong_eigenvalue_raises(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, 1), alpha=None)
        with pytest.raises(DistributionViolation):
            from_tree(constant_vertex_form(p, k, 3), TORUS3, eig, 3)

    def test_wrong_constant_ap_fails_at_layer_one(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, 1), alpha=None)
        with pytest.raises(DistributionViolation, match="'layer': 1,"):
            from_tree(constant_vertex_form(p, k, 3), TORUS3, eig, 3)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_ball_off_the_origin_rejected(self, mode):
        # the inert torus fixes the origin, so its orbits are read off a ball
        # centered there; this ball even contains the orbits up to level 2
        p, k = 3, 6
        b = ball(Vertex(p, 1, 1, 1), 4)
        eig = EigenData.ordinary(p, k, 1)
        if mode == "vertex":
            form = VertexForm(p, k, b, (1,) * b.size)
        else:
            form = EdgeForm(p, k, b, (1,) * (2 * b.size - 2))
        with pytest.raises(ValueError, match="origin"):
            from_tree(form, TORUS3, eig, 2)

    def test_missing_value_at_an_image_raises(self):
        # U leaves no value on the edges into the boundary sphere, which
        # level 3 reads on the radius-3 ball
        p, k = 3, 6
        eig = EigenData.ordinary(p, k, 1)
        u_phi = hecke_U(stabilize(local_eigen_extend(p, k, 1, 3, seed=1), eig))
        with pytest.raises(KeyError):
            from_tree(u_phi, TORUS3, eig, 3)

    def test_missing_vertex_value_at_an_image_raises(self):
        # the level-3 orbit of v_3 is the whole sphere of radius 3, so a
        # vertex form without a value at its last vertex misses an image
        p, k = 3, 6
        f0 = local_eigen_extend(p, k, 1, 3, seed=1)
        partial = VertexForm(p, k, f0.domain, f0.values[:-1] + (None,))
        eig = EigenData(ap=PrecisionInt(p, k, 1), alpha=None)
        with pytest.raises(KeyError, match="level-3 base point"):
            from_tree(partial, TORUS3, eig, 3)

    def test_small_ball_rejected(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, 4), alpha=None)
        with pytest.raises(PrecisionExhausted):
            from_tree(constant_vertex_form(p, k, 2), TORUS3, eig, 3)

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_one_unit_inverse_table_per_call(self, monkeypatch, mode):
        # the orbit ids and the coset walk of every level read the top
        # level's table, so one call builds one table, of the top level
        from thetaforge import torus as torus_mod

        p, k, depth = 3, 7, 5
        f0 = local_eigen_extend(p, k, 1, depth, seed=3)
        eig = EigenData.ordinary(p, k, 1)
        form = f0 if mode == "vertex" else stabilize(f0, eig)
        expected = from_tree(form, TORUS3, eig, depth)
        real, calls = torus_mod._unit_inverses, []

        def counting(p, j):
            calls.append(j)
            return real(p, j)

        monkeypatch.setattr(torus_mod, "_unit_inverses", counting)
        assert from_tree(form, TORUS3, eig, depth) == expected
        assert calls == [depth]


class TestSynth:
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("level_map", ["local", "full"])
    def test_passes_by_construction(self, mode, level_map):
        p, k = 3, 6
        eig = EigenData.ordinary(p, k, 1) if mode == "edge" else EigenData.supersingular(p, k)
        s = synth_system(p, k, mode, eig, 5, level_map=level_map, seed=1)
        assert check_distribution(s).ok

    def test_deterministic_and_seed_sensitive(self):
        eig = EigenData.supersingular(3, 6)
        s1 = synth_system(3, 6, "vertex", eig, 3, seed=5)
        s2 = synth_system(3, 6, "vertex", eig, 3, seed=5)
        s3 = synth_system(3, 6, "vertex", eig, 3, seed=6)
        assert s1.levels == s2.levels
        assert s1.levels != s3.levels
        assert check_distribution(s3).ok

    def test_zero_ap_passes(self):
        eig = EigenData.supersingular(3, 6)
        s = synth_system(3, 6, "vertex", eig, 4, seed=9)
        assert check_distribution(s).ok

    def test_delta_two(self):
        eig = EigenData.supersingular(3, 5)
        s = synth_system(3, 5, "vertex", eig, 2, delta=2, level_map="full", seed=3)
        assert check_distribution(s).ok
        th = theta_level(s, 2)
        assert th.value.delta == 2

    def test_torsion_must_be_coprime(self):
        with pytest.raises(ValueError):
            synth_system(3, 5, "vertex", EigenData.supersingular(3, 5), 2, torsion=6)

    def test_fiber_profile_local_map(self):
        from collections import Counter

        eig = EigenData.supersingular(3, 6)
        s = synth_system(3, 6, "vertex", eig, 3, seed=2)
        sizes1 = Counter(s.fibers[1])
        sizes2 = Counter(s.fibers[2])
        assert set(sizes1.values()) == {4}   # first layer: torsion q+1
        assert set(sizes2.values()) == {3}   # then p


class TestChecker:
    def test_single_corruption_always_detected(self):
        eig = EigenData.supersingular(3, 6)
        s = synth_system(3, 6, "vertex", eig, 3, seed=11)
        for j in range(s.start_level, s.n_max + 1):
            for lbl in s.labels(j):
                bad = bumped(s, j, lbl, 1)
                assert not check_distribution(bad).ok

    def test_corruption_reports_location(self):
        eig = EigenData.ordinary(3, 6, 1)
        s = synth_system(3, 6, "edge", eig, 4, seed=12)
        lbl = sorted(s.labels(2))[0]
        bad = bumped(s, 2, lbl, 1)
        report = check_distribution(bad)
        assert not report.ok
        assert report.first_violation[0] == 2
        assert report.to_json()["violation"]["layer"] == 2


class TestThetaLevel:
    def test_level_zero_is_augmentation_only(self):
        eig = EigenData.supersingular(3, 6)
        s = synth_system(3, 6, "vertex", eig, 3, seed=1)
        th = theta_level(s, 0)
        assert th.value.n == 0
        assert s.labels(0) == ["0|0"]
        assert th.value.coeffs == s.table(0)

    def test_constant_edge_counts_torsion_cosets(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, p + 1), alpha=PrecisionInt(p, k, p))
        s = from_tree(constant_edge_form(p, k, 3), TORUS3, eig, 2)
        th = theta_level(s, 2)
        # 12 labels push onto 3 free digits through 4-element torsion cosets
        assert th.value.coeffs == (4, 4, 4)

    def test_pushforward_commutes_with_project(self):
        # the free-quotient image of the fiber-sum relation
        eig = EigenData.ordinary(3, 6, 2)
        s = synth_system(3, 6, "edge", eig, 4, level_map="full", seed=8)
        for n in (2, 3, 4):
            upper = theta_level(s, n).value
            lower = theta_level(s, n - 1).value
            assert gr.project(upper) == lower * s.eigen.alpha.residue


class TestThetaOrdinary:
    def test_constant_system_is_not_ordinary(self):
        p, k = 3, 6
        eig = EigenData(ap=PrecisionInt(p, k, p + 1), alpha=PrecisionInt(p, k, p))
        s = from_tree(constant_edge_form(p, k, 3), TORUS3, eig, 3)
        with pytest.raises(NotOrdinary):
            theta_ordinary(s, 3)

    def test_vertex_system_rejected(self):
        s = synth_system(3, 6, "vertex", EigenData.supersingular(3, 6), 3, seed=1)
        with pytest.raises(NotOrdinary):
            theta_ordinary(s, 3)

    @pytest.mark.parametrize("level_map", ["local", "full"])
    def test_tower_compatibility(self, level_map):
        eig = EigenData.ordinary(3, 6, 1)
        s = synth_system(3, 6, "edge", eig, 4, level_map=level_map, seed=4)
        th = theta_ordinary(s, 4)   # raises on any compatibility failure
        assert th.normalization == 4

    def test_augmentation_formula(self):
        eig = EigenData.ordinary(3, 8, 2)
        s = synth_system(3, 8, "edge", eig, 3, seed=6)
        n = 3
        th = theta_ordinary(s, n)
        total = sum(s.table(n))
        inv = pow(eig.alpha.inverse().residue, n, 3**8)
        assert th.value.augmentation() == total * inv % 3**8

    def test_compatibility_violation_detected(self):
        eig = EigenData.ordinary(3, 6, 1)
        s = synth_system(3, 6, "edge", eig, 3, seed=4)
        lbl = sorted(s.labels(3))[1]
        bad = bumped(s, 3, lbl, 9)
        with pytest.raises(CompatibilityViolation):
            theta_ordinary(bad, 3)


class TestPmExtract:
    def test_requires_zero_ap(self):
        eig = EigenData(ap=PrecisionInt(3, 6, 1), alpha=None)
        s = synth_system(3, 6, "vertex", eig, 3, seed=1)
        with pytest.raises(NotSupersingular):
            pm_extract(s, 3)

    @pytest.mark.parametrize("level_map", ["local", "full"])
    def test_non_annihilated_theta_is_not_supersingular(self, level_map):
        p, k, n = 3, 6, 4
        s = synth_system(p, k, "vertex", EigenData.supersingular(p, k), n,
                         level_map=level_map, seed=3)
        label = sorted(s.labels(n))[0]
        with pytest.raises(NotSupersingular):
            pm_extract(bumped(s, n, label, 1), n)

    def test_requires_delta_one(self):
        s = synth_system(3, 5, "vertex", EigenData.supersingular(3, 5), 2,
                         delta=2, level_map="full", seed=1)
        with pytest.raises(UnsupportedDelta):
            pm_extract(s, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annihilation_and_roundtrip_full_map(self, seed):
        p, k = 3, 6
        s = synth_system(p, k, "vertex", EigenData.supersingular(p, k), 5,
                         level_map="full", seed=seed)
        for n in range(2, 6):
            layer = s.level_exp[n]
            eps = 1 if layer % 2 == 0 else -1
            raw = theta_level(s, n).value
            ann = gr.reduce_poly(gr.omega_pm_poly(p, layer, eps), p, k, layer)
            assert (ann * raw).is_zero()
        pair = pm_extract(s, 5)
        for cls in (pair.plus, pair.minus):
            raw = theta_level(s, cls.level).value
            div = gr.reduce_poly(gr.omega_tilde_poly(p, cls.layer, -cls.eps), p, k, cls.layer)
            half = cls.layer // 2 if cls.eps > 0 else (cls.layer + 1) // 2
            sign = -1 if half % 2 else 1
            assert div * (cls.cls.rep * sign) == raw

    def test_genuine_local_map_extraction(self):
        p, k = 3, 6
        f0 = local_eigen_extend(p, k, 0, 3, seed=29)
        s = from_tree(f0, TORUS3, EigenData.supersingular(p, k), 3)
        pair = pm_extract(s, 3)
        assert (pair.plus.level, pair.plus.layer) == (3, 2)
        assert (pair.minus.level, pair.minus.layer) == (2, 1)

    def test_signed_tower_compatibility(self):
        p, k = 3, 6
        s = synth_system(p, k, "vertex", EigenData.supersingular(p, k), 5,
                         level_map="full", seed=7)
        hi = pm_extract(s, 5)
        lo = pm_extract(s, 3)
        assert pm_project_class(hi.plus, lo.plus.layer).same_class(lo.plus.cls)
        assert pm_project_class(hi.minus, lo.minus.layer).same_class(lo.minus.cls)

    def test_signed_compatibility_down_to_layer_zero(self):
        p, k = 3, 6
        s = synth_system(p, k, "vertex", EigenData.supersingular(p, k), 4,
                         level_map="full", seed=3)
        hi = pm_extract(s, 4)    # plus class at layer 4
        lo = pm_extract(s, 2)    # plus class at layer 2
        assert pm_project_class(hi.plus, 2).same_class(lo.plus.cls)


class TestLp:
    def test_translation_invariance_single_group_element(self):
        # theta = delta_sigma gives L = delta_sigma * delta_sigma^* = 1
        x = gr.delta_element(3, 5, 2, (4,))
        assert x * gr.star(x) == gr.one(3, 5, 2)

    def test_base_sequence_shift_changes_theta_not_lp(self):
        p, k = 3, 6
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, 3, seed=5)
        phi = stabilize(f0, eig)
        s1 = from_tree(phi, TORUS3, eig, 3)
        sigma = TorusElement(TORUS3, k, x=1, y=3)
        s2 = from_tree(phi, TORUS3, eig, 3, shift=sigma)
        assert theta_ordinary(s1, 3).value != theta_ordinary(s2, 3).value
        assert lp(s1, 3).value == lp(s2, 3).value

    def test_shift_also_invariant_for_pm(self):
        # for the signed kinds the product is invariant modulo the omega ideal
        p, k = 3, 6
        f0 = local_eigen_extend(p, k, 0, 3, seed=31)
        eig = EigenData.supersingular(p, k)
        s1 = from_tree(f0, TORUS3, eig, 3)
        sigma = TorusElement(TORUS3, k, x=1, y=3)
        s2 = from_tree(f0, TORUS3, eig, 3, shift=sigma)
        l1, l2 = lp(s1, 3, "plus"), lp(s2, 3, "plus")
        gen = gr.reduce_poly(gr.omega_pm_poly(p, 2, 1), p, k, 2)
        diff = l1.value - l2.value
        m = smith_oracle.multiplication_matrix(gen)
        assert smith_oracle.solve(m, list(diff.coeffs), p, k) is not None

    def test_mu_doubling_can_fail_off_tower(self):
        # 1 + gamma at p = 2: the product with its involution is 2(1 + gamma),
        # so doubling is not a general group-ring identity -- it is checked
        # two-sidedly on every tower instance instead
        x = gr.GroupRingElement(2, 3, 1, 1, (1, 1))
        prod = x * gr.star(x)
        assert gr.mu_invariant(x) == 0
        assert gr.mu_invariant(prod) == 1
        assert gr.mu_invariant(prod) >= 2 * gr.mu_invariant(x)

    def test_mu_doubling_on_random_ordinary_towers(self):
        for seed in range(5):
            eig = EigenData.ordinary(3, 8, 1)
            s = synth_system(3, 8, "edge", eig, 3, seed=seed)
            th = theta_ordinary(s, 3)
            l = lp(s, 3)
            assert gr.mu_invariant(l.value) == 2 * gr.mu_invariant(th.value)

    def test_unknown_kind(self):
        s = synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 3, seed=0)
        with pytest.raises(ValueError):
            lp(s, 3, "weird")


class TestMuEqualsTwoNu:
    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_ordinary_kind(self, nu):
        p, k = 3, 8
        eig = EigenData.ordinary(p, k, 1)
        f0 = scale_form(local_eigen_extend(p, k, 1, 3, seed=21), p**nu)
        from thetaforge.hecke import nu_invariant

        assert nu_invariant(f0) == nu
        s = from_tree(stabilize(f0, eig), TORUS3, eig, 3)
        assert gr.mu_invariant(lp(s, 3).value) == 2 * nu

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_pm_kinds(self, nu):
        p, k = 3, 8
        f0 = scale_form(local_eigen_extend(p, k, 0, 3, seed=13), p**nu)
        s = from_tree(f0, TORUS3, EigenData.supersingular(p, k), 3)
        pair = pm_extract(s, 3)
        for cls in (pair.plus, pair.minus):
            rep = cls.cls.rep
            assert gr.mu_invariant(rep * gr.star(rep)) == 2 * nu

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_scaled_synthetic_towers(self, nu):
        # scaling a passing tower by p^nu keeps all relations and doubles mu
        p, k = 3, 8
        eig = EigenData.ordinary(p, k, 2)
        s = synth_system(p, k, "edge", eig, 3, seed=33)
        s = replace(s, levels=tuple(
            None if t is None else tuple(c * p**nu % p**k for c in t)
            for t in s.levels))
        assert check_distribution(s).ok
        assert gr.mu_invariant(lp(s, 3).value) == 2 * nu
