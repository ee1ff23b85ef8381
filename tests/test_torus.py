import random
from collections import Counter

import pytest

from thetaforge import torus as torus_mod
from thetaforge.errors import InvariantViolation
from thetaforge.torus import (
    QuadraticTorus,
    TorusElement,
    base_sequence,
    coset_decomposition,
    coset_labels,
    filtration_order,
    orbit_ids,
    orbit_table,
    _canonical_pair,
    _label_pow,
    _parent_positions,
    _step_of,
    _unit_inverses,
)
from thetaforge.tree import Vertex, distance, origin, sphere
from thetaforge.util import default_nonresidue, is_nonresidue
from torus_oracle import label_position, pow_coset_decomposition, pow_orbit_ids
from tree_oracle import act, normal_form_exact


def inert(p=3, d=2):
    return QuadraticTorus(p, "inert", d)


def apartment(p, r):
    """The classes of diag(p^m, 1), |m| <= r: the apartment of the split torus."""
    return [Vertex(p, m, 0, 0) for m in range(r, 0, -1)] + [Vertex(p, 0, m, 0) for m in range(r + 1)]


def apartment_distance(v):
    # the nearest apartment vertex is no farther from the origin than v
    return min(distance(v, w) for w in apartment(v.p, distance(origin(v.p), v)))


def random_element(torus, k, rng):
    while True:
        x, y = rng.randrange(torus.p**k), rng.randrange(torus.p**k)
        if x % torus.p or y % torus.p:
            return TorusElement(torus, k, x=x, y=y)


class TestTorusConstruction:
    def test_rejects_residue(self):
        with pytest.raises(ValueError):
            QuadraticTorus(5, "inert", 4)  # 4 = 2^2 is a square mod 5

    def test_rejects_p2_inert(self):
        with pytest.raises(ValueError):
            QuadraticTorus(2, "inert", 1)

    def test_split_carries_no_d(self):
        with pytest.raises(ValueError):
            QuadraticTorus(3, "split", 2)

    def test_inert_element_needs_positive_precision(self):
        # at k = 0 every pair is zero mod scalars, the identity included
        with pytest.raises(ValueError):
            TorusElement(inert(), 0, x=1, y=0)

    def test_split_torus_has_no_elements(self):
        with pytest.raises(ValueError):
            TorusElement(QuadraticTorus(3, "split"), 6, x=1, y=0)


class TestFixedPoint:
    def test_inert_d2_p5_fixes_origin(self):
        torus = QuadraticTorus(5, "inert", 2)
        verts, _ = base_sequence(torus, 1)
        assert verts[0] == origin(5)
        assert list(orbit_table(torus, 0).images.values()) == [origin(5)]
        rng = random.Random(5)
        for _ in range(20):
            assert act(random_element(torus, 4, rng), origin(5)) == origin(5)

    def test_inert_all_unit_samples_fix_origin(self):
        torus = inert()
        rng = random.Random(0)
        for _ in range(40):
            t = random_element(torus, 5, rng)
            assert act(t, origin(3)) == origin(3)

    def test_split_geodesic_through_standard_vertices(self):
        torus = QuadraticTorus(3, "split")
        window = apartment(3, 2)
        assert origin(3) in window
        assert Vertex(3, 0, 1, 0) in window
        verts, _ = base_sequence(torus, 2)
        assert verts[0] in window
        # diag(p, 1) translates the apartment one step along itself
        shifted = [normal_form_exact(3, 3 * 3**w.a, 0, 0, 3**w.b) for w in window]
        assert shifted == [Vertex(3, 3, 0, 0)] + window[:-1]

    def test_split_distance_to_geodesic(self):
        assert apartment_distance(origin(3)) == 0
        assert apartment_distance(Vertex(3, 1, 0, 1)) == 1
        assert apartment_distance(Vertex(3, 2, 0, 1)) == 2


class TestAction:
    def test_identity_acts_trivially(self):
        torus = inert()
        e = TorusElement(torus, 6, x=1, y=0)
        for v in sphere(origin(3), 2):
            assert act(e, v) == v

    def test_isometry_fixing_origin(self):
        torus = inert()
        rng = random.Random(1)
        for _ in range(25):
            t = random_element(torus, 7, rng)
            v = rng.choice(sphere(origin(3), 3))
            assert distance(origin(3), act(t, v)) == 3

    def test_composition_law(self):
        torus = inert()
        rng = random.Random(2)
        pts = sphere(origin(3), 2)
        for _ in range(100):
            s = random_element(torus, 8, rng)
            t = random_element(torus, 8, rng)
            v = rng.choice(pts)
            assert act(s * t, v) == act(s, act(t, v))


class TestFiltration:
    def test_values(self):
        torus = inert()
        assert filtration_order(torus, 0) == 1
        assert filtration_order(torus, 1) == 4
        assert filtration_order(torus, 3) == 36

    def test_split_rejected(self):
        with pytest.raises(ValueError):
            filtration_order(QuadraticTorus(3, "split"), 1)


class TestBaseSequence:
    def test_starts_at_fixed_point(self):
        torus = inert()
        verts, edges = base_sequence(torus, 3)
        assert verts[0] == origin(3)
        assert len(edges) == 3

    def test_consecutive_and_radial(self):
        torus = inert(5, 2)
        verts, edges = base_sequence(torus, 4)
        for j in range(1, 5):
            assert distance(verts[j - 1], verts[j]) == 1
            assert distance(verts[0], verts[j]) == j
            assert edges[j - 1].source == verts[j - 1]
            assert edges[j - 1].target == verts[j]

    def test_stabilizer_layers(self):
        # u = 1 + p*sqrt(d) lies one layer deep: it moves v_2 but fixes v_1
        torus = inert()
        verts, _ = base_sequence(torus, 2)
        u = TorusElement(torus, 6, x=1, y=3)
        assert act(u, verts[1]) == verts[1]
        assert act(u, verts[2]) != verts[2]
        deep = TorusElement(torus, 6, x=1, y=9)   # 1 + p^2 sqrt(d) fixes v_2
        assert act(deep, verts[2]) == verts[2]

    def test_edge_stabilizers_match_vertex_stabilizers(self):
        torus = inert()
        verts, edges = base_sequence(torus, 3)
        rng = random.Random(4)
        for _ in range(30):
            t = random_element(torus, 6, rng)
            for j in (1, 2):
                fixes_edge = act(t, edges[j - 1]) == edges[j - 1]
                fixes_target = act(t, verts[j]) == verts[j]
                assert fixes_edge == fixes_target

    def test_split_base_sequence(self):
        torus = QuadraticTorus(3, "split")
        verts, _ = base_sequence(torus, 3)
        for j, v in enumerate(verts):
            assert apartment_distance(v) == j


class TestOrbitTable:
    def test_level_zero(self):
        tab = orbit_table(inert(), 0)
        assert len(tab.labels) == 1
        assert list(tab.images.values()) == [origin(3)]

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 2)])
    def test_level_one_is_first_sphere(self, p, d):
        torus = QuadraticTorus(p, "inert", d)
        tab = orbit_table(torus, 1)
        assert len(tab.labels) == p + 1
        assert set(tab.images.values()) == set(sphere(origin(p), 1))

    @pytest.mark.parametrize("p,d,jmax", [(3, 2, 5), (5, 2, 5)])
    def test_simple_transitivity(self, p, d, jmax):
        torus = QuadraticTorus(p, "inert", d)
        for j in range(jmax + 1):
            tab = orbit_table(torus, j)
            assert len(tab.labels) == filtration_order(torus, j)
            assert len(set(tab.images.values())) == len(tab.labels)
            if j and (p, j) != (5, 5):   # image-set check, skipped where the
                assert set(tab.images.values()) == set(sphere(origin(p), j))
            else:                        # 3750-vertex sphere is slow to list
                assert all(distance(origin(p), w) == j for w in tab.images.values())

    def test_fiber_profile(self):
        torus = inert()
        for j in (1, 2, 3):
            tab = orbit_table(torus, j)
            sizes = Counter(tab.parents.values())
            expected = torus.p + 1 if j == 1 else torus.p
            assert set(sizes.values()) == {expected} or (j == 1 and set(sizes.values()) == {4})

    def test_edge_orbit(self):
        torus = inert()
        tab = orbit_table(torus, 2, mode="edge")
        assert len(tab.labels) == 12
        for lbl, e in tab.rows():
            assert distance(origin(3), e.source) == 1
            assert distance(origin(3), e.target) == 2

    def test_label_reduction_projects_orbits(self):
        torus = inert()
        tab2 = orbit_table(torus, 2)
        tab1 = orbit_table(torus, 1)
        for lbl in tab2.labels:
            par = tab2.parents[lbl]
            assert par in tab1.images
            # acting by the reduced label on the level-1 base point matches
            assert _canonical_pair(torus.p, 1, *lbl) == par


def split_parts(torus, j):
    """label -> (torsion index, free digit), read off the walk steps that
    coset_decomposition lists by label position."""
    q = torus.p ** max(j - 1, 0)
    return {lbl: divmod(s, q) for lbl, s in zip(coset_labels(torus, j),
                                                 coset_decomposition(torus, j))}


class TestLabelPositions:
    @pytest.mark.parametrize("p,j", [(p, j) for p in (3, 5, 7) for j in range(5)])
    def test_positions_and_parents_are_arithmetic(self, p, j):
        torus = QuadraticTorus(p, "inert", default_nonresidue(p))
        labels = coset_labels(torus, j)
        assert [label_position(p, j, *lbl) for lbl in labels] == list(range(len(labels)))
        if j:
            # _step_of reads a pair's step at its position, from any
            # representative of the class
            steps = coset_decomposition(torus, j)
            assert [_step_of(torus, j, steps, x, y) for x, y in labels] == steps
            assert [_step_of(torus, j, steps, 2 * x, 2 * y) for x, y in labels] == steps
            below = coset_labels(torus, j - 1)
            assert ([below[t] for t in _parent_positions(p, j)]
                    == [_canonical_pair(p, j - 1, x, y) for x, y in labels])
        else:
            assert _parent_positions(p, j) == []


class TestCosetDecomposition:
    @pytest.mark.parametrize("p,d,j", [(3, 2, 1), (3, 2, 3), (5, 2, 2)])
    def test_split_parts_are_bijective(self, p, d, j):
        torus = QuadraticTorus(p, "inert", d)
        dec = split_parts(torus, j)
        parts = {dec[lbl] for lbl in coset_labels(torus, j)}
        assert len(parts) == filtration_order(torus, j)
        assert parts == {(t, f) for t in range(p + 1) for f in range(p ** (j - 1))}

    def test_split_is_homomorphism(self):
        from thetaforge.torus import _label_mul

        torus = inert()
        j = 3
        dec = split_parts(torus, j)
        rng = random.Random(8)
        labels = coset_labels(torus, j)
        for _ in range(50):
            a, b = rng.choice(labels), rng.choice(labels)
            ta, fa = dec[a]
            tb, fb = dec[b]
            tc, fc = dec[_label_mul(torus, j, a, b)]
            assert tc == (ta + tb) % 4
            assert fc == (fa + fb) % 9

    @pytest.mark.parametrize("p,j", [(p, j) for p in (3, 5, 7) for j in range(6)]
                             + [(p, j) for p in (11, 13) for j in range(4)])
    def test_walk_matches_crt_power_split(self, p, j):
        torus = QuadraticTorus(p, "inert", default_nonresidue(p))
        assert split_parts(torus, j) == reference_parts(torus, j)

    @pytest.mark.parametrize("p,top", [(3, 6), (5, 4), (7, 4), (11, 3)])
    def test_reduction_keeps_torsion_index_and_free_digit(self, p, top):
        # tgen is the same pair (x : 1) at every level, so a label and its
        # parent one level down share the torsion index, and the label's
        # free digit mod p^(j-2) is the parent's free digit
        torus = QuadraticTorus(p, "inert", default_nonresidue(p))
        below = coset_decomposition(torus, 1)
        for j in range(2, top + 1):
            q, q_below = p ** (j - 1), p ** (j - 2)
            steps = coset_decomposition(torus, j)
            for s, t in zip(steps, _parent_positions(p, j)):
                assert s // q == below[t] // q_below
                assert s % q % q_below == below[t] % q_below
            below = steps

    def test_walk_must_cover_the_labels(self, monkeypatch):
        # an order check that passes every candidate makes the first label
        # (0 : 1), sqrt(d), give the torsion generator; its square is a
        # scalar, so it has order 2 instead of 4 and the walk repeats labels
        from thetaforge import torus as torus_mod

        monkeypatch.setattr(torus_mod, "_element_order", lambda torus, j, a, bound: bound - 1)
        with pytest.raises(InvariantViolation, match="exactly once"):
            coset_decomposition(inert(), 3)


def nonresidue_tori(p):
    """The inert torus for every non-residue d mod p, 0 < d < p."""
    return [QuadraticTorus(p, "inert", d) for d in range(1, p) if is_nonresidue(d, p)]


class TestUnitInverses:
    @pytest.mark.parametrize("p,top", [(3, 7), (5, 5), (7, 4), (11, 3), (13, 3)])
    def test_every_unit_against_pow(self, p, top):
        for j in range(1, top + 1):
            mod = p**j
            inv = _unit_inverses(p, j)
            assert len(inv) == mod
            assert all(inv[w] == (pow(w, -1, mod) if w % p else 0) for w in range(mod))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_entries_reduce_to_lower_levels(self, p):
        # the orbit blocks read w^(-1) mod p^i as inv[w] mod p^i
        j = 3
        inv = _unit_inverses(p, j)
        for i in range(1, j + 1):
            r = p**i
            assert all(inv[w] % r == pow(w, -1, r) for w in range(1, r) if w % p)

    def test_p2_is_refused(self):
        # (Z/2^j)^x is not cyclic for j >= 3
        for j in (1, 2, 3, 5):
            with pytest.raises(ValueError, match="odd p"):
                _unit_inverses(2, j)


class TestAgainstPowOracle:
    """The table-driven orbit ids and coset walk against the per-label pow
    versions and the CRT reference, at every non-residue d mod p."""

    @pytest.mark.parametrize("p,top", [(3, 6), (5, 4), (7, 3), (11, 3), (13, 2)])
    def test_orbit_ids_and_walk(self, p, top):
        for torus in nonresidue_tori(p):
            for j in range(top + 1):
                assert orbit_ids(torus, j) == pow_orbit_ids(torus, j), (torus.d, j)
                assert coset_decomposition(torus, j) == pow_coset_decomposition(torus, j), (
                    torus.d, j)

    @pytest.mark.parametrize("p,top", [(3, 5), (5, 4), (7, 3), (11, 2), (13, 2)])
    def test_walk_against_crt_reference(self, p, top):
        for torus in nonresidue_tori(p):
            for j in range(top + 1):
                assert split_parts(torus, j) == reference_parts(torus, j), (torus.d, j)

    def test_walk_and_blocks_take_no_inverse_per_label(self, monkeypatch):
        # only the tgen search and the torsion rows invert (O(p log p^j)
        # calls); the 2916 labels of p = 3, j = 7 take none
        calls = []

        def counting_pow(*args):
            if len(args) == 3 and args[1] == -1:
                calls.append(args)
            return pow(*args)

        monkeypatch.setattr(torus_mod, "pow", counting_pow, raising=False)
        torus = inert()
        orbit_ids(torus, 7)
        assert calls == []
        coset_decomposition(torus, 7)
        assert 0 < len(calls) < 100

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_shifted_table_is_caught(self, monkeypatch, shift):
        # the oracle comparisons see a table rotated by one entry
        real = torus_mod._unit_inverses

        def rotated(p, j):
            inv = real(p, j)
            return inv[shift:] + inv[:shift]

        torus = QuadraticTorus(5, "inert", 2)
        expected_ids = [pow_orbit_ids(torus, j) for j in range(1, 4)]
        expected_steps = [pow_coset_decomposition(torus, j) for j in range(1, 4)]
        monkeypatch.setattr(torus_mod, "_unit_inverses", rotated)
        assert [orbit_ids(torus, j) for j in range(1, 4)] != expected_ids
        try:
            steps = [coset_decomposition(torus, j) for j in range(1, 4)]
        except InvariantViolation:
            return
        assert steps != expected_steps


def reference_parts(torus, j):
    """The per-label split by CRT powers and brute-force orders: the torsion
    generator is the CRT torsion projection of the first label whose
    projection has order p + 1, the free generator is the CRT free
    projection of (1 : p), and each label's parts are the discrete logs of
    its two projections, read off the powers of the generators.  The free
    projection of (1 : p) is (1 : p) itself, which coset_decomposition
    takes without the power."""
    p = torus.p
    labels = coset_labels(torus, j)
    if j == 0:
        return {lbl: (0, 0) for lbl in labels}
    t_order, f_order = p + 1, p ** (j - 1)
    ident = _canonical_pair(p, j, 1, 0)

    def crt(keep, kill):
        # an exponent = 1 mod keep and = 0 mod kill, by search
        return next(e for e in range(keep * kill) if e % keep == 1 % keep and e % kill == 0)

    def order(a):
        return next(e for e in range(1, len(labels) + 1) if _label_pow(torus, j, a, e) == ident)

    alpha_t, alpha_f = crt(t_order, f_order), crt(f_order, t_order)
    tgen = next(x for x in (_label_pow(torus, j, lbl, alpha_t) for lbl in labels)
                if order(x) == t_order)
    fgen = _label_pow(torus, j, _canonical_pair(p, j, 1, p), alpha_f)
    assert fgen == _canonical_pair(p, j, 1, p)
    assert order(fgen) == f_order
    tlog = {_label_pow(torus, j, tgen, i): i for i in range(t_order)}
    flog = {_label_pow(torus, j, fgen, f): f for f in range(f_order)}
    return {lbl: (tlog[_label_pow(torus, j, lbl, alpha_t)],
                  flog[_label_pow(torus, j, lbl, alpha_f)]) for lbl in labels}
