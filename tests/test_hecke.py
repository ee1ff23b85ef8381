import random

import pytest

from thetaforge import serialize
from thetaforge.errors import EmptyDomain, MissingEigenvalue
from thetaforge.hecke import (
    EdgeForm,
    EigenData,
    VertexForm,
    hecke_T,
    hecke_U,
    local_eigen_extend,
    nu_invariant,
    scale_form,
    stabilize,
)
from thetaforge.padic import PrecisionInt
from thetaforge.tree import DirectedEdge, ball, distance, neighbors, origin, parent_ids
from form_oracle import source_form, target_form


def constant_vertex_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    return VertexForm(p, k, b, (c,) * b.size)


def constant_edge_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    return EdgeForm(p, k, b, (c,) * (2 * b.size - 2))


class TestEigenData:
    def test_relation_enforced(self):
        with pytest.raises(ValueError):
            EigenData(ap=PrecisionInt(3, 4, 1), alpha=PrecisionInt(3, 4, 2))

    def test_ordinary_constructor(self):
        e = EigenData.ordinary(3, 6, 1)
        al = e.alpha
        assert (al * al - e.ap * al + PrecisionInt(3, 6, 3)).is_zero()
        assert al.is_unit()

    def test_non_unit_alpha_allowed_when_consistent(self):
        # alpha = p pairs with a = p + 1: x^2 - (p+1)x + p = (x-1)(x-p)
        e = EigenData(ap=PrecisionInt(3, 6, 4), alpha=PrecisionInt(3, 6, 3))
        assert not e.alpha.is_unit()


class TestHeckeT:
    def test_constant_becomes_p_plus_one(self):
        f = constant_vertex_form(3, 5, 2)
        tf = hecke_T(f)
        assert all(v.residue == 4 for v in tf.tables[0].values())
        assert tf.domain.radius == 1

    def test_delta_becomes_sphere_indicator(self):
        p, k = 3, 5
        b = ball(origin(p), 2)
        values = tuple(1 if v == origin(p) else 0 for v in b.vertices())
        tf = hecke_T(VertexForm(p, k, b, values))
        for v, val in tf.tables[0].items():
            expected = 1 if v in b.spheres[1] else 0
            assert val.residue == expected

    def test_linearity(self):
        rng = random.Random(0)
        p, k = 3, 6
        b = ball(origin(p), 2)
        t1 = tuple(rng.randrange(3**6) for _ in range(b.size))
        t2 = tuple(rng.randrange(3**6) for _ in range(b.size))
        f1 = VertexForm(p, k, b, t1)
        f2 = VertexForm(p, k, b, t2)
        fsum = VertexForm(p, k, b, tuple((x + y) % 3**6 for x, y in zip(t1, t2)))
        (lhs,), (r1,), (r2,) = (hecke_T(g).tables for g in (fsum, f1, f2))
        for v in lhs:
            assert lhs[v] == r1[v] + r2[v]

    def test_radius_zero_rejected(self):
        with pytest.raises(EmptyDomain):
            hecke_T(constant_vertex_form(3, 4, 0))


class TestHeckeU:
    def test_constant_becomes_p(self):
        f = constant_edge_form(3, 5, 2)
        uf = hecke_U(f)
        assert all(v.residue == 3 for v in uf.tables[0].values())

    def test_non_backtracking_count(self):
        f = constant_edge_form(5, 4, 3)
        uf = hecke_U(f)
        assert all(v.residue == 5 for v in uf.tables[0].values())

    def test_linearity(self):
        rng = random.Random(13)
        p, k = 3, 6
        b = ball(origin(p), 2)
        n = 2 * b.size - 2
        t1 = tuple(rng.randrange(3**6) for _ in range(n))
        t2 = tuple(rng.randrange(3**6) for _ in range(n))
        fsum = EdgeForm(p, k, b, tuple((x + y) % 3**6 for x, y in zip(t1, t2)))
        (lhs,) = hecke_U(fsum).tables
        (r1,) = hecke_U(EdgeForm(p, k, b, t1)).tables
        (r2,) = hecke_U(EdgeForm(p, k, b, t2)).tables
        for e in lhs:
            assert lhs[e] == r1[e] + r2[e]

    def test_single_edge_support_transposes(self):
        # U f supported on the p predecessors of the supported edge
        p, k = 3, 5
        b = ball(origin(p), 2)
        edges = list(b.directed_edges())
        special = next(e for e in edges if e.source == origin(p))
        uf = hecke_U(EdgeForm(p, k, b, tuple(1 if e == special else 0 for e in edges)))
        support = 0
        for e, val in uf.tables[0].items():
            if val.residue:
                support += 1
                assert e.target == special.source
                assert e.source != special.target
        assert support == p


class TestStabilize:
    def test_missing_eigenvalue(self):
        f0 = constant_vertex_form(3, 4, 2)
        with pytest.raises(MissingEigenvalue):
            stabilize(f0, EigenData.supersingular(3, 4))

    def test_constant_degenerate_witness(self):
        # a_p = p+1 has unit root 1, so phi = (1 - alpha) * 1 = 0
        p, k = 3, 6
        f0 = constant_vertex_form(p, k, 2)
        eig = EigenData.ordinary(p, k, p + 1)
        assert eig.alpha.residue == 1
        phi = stabilize(f0, eig)
        assert all(v.residue == 0 for v in phi.tables[0].values())

    @pytest.mark.parametrize("p,ap,k,radius", [
        (3, 1, 6, 3), (3, 2, 8, 4), (5, 1, 6, 3), (5, 3, 8, 3),
    ])
    def test_full_relation_chain(self, p, ap, k, radius):
        for seed in range(3):
            f0 = local_eigen_extend(p, k, ap, radius, seed)
            phi_s, phi_t = source_form(f0), target_form(f0)
            (s,), (t,) = phi_s.tables, phi_t.tables
            # (r1): U phi_s = q phi_t
            (u_s,) = hecke_U(phi_s).tables
            for e in u_s:
                assert u_s[e] == t[e] * p
            # (r2): U phi_t = a phi_t - phi_s
            (u_t,) = hecke_U(phi_t).tables
            for e in u_t:
                expected = t[e] * ap - s[e]
                assert u_t[e] == expected
            # the stabilized form is a U-eigenvector with the unit root
            eig = EigenData.ordinary(p, k, ap)
            phi = stabilize(f0, eig)
            (u_phi,), (ph,) = hecke_U(phi).tables, phi.tables
            for e in u_phi:
                assert u_phi[e] == eig.alpha * ph[e]

    def test_alpha_squared_relation_drives_eigenvector(self):
        # alpha^2 = a alpha - q is what makes the chain close up
        eig = EigenData.ordinary(3, 8, 2)
        a, al, q = eig.ap, eig.alpha, PrecisionInt(3, 8, 3)
        assert (al * al) == a * al - q


class TestLocalEigenExtend:
    def test_radius_one_single_constraint(self):
        p, k, ap = 3, 5, 2
        f = local_eigen_extend(p, k, ap, 1, seed=0)
        (t,) = f.tables
        total = sum(t[w].residue for w in f.domain.spheres[1])
        assert total % 3**5 == ap * t[origin(p)].residue % 3**5

    def test_supersingular_extension(self):
        f0 = local_eigen_extend(3, 6, 0, 3, seed=2)
        tf = hecke_T(f0)
        assert all(v.residue == 0 for v in tf.tables[0].values())

    def test_seeds_differ_but_both_check(self):
        f1 = local_eigen_extend(3, 6, 1, 2, seed=0)
        f2 = local_eigen_extend(3, 6, 1, 2, seed=1)
        assert f1.tables != f2.tables
        for f in (f1, f2):
            (tf,), (t,) = hecke_T(f).tables, f.tables
            for v in tf:
                assert tf[v] == t[v] * 1


class TestNuInvariant:
    def test_constant_caps_at_k(self):
        assert nu_invariant(constant_vertex_form(3, 5, 1, c=7)) == 5

    def test_difference_of_p_squared(self):
        p, k = 3, 5
        b = ball(origin(p), 1)
        values = (9,) + (0,) * (b.size - 1)
        assert nu_invariant(VertexForm(p, k, b, values)) == 2

    def test_three_values_derived(self):
        # values {1, 1+p, 5} at p = 3: min of val(3), val(4), val(1) = 0
        p, k = 3, 5
        b = ball(origin(p), 1)
        assert nu_invariant(VertexForm(p, k, b, (1, 4, 5, 5, 5))) == 0

    def test_shift_invariance_and_scaling(self):
        rng = random.Random(4)
        p, k = 3, 6
        b = ball(origin(p), 1)
        values = tuple(rng.randrange(3**6) for _ in range(b.size))
        f = VertexForm(p, k, b, values)
        shifted = VertexForm(p, k, b, tuple((c + 17) % 3**6 for c in values))
        assert nu_invariant(shifted) == nu_invariant(f)
        assert nu_invariant(scale_form(f, p)) == min(k, nu_invariant(f) + 1)


# Reference operators that derive adjacency from neighbors() on every visit,
# independently of the tables the ball builds; results are residue dicts.


def random_form(cls, p, k, radius, seed):
    rng = random.Random(seed)
    b = ball(origin(p), radius)
    n = b.size if cls is VertexForm else 2 * b.size - 2
    return cls(p, k, b, tuple(rng.randrange(p**k) for _ in range(n)))


def without(f, point):
    """f with no value at one point of its ball."""
    i = list(f.points()).index(point)
    return type(f)(f.p, f.k, f.domain, f.values[:i] + (None,) + f.values[i + 1:])


def residues(f):
    return {w: c.residue for w, c in f.tables[0].items()}


def reference_T(f):
    mod, t = f.p**f.k, f.tables[0]
    inner = [v for v in t if distance(f.domain.center, v) < f.domain.radius]
    return {v: sum(t[w].residue for w in neighbors(v)) % mod for v in inner}


def reference_U(known, p, k):
    out = {}
    for e in known:
        conts = [DirectedEdge(e.target, w) for w in neighbors(e.target) if w != e.source]
        if all(c in known for c in conts):
            out[e] = sum(known[c] for c in conts) % p**k
    return out


def reference_stabilize(f0, alpha):
    """phi(v -> w) = f0(v) - alpha f0(w) on every adjacent pair inside the
    ball, the pairs found by neighbors() and distance()."""
    mod, t = f0.p**f0.k, f0.tables[0]
    center, radius = f0.domain.center, f0.domain.radius
    edges = [DirectedEdge(v, w) for v in t for w in neighbors(v)
             if distance(center, w) <= radius]
    return {e: (t[e.source].residue - alpha * t[e.target].residue) % mod for e in edges}


def reference_nu(f):
    """The minimum valuation of a difference of two values, over all pairs."""
    values = list(f.tables[0].values())
    return min((v - w).valuation() for v in values for w in values)


def reference_eigen_extend(p, k, ap, radius, seed):
    mod = p**k
    center = origin(p)
    rng = random.Random(seed * 1000003)
    vals = {center: rng.randrange(mod)}
    frontier = [(center, None)]
    for _ in range(radius):
        nxt = []
        for v, par in frontier:
            kids = [w for w in neighbors(v) if w != par]
            need = (ap * vals[v] - (vals[par] if par is not None else 0)) % mod
            for w in kids[:-1]:
                vals[w] = rng.randrange(mod)
                need = (need - vals[w]) % mod
            vals[kids[-1]] = need
            nxt.extend((w, v) for w in kids)
        frontier = nxt
    return vals


def draw_seed(base, draw):
    """The seed of the draw-th independent random table for a case."""
    return base + 100 * (draw - 1)


class TestAgainstNeighborsReference:
    # each case runs on two independent random tables (the draw axis)
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_hecke_T(self, p, radius, draw):
        f = random_form(VertexForm, p, 6, radius, seed=draw_seed(radius, draw))
        tf = hecke_T(f)
        assert residues(tf) == reference_T(f)
        # the shrunk domain is a fresh ball of the smaller radius
        fresh = ball(origin(p), radius - 1)
        assert tf.domain == fresh
        assert list(tf.domain.directed_edges()) == list(fresh.directed_edges())
        assert tf.domain.size == fresh.size
        assert all(tf.domain.ids[v] == i for i, v in enumerate(fresh.vertices()))
        # the edge (parent -> c), id 2c - 2, leaves the parent id of the rule
        parents = [tf.domain.ids[e.source] for e in tf.domain.edges[: 2 * fresh.size - 2 : 2]]
        assert parents == list(parent_ids(p, range(1, fresh.size)))
        assert tf.domain.ids == fresh.ids and tf.domain.edges == fresh.edges
        assert not any(v in tf.domain.ids for v in f.domain.spheres[radius])

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_hecke_U_and_U_squared(self, p, radius, draw):
        k = 6
        f = random_form(EdgeForm, p, k, radius, seed=draw_seed(radius, draw))
        uf = hecke_U(f)
        once = reference_U(residues(f), p, k)
        assert residues(uf) == once
        if radius >= 2:
            assert residues(hecke_U(uf)) == reference_U(once, p, k)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_local_eigen_extend(self, p, radius):
        f = local_eigen_extend(p, 7, 1, radius, seed=11)
        assert residues(f) == reference_eigen_extend(p, 7, 1, radius, 11)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_hecke_U_on_a_partial_domain(self, p, radius, draw):
        # without the value on one edge out of the center, the edges into the
        # center that continue along it are skipped
        k = 6
        f = random_form(EdgeForm, p, k, radius, seed=draw_seed(radius + 10, draw))
        center = f.domain.center
        f = without(f, DirectedEdge(center, neighbors(center)[0]))
        uf = hecke_U(f)
        once = reference_U(residues(f), p, k)
        assert residues(uf) == once
        skipped = [DirectedEdge(w, center) for w in neighbors(center)[1:]]
        assert skipped and not any(e in uf.tables[0] for e in skipped)
        # U on U's own partial domain; at radius 1 nothing is left to continue
        if radius == 1:
            with pytest.raises(EmptyDomain):
                hecke_U(uf)
        else:
            assert residues(hecke_U(uf)) == reference_U(once, p, k)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_stabilize(self, p, radius, draw):
        eig = EigenData.ordinary(p, 7, 1)
        f = random_form(VertexForm, p, 7, radius, seed=draw_seed(radius + 20, draw))
        assert residues(stabilize(f, eig)) == reference_stabilize(f, eig.alpha.residue)
        if radius >= 2:
            # on the shrunk ball that T leaves
            tf = hecke_T(f)
            assert residues(stabilize(tf, eig)) == reference_stabilize(tf, eig.alpha.residue)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_nu_invariant(self, p, draw):
        k = 6
        for c in range(k + 1):
            for seed in range(3 * (draw - 1), 3 * draw):
                f = random_form(VertexForm, p, k, 2, seed=seed)
                # values congruent to 5 mod p^c
                g = scale_form(f, p**c)
                g = VertexForm(p, k, g.domain, tuple((x + 5) % p**k for x in g.values))
                assert nu_invariant(g) == reference_nu(g)
                assert nu_invariant(f) == reference_nu(f)
                phi = stabilize(g, EigenData.ordinary(p, k, 1))
                assert nu_invariant(phi) == reference_nu(phi)
        # constant but for one value off by p^c, at each point
        b = ball(origin(p), 1)
        for c in range(k):
            for w in b.vertices():
                f = VertexForm(p, k, b, tuple(
                    (7 + (p**c if v == w else 0)) % p**k for v in b.vertices()))
                assert nu_invariant(f) == reference_nu(f) == c

    @pytest.mark.parametrize("p", [2, 3])
    def test_wrong_number_of_values_raises(self, p):
        # a form has one slot per vertex or edge id of its ball, so there is
        # no slot for a value outside it
        k = 6
        f = random_form(VertexForm, p, k, 2, seed=1)
        tf = hecke_T(random_form(VertexForm, p, k, 2, seed=2))
        g = random_form(EdgeForm, p, k, 2, seed=3)
        phi = stabilize(tf, EigenData.ordinary(p, k, 1))
        assert phi.domain.radius == 1
        for h in (f, tf, g, phi):
            for values in (h.values + (1,), h.values[:-1], ()):
                with pytest.raises(ValueError, match="values"):
                    type(h)(p, k, h.domain, values)
            with pytest.raises(ValueError, match="precision exponent must be >= 1"):
                type(h)(p, 0, h.domain, h.values)
        with pytest.raises(ValueError, match="precision exponent must be >= 1"):
            local_eigen_extend(p, 0, 1, 2, seed=1)

    def test_missing_vertex_value_raises(self):
        f = random_form(VertexForm, 3, 5, 2, seed=5)
        f = without(f, f.domain.center)
        with pytest.raises(KeyError):
            hecke_T(f)
        with pytest.raises(KeyError):
            stabilize(f, EigenData.ordinary(3, 5, 1))


def assert_view(f, expected):
    """f.tables is the 1-tuple of the dict of PrecisionInt(p, k, r) over the
    expected residues, keyed in the id order of f's ball, one key per slot
    with a value."""
    (table,) = f.tables
    single = {w: PrecisionInt(f.p, f.k, expected[w]) for w in f.points() if w in expected}
    assert len(single) == len(expected)
    assert table == single
    assert list(table) == list(single)
    assert len(table) == len(f.values) - f.values.count(None)
    # the stored residues are reduced, not only the view's values
    assert all(r is None or 0 <= r < f.p**f.k for r in f.values)
    for w, x in table.items():
        assert type(x) is PrecisionInt and (x.p, x.k) == (f.p, f.k)
        assert hash(x) == hash(single[w])


class TestTablesView:
    # bench/child.py reads forms through the tables view; each kernel's view
    # must equal the dict built from the reference residues
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_view_matches_the_references(self, p, radius, draw):
        k = 7
        eig = EigenData.ordinary(p, k, 1)
        f = random_form(VertexForm, p, k, radius, seed=draw_seed(radius + 30, draw))
        tf = hecke_T(f)
        assert_view(tf, reference_T(f))
        phi = stabilize(f, eig)
        assert_view(phi, reference_stabilize(f, eig.alpha.residue))
        g = random_form(EdgeForm, p, k, radius, seed=draw_seed(radius + 40, draw))
        ug = hecke_U(g)
        assert_view(ug, reference_U(residues(g), p, k))
        center = g.domain.center
        partial = without(g, DirectedEdge(center, neighbors(center)[0]))
        up = hecke_U(partial)
        assert_view(up, reference_U(residues(partial), p, k))
        extended = local_eigen_extend(p, k, 1, radius, seed=draw)
        assert_view(extended, reference_eigen_extend(p, k, 1, radius, draw))
        for h in (f, tf, phi, ug, up, extended):
            back = serialize.form_from_json(serialize.form_to_json(h))
            assert back == h
            assert_view(back, residues(h))
        for h in (f, phi, g, up):
            for factor in (0, 1, -1, p, p**k + 2, -(p ** (2 * k)) - 3):
                scaled = scale_form(h, factor)
                assert type(scaled) is type(h) and scaled.domain is h.domain
                assert_view(scaled, {w: x.residue * factor for w, x in h.tables[0].items()})

    @pytest.mark.parametrize("form_type", [VertexForm, EdgeForm])
    def test_forms_and_view_stay_frozen(self, form_type):
        f = random_form(form_type, 3, 4, 2, seed=9)
        before = residues(f)
        with pytest.raises(AttributeError):
            f.values = f.values[::-1]
        with pytest.raises(TypeError):
            f.values[0] = 1
        (table,) = f.tables
        w = next(iter(table))
        with pytest.raises(AttributeError):
            table[w].residue = 1
        # the view is built anew on each read, so editing one read leaves f as it was
        table.clear()
        assert residues(f) == before
        assert len(f.tables[0]) == len(f.values)
