import random

import pytest

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
from thetaforge.tree import DirectedEdge, Vertex, ball, distance, neighbors, origin, sphere
from form_oracle import source_form, target_form


def constant_vertex_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    table = {v: PrecisionInt(p, k, c) for v in b.vertices()}
    return VertexForm(p, k, b, (table,))


def constant_edge_form(p, k, radius, c=1):
    b = ball(origin(p), radius)
    table = {e: PrecisionInt(p, k, c) for e in b.directed_edges()}
    return EdgeForm(p, k, b, (table,))


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
        table = {v: PrecisionInt(p, k, 1 if v == origin(p) else 0) for v in b.vertices()}
        tf = hecke_T(VertexForm(p, k, b, (table,)))
        for v, val in tf.tables[0].items():
            expected = 1 if v in b.spheres[1] else 0
            assert val.residue == expected

    def test_linearity(self):
        rng = random.Random(0)
        p, k = 3, 6
        b = ball(origin(p), 2)
        t1 = {v: PrecisionInt(p, k, rng.randrange(3**6)) for v in b.vertices()}
        t2 = {v: PrecisionInt(p, k, rng.randrange(3**6)) for v in b.vertices()}
        f1 = VertexForm(p, k, b, (t1,))
        f2 = VertexForm(p, k, b, (t2,))
        fsum = VertexForm(p, k, b, ({v: t1[v] + t2[v] for v in t1},))
        lhs = hecke_T(fsum)
        r1, r2 = hecke_T(f1), hecke_T(f2)
        for v in lhs.tables[0]:
            assert lhs.tables[0][v] == r1.tables[0][v] + r2.tables[0][v]

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
        edges = list(b.directed_edges())
        t1 = {e: PrecisionInt(p, k, rng.randrange(3**6)) for e in edges}
        t2 = {e: PrecisionInt(p, k, rng.randrange(3**6)) for e in edges}
        fsum = EdgeForm(p, k, b, ({e: t1[e] + t2[e] for e in edges},))
        lhs = hecke_U(fsum)
        r1 = hecke_U(EdgeForm(p, k, b, (t1,)))
        r2 = hecke_U(EdgeForm(p, k, b, (t2,)))
        for e in lhs.tables[0]:
            assert lhs.tables[0][e] == r1.tables[0][e] + r2.tables[0][e]

    def test_single_edge_support_transposes(self):
        # U f supported on the p predecessors of the supported edge
        p, k = 3, 5
        b = ball(origin(p), 2)
        edges = list(b.directed_edges())
        special = next(e for e in edges if e.source == origin(p))
        table = {e: PrecisionInt(p, k, 1 if e == special else 0) for e in edges}
        uf = hecke_U(EdgeForm(p, k, b, (table,)))
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
            # (r1): U phi_s = q phi_t
            u_s = hecke_U(phi_s)
            for e in u_s.tables[0]:
                assert u_s.tables[0][e] == phi_t.tables[0][e] * p
            # (r2): U phi_t = a phi_t - phi_s
            u_t = hecke_U(phi_t)
            for e in u_t.tables[0]:
                expected = phi_t.tables[0][e] * ap - phi_s.tables[0][e]
                assert u_t.tables[0][e] == expected
            # the stabilized form is a U-eigenvector with the unit root
            eig = EigenData.ordinary(p, k, ap)
            phi = stabilize(f0, eig)
            u_phi = hecke_U(phi)
            for e in u_phi.tables[0]:
                assert u_phi.tables[0][e] == eig.alpha * phi.tables[0][e]

    def test_alpha_squared_relation_drives_eigenvector(self):
        # alpha^2 = a alpha - q is what makes the chain close up
        eig = EigenData.ordinary(3, 8, 2)
        a, al, q = eig.ap, eig.alpha, PrecisionInt(3, 8, 3)
        assert (al * al) == a * al - q


class TestLocalEigenExtend:
    def test_radius_one_single_constraint(self):
        p, k, ap = 3, 5, 2
        f = local_eigen_extend(p, k, ap, 1, seed=0)
        total = sum(f.tables[0][w].residue for w in f.domain.spheres[1])
        assert total % 3**5 == ap * f.tables[0][origin(p)].residue % 3**5

    def test_supersingular_extension(self):
        f0 = local_eigen_extend(3, 6, 0, 3, seed=2)
        tf = hecke_T(f0)
        assert all(v.residue == 0 for v in tf.tables[0].values())

    def test_seeds_differ_but_both_check(self):
        f1 = local_eigen_extend(3, 6, 1, 2, seed=0)
        f2 = local_eigen_extend(3, 6, 1, 2, seed=1)
        assert f1.tables != f2.tables
        for f in (f1, f2):
            tf = hecke_T(f)
            for v in tf.tables[0]:
                assert tf.tables[0][v] == f.tables[0][v] * 1


class TestNuInvariant:
    def test_constant_caps_at_k(self):
        assert nu_invariant(constant_vertex_form(3, 5, 1, c=7)) == 5

    def test_difference_of_p_squared(self):
        p, k = 3, 5
        b = ball(origin(p), 1)
        verts = list(b.vertices())
        table = {v: PrecisionInt(p, k, 9 if v == verts[0] else 0) for v in verts}
        assert nu_invariant(VertexForm(p, k, b, (table,))) == 2

    def test_three_values_derived(self):
        # values {1, 1+p, 5} at p = 3: min of val(3), val(4), val(1) = 0
        p, k = 3, 5
        b = ball(origin(p), 1)
        verts = list(b.vertices())
        vals = [1, 4, 5, 5, 5]
        table = {v: PrecisionInt(p, k, vals[i]) for i, v in enumerate(verts)}
        assert nu_invariant(VertexForm(p, k, b, (table,))) == 0

    def test_shift_invariance_and_scaling(self):
        rng = random.Random(4)
        p, k = 3, 6
        b = ball(origin(p), 1)
        table = {v: PrecisionInt(p, k, rng.randrange(3**6)) for v in b.vertices()}
        f = VertexForm(p, k, b, (table,))
        shifted = VertexForm(p, k, b, ({v: c + PrecisionInt(p, k, 17) for v, c in table.items()},))
        assert nu_invariant(shifted) == nu_invariant(f)
        assert nu_invariant(scale_form(f, p)) == min(k, nu_invariant(f) + 1)


# Reference operators that derive adjacency from neighbors() on every visit,
# independently of the tables the ball builds; results are residue dicts.


def random_form(cls, p, k, radius, seed):
    rng = random.Random(seed)
    b = ball(origin(p), radius)
    keys = list(b.vertices()) if cls is VertexForm else list(b.directed_edges())
    return cls(p, k, b, ({w: PrecisionInt(p, k, rng.randrange(p**k)) for w in keys},))


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
        # the shrunk domain shares the tables of f's ball but reads as a fresh ball
        fresh = ball(origin(p), radius - 1)
        assert tf.domain == fresh
        assert list(tf.domain.directed_edges()) == list(fresh.directed_edges())
        assert tf.domain.size == fresh.size
        assert all(tf.domain.ids[v] == i for i, v in enumerate(fresh.vertices()))
        assert tf.domain.parents[: fresh.size] == fresh.parents
        # child ranges agree off the boundary sphere, which has none in fresh
        inner = fresh.size - len(fresh.spheres[-1])
        assert tf.domain.child_start[: inner + 1] == fresh.child_start[: inner + 1]
        assert all(tf.domain.ids[v] >= tf.domain.size for v in f.domain.spheres[radius])

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
        del f.tables[0][DirectedEdge(center, neighbors(center)[0])]
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
                g = VertexForm(p, k, g.domain, (
                    {v: x + PrecisionInt(p, k, 5) for v, x in g.tables[0].items()},))
                assert nu_invariant(g) == reference_nu(g)
                assert nu_invariant(f) == reference_nu(f)
                phi = stabilize(g, EigenData.ordinary(p, k, 1))
                assert nu_invariant(phi) == reference_nu(phi)
        # constant but for one value off by p^c, at each point
        b = ball(origin(p), 1)
        for c in range(k):
            for w in b.vertices():
                f = VertexForm(p, k, b, (
                    {v: PrecisionInt(p, k, 7 + (p**c if v == w else 0)) for v in b.vertices()},))
                assert nu_invariant(f) == reference_nu(f) == c

    @pytest.mark.parametrize("p", [2, 3])
    def test_entry_outside_the_ball_raises(self, p):
        k = 6
        f = random_form(VertexForm, p, k, 2, seed=1)
        far = sphere(origin(p), 3)[0]
        f.tables[0][far] = PrecisionInt(p, k, 1)
        with pytest.raises(KeyError):
            hecke_T(f)
        with pytest.raises(KeyError):
            stabilize(f, EigenData.ordinary(p, k, 1))
        # a vertex of the full ball beyond the radius T shrank it to
        tf = hecke_T(random_form(VertexForm, p, k, 2, seed=2))
        tf.tables[0][Vertex(p, 0, 2, 0)] = PrecisionInt(p, k, 1)
        with pytest.raises(KeyError):
            hecke_T(tf)
        with pytest.raises(KeyError):
            stabilize(tf, EigenData.ordinary(p, k, 1))
        g = random_form(EdgeForm, p, k, 2, seed=3)
        g.tables[0][DirectedEdge(far, neighbors(far)[0])] = PrecisionInt(p, k, 1)
        with pytest.raises(KeyError):
            hecke_U(g)
        # an edge out of the boundary sphere leaves the ball too
        rim = f.domain.spheres[2][0]
        outward = next(w for w in neighbors(rim) if distance(origin(p), w) == 3)
        g = random_form(EdgeForm, p, k, 2, seed=4)
        g.tables[0][DirectedEdge(rim, outward)] = PrecisionInt(p, k, 1)
        with pytest.raises(KeyError):
            hecke_U(g)
        # and on the shrunk ball of a form T left, an edge of the full ball
        # beyond the radius
        inner = hecke_T(random_form(VertexForm, p, k, 2, seed=5))
        phi = stabilize(inner, EigenData.ordinary(p, k, 1))
        assert phi.domain.radius == 1
        inward = next(w for w in neighbors(rim) if distance(origin(p), w) == 1)
        phi.tables[0][DirectedEdge(rim, inward)] = PrecisionInt(p, k, 1)
        with pytest.raises(KeyError):
            hecke_U(phi)

    def test_missing_vertex_value_raises(self):
        f = random_form(VertexForm, 3, 5, 2, seed=5)
        del f.tables[0][f.domain.center]
        with pytest.raises(KeyError):
            hecke_T(f)


def assert_table_of_single_values(f, expected):
    """f's table is, value by value, the dict of PrecisionInt(p, k, r) over
    the expected residues: equal, hashing alike, reduced, of f's (p, k)."""
    (table,) = f.tables
    single = {w: PrecisionInt(f.p, f.k, r) for w, r in expected.items()}
    assert table == single
    assert list(table) == list(single)
    for w, x in table.items():
        assert type(x) is PrecisionInt and (x.p, x.k) == (f.p, f.k)
        assert 0 <= x.residue < f.p**f.k
        assert hash(x) == hash(single[w])


class TestBulkTables:
    # the kernels build their tables with PrecisionInt.table; each must equal
    # the table built one PrecisionInt at a time from the reference residues
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_kernel_tables_match_single_values(self, p, radius, draw):
        k = 7
        eig = EigenData.ordinary(p, k, 1)
        f = random_form(VertexForm, p, k, radius, seed=draw_seed(radius + 30, draw))
        assert_table_of_single_values(hecke_T(f), reference_T(f))
        phi = stabilize(f, eig)
        want = reference_stabilize(f, eig.alpha.residue)
        assert_table_of_single_values(phi, {e: want[e] for e in phi.tables[0]})
        g = random_form(EdgeForm, p, k, radius, seed=draw_seed(radius + 40, draw))
        ug = hecke_U(g)
        want = reference_U(residues(g), p, k)
        assert_table_of_single_values(ug, {e: want[e] for e in ug.tables[0]})
        extended = local_eigen_extend(p, k, 1, radius, seed=draw)
        want = reference_eigen_extend(p, k, 1, radius, draw)
        assert_table_of_single_values(extended, {v: want[v] for v in extended.tables[0]})
        for h in (f, phi, g):
            for factor in (0, 1, -1, p, p**k + 2, -(p ** (2 * k)) - 3):
                scaled = scale_form(h, factor)
                assert type(scaled) is type(h) and scaled.domain is h.domain
                assert_table_of_single_values(
                    scaled, {w: x.residue * factor for w, x in h.tables[0].items()})
