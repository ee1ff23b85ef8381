import random
from dataclasses import replace

import pytest

from thetaforge import tree
from thetaforge.errors import PrecisionExhausted
from thetaforge.padic import PrecisionInt
from thetaforge.tree import (
    DirectedEdge,
    Vertex,
    ball,
    ball_size,
    child_bounds,
    child_sums,
    digit_reversals,
    distance,
    geodesic_path,
    neighbors,
    origin,
    origin_id_offset,
    parent_ids,
    parent_values,
    sphere,
    to_dot,
)
from thetaforge.util import val_p
from tree_oracle import (
    basis_matrix,
    normal_form,
    normal_form_exact,
    reference_ball,
    reference_neighbors,
)


def mat(p, k, entries):
    return [[PrecisionInt(p, k, entries[0]), PrecisionInt(p, k, entries[1])],
            [PrecisionInt(p, k, entries[2]), PrecisionInt(p, k, entries[3])]]


def format_base(u, p, n):
    """The n base-p digits of u, most significant first."""
    return "".join(str(u // p**i % p) for i in reversed(range(n)))


def all_vertices_at_distance(p, r):
    """Oracle: enumerate normal forms (a, b, u) directly; distance to the
    origin of a normalized vertex is a + b."""
    out = []
    for a in range(r + 1):
        b = r - a
        for u in range(p**a):
            vu = val_p(u, p)
            floor = min(a, b) if vu is None else min(a, b, vu)
            if floor == 0:
                out.append(Vertex(p, a, b, u))
    return out


class TestNormalForm:
    def test_identity_and_scalar(self):
        p, k = 3, 6
        assert normal_form(mat(p, k, (1, 0, 0, 1))) == origin(p)
        assert normal_form(mat(p, k, (3, 0, 0, 3))) == origin(p)

    def test_column_swap_derived(self):
        p, k = 3, 6
        assert normal_form(mat(p, k, (0, 1, p, 0))) == Vertex(p, 0, 1, 0)

    def test_idempotent(self):
        p, k = 5, 8
        v = Vertex(p, 2, 0, 7)
        m00, m01, m10, m11 = basis_matrix(v)
        assert normal_form(mat(p, k, (m00, m01, m10, m11))) == v

    def test_unimodular_invariance(self):
        rng = random.Random(11)
        p, k = 3, 9
        for _ in range(150):
            a = rng.randrange(3)
            b = rng.randrange(3)
            u = rng.randrange(p**a)
            try:
                v = Vertex(p, a, b, u)
            except ValueError:
                continue
            e = [list(basis_matrix(v)[:2]), list(basis_matrix(v)[2:])]
            for _ in range(5):
                x = rng.randrange(-4, 5)
                if rng.random() < 0.5:
                    e[0][0] += x * e[0][1]
                    e[1][0] += x * e[1][1]
                else:
                    e[0][1] += x * e[0][0]
                    e[1][1] += x * e[1][0]
            if rng.random() < 0.5:  # swap columns (determinant sign flips)
                e[0].reverse()
                e[1].reverse()
            got = normal_form(mat(p, k, (e[0][0], e[0][1], e[1][0], e[1][1])))
            assert got == v

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            normal_form(mat(3, 2, (9, 0, 0, 9)))

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            Vertex(3, 1, 1, 0)      # not scalar-normalized
        with pytest.raises(ValueError):
            Vertex(3, 1, 0, 5)      # u out of range


class TestNeighbors:
    def test_p2_exhaustive_derived(self):
        got = set(neighbors(origin(2)))
        assert got == {Vertex(2, 1, 0, 0), Vertex(2, 1, 0, 1), Vertex(2, 0, 1, 0)}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_count_and_distance(self, p):
        v0 = origin(p)
        nb = neighbors(v0)
        assert len(nb) == p + 1
        assert len(set(nb)) == p + 1
        assert all(distance(v0, w) == 1 for w in nb)

    def test_no_loops(self):
        for v in sphere(origin(3), 2):
            assert v not in neighbors(v)

    def test_representative_independent(self):
        # neighbors(normal_form(M)) do not depend on the representative M
        p, k = 3, 8
        v = Vertex(p, 1, 0, 2)
        twisted = mat(p, k, (5, 2, 1, 1))  # column 0 replaced by col0 + col1
        assert normal_form(twisted) == v
        assert set(neighbors(normal_form(twisted))) == set(neighbors(v))

    def test_symmetry(self):
        v = Vertex(3, 2, 0, 5)
        for w in neighbors(v):
            assert v in neighbors(w)


class TestDistance:
    def test_trivial_and_derived(self):
        v0 = origin(3)
        assert distance(v0, v0) == 0
        assert distance(v0, Vertex(3, 0, 2, 0)) == 2

    def test_symmetric(self):
        rng = random.Random(5)
        verts = sphere(origin(3), 3) + sphere(origin(3), 1)
        for _ in range(50):
            v, w = rng.choice(verts), rng.choice(verts)
            assert distance(v, w) == distance(w, v)

    def test_tree_axiom_unique_descending_neighbor(self):
        rng = random.Random(6)
        verts = [origin(3)] + sphere(origin(3), 2) + sphere(origin(3), 3)
        for _ in range(40):
            v, w = rng.choice(verts), rng.choice(verts)
            if v == w:
                continue
            d = distance(v, w)
            down = [x for x in neighbors(v) if distance(x, w) == d - 1]
            assert len(down) == 1

    def test_triangle_inequality(self):
        verts = sphere(origin(5), 2)
        rng = random.Random(9)
        for _ in range(30):
            a, b, c = rng.choice(verts), rng.choice(verts), rng.choice(verts)
            assert distance(a, c) <= distance(a, b) + distance(b, c)


class TestSphere:
    @pytest.mark.parametrize("p,r,count", [(3, 1, 4), (3, 3, 36), (2, 2, 6)])
    def test_counts(self, p, r, count):
        assert len(sphere(origin(p), r)) == count

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_exhaustive_enumeration(self, p):
        for r in (1, 2, 3):
            assert set(sphere(origin(p), r)) == set(all_vertices_at_distance(p, r))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_formula_to_depth_six(self, p):
        for r in range(1, 7):
            assert len(sphere(origin(p), r)) == (p + 1) * p ** (r - 1)

    def test_off_center(self):
        c = Vertex(3, 2, 0, 1)
        assert len(sphere(c, 2)) == 12
        assert all(distance(c, w) == 2 for w in sphere(c, 2))


class TestGeodesic:
    def test_trivial(self):
        v = origin(3)
        assert geodesic_path(v, v) == [v]

    def test_derived_straight_line(self):
        path = geodesic_path(origin(3), Vertex(3, 0, 2, 0))
        assert path == [origin(3), Vertex(3, 0, 1, 0), Vertex(3, 0, 2, 0)]

    def test_length_and_adjacency(self):
        rng = random.Random(2)
        verts = sphere(origin(3), 3)
        for _ in range(15):
            v, w = rng.choice(verts), rng.choice(verts)
            path = geodesic_path(v, w)
            assert len(path) == distance(v, w) + 1
            for x, y in zip(path, path[1:]):
                assert distance(x, y) == 1


class TestEdgesAndBall:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            DirectedEdge(origin(3), Vertex(3, 0, 2, 0))

    def test_ball_structure(self):
        b = ball(origin(3), 3)
        assert [len(s) for s in b.spheres] == [1, 4, 12, 36]
        assert len(list(b.directed_edges())) == 2 * (4 + 12 + 36)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(5))
    def test_index_matches_neighbors(self, p, radius):
        # each vertex's parent, children and edge records against neighbors()
        # and distance() alone
        for center in (origin(p), Vertex(p, 1, 1, 1)):
            b = ball(center, radius)
            verts = list(b.vertices())
            for j, s in enumerate(b.spheres):
                assert all(distance(center, v) == j for v in s)
            inner = b.size - len(b.spheres[-1])     # ids off the boundary sphere
            cs = child_bounds(p, inner)
            # the children of the inner ids are every id past the center
            assert cs[-1] == b.size
            parent = [None, *parent_ids(p, range(1, b.size))]
            for v in verts:
                i = b.ids[v]
                par = verts[parent[i]] if i else None
                assert (par is None) == (v == center)
                if par is not None:
                    assert par in neighbors(v) and distance(center, par) == distance(center, v) - 1
                kid_ids = range(cs[i], cs[i + 1]) if i < inner else range(0)
                kids = [verts[c] for c in kid_ids]
                if i < inner:
                    assert kids == [w for w in neighbors(v) if w != par]
                    assert len(kids) + (par is not None) == p + 1
                # the edges leaving v: to each child, then to the parent
                out = [b.edges[2 * c - 2] for c in kid_ids] + ([b.edges[2 * i - 1]] if i else [])
                assert all(e.source is v for e in out)
                assert [e.target for e in out] == kids + ([] if par is None else [par])
            assert sphere(center, radius + 1)[0] not in b.ids
            # directed_edges() yields the edges of the rule, also once shrunk,
            # as a fresh ball of that radius does
            shrunk = replace(b, radius=radius - 1) if radius else b
            for c in (b, shrunk):
                inside = []
                for v in verts[1:c.size]:
                    par = verts[parent[b.ids[v]]]
                    inside += [DirectedEdge(par, v), DirectedEdge(v, par)]
                yielded = list(c.directed_edges())
                assert yielded == inside
                assert len(yielded) == 2 * (len(list(c.vertices())) - 1)
                assert yielded == list(ball(center, c.radius).directed_edges())

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(5))
    def test_ids_match_neighbors_and_distance(self, p, radius):
        # the id rule against neighbors() and distance() alone: ids run in
        # sphere order, each child's parent id is the neighbor one step
        # nearer, the children of a vertex are the contiguous ids of its other
        # neighbors, and child c owns edges 2(c-1) = (parent -> c), 2c-1 = (c -> parent)
        for center in (origin(p), Vertex(p, 1, 1, 1)):
            full = ball(center, radius)
            shrunk = replace(full, radius=radius - 1)
            for b in (full, shrunk) if radius else (full,):
                verts = list(b.vertices())
                assert b.size == len(verts) == len(set(verts))
                assert [len(s) for s in b.spheres] == [
                    1 if j == 0 else (p + 1) * p ** (j - 1) for j in range(b.radius + 1)]
                assert [distance(center, v) for v in verts] == sorted(
                    distance(center, v) for v in verts)
                cs = child_bounds(p, b.size - len(b.spheres[-1]))
                parent = [None, *parent_ids(p, range(1, b.size))]
                for i, v in enumerate(verts):
                    d = distance(center, v)
                    assert b.ids[v] == i and v in b.spheres[d]
                    near = [w for w in neighbors(v) if distance(center, w) < d]
                    if i == 0:
                        assert near == []
                    else:
                        assert [verts[parent[i]]] == near
                    if d < b.radius:
                        kids = [w for w in neighbors(v) if distance(center, w) > d]
                        assert verts[cs[i]:cs[i + 1]] == kids
                        assert all(parent[c] == i for c in range(cs[i], cs[i + 1]))
                expected = []
                for c in range(1, b.size):
                    par = verts[parent[c]]
                    expected += [(par, verts[c]), (verts[c], par)]
                edges = list(b.directed_edges())
                assert [(e.source, e.target) for e in edges] == expected
                fresh = ball(center, b.radius)
                assert edges == list(fresh.edges) and b.ids == fresh.ids
                # the vertices of the full ball beyond the radius have ids of
                # their own, at or past size, and none in the smaller ball
                beyond = [v for v in full.vertices() if distance(center, v) > b.radius]
                assert all(full.ids[v] >= b.size for v in beyond)
                assert not any(v in b.ids for v in beyond)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(5))
    def test_ball_edges_are_lattice_neighbors(self, p, radius):
        # ball() checks one direction of each tree edge and builds both from
        # that check; every edge, either way, must join lattice neighbours by
        # the oracle's normal form, with no call to distance()
        for center in (origin(p), Vertex(p, 1, 1, 1)):
            b = ball(center, radius)
            oracle = {v: reference_neighbors(v) for v in b.vertices()}
            edges = list(b.directed_edges())
            assert len(edges) == 2 * (b.size - 1) == len(set(edges))
            for e in edges:
                assert e.target in oracle[e.source] and e.source in oracle[e.target]
                # equal to, and hashing as, the edge built on its own
                single = DirectedEdge(e.source, e.target)
                assert e == single and hash(e) == hash(single)
            for there, back in zip(edges[0::2], edges[1::2]):
                assert (back.source, back.target) == (there.target, there.source)

    def test_ball_refuses_a_non_adjacent_neighbor(self, monkeypatch):
        # a neighbors() that hands back a vertex two steps away must make the
        # ball's edge objects raise, when first requested, at their one
        # adjacency check per edge
        real = tree.neighbors

        def two_steps_out(v):
            out = real(v)
            far = next(w for w in real(out[0]) if w != v)
            return [far] + out[1:]

        monkeypatch.setattr(tree, "neighbors", two_steps_out)
        assert distance(origin(3), two_steps_out(origin(3))[0]) == 2
        b = ball(origin(3), 1)
        with pytest.raises(ValueError, match="adjacent"):
            list(b.directed_edges())

    @pytest.mark.parametrize("p,radius", [(p, r) for p in (2, 3, 5, 7)
                                          for r in range(7 if p < 5 else 5)])
    def test_layout_and_views_match_the_eager_walk(self, p, radius):
        # the id rule and the views built on request against the eager walk,
        # for the ball and for every shrunk copy of it
        rng = random.Random(radius)
        for center in (origin(p), Vertex(p, 1, 1, 1)):
            ref = reference_ball(center, radius)
            b = ball(center, radius)
            n, inner = len(ref.ids), len(ref.ids) - len(ref.spheres[-1])
            assert list(parent_ids(p, range(1, n))) == list(ref.parents[1:])
            # the boundary sphere has no children, so the rule stops at inner
            assert child_bounds(p, inner) == list(ref.child_start[: inner + 1])
            assert ref.child_start[inner:] == (n,) * (n - inner + 1)
            xs = [rng.randrange(p**6) for _ in range(n)]
            assert parent_values(p, xs, n) == [xs[q] for q in ref.parents[1:]]
            if inner:
                assert child_sums(p, xs, inner) == [
                    sum(xs[ref.child_start[i] : ref.child_start[i + 1]]) for i in range(inner)]
            assert b.size == ball_size(p, radius) == n
            assert b.spheres == ref.spheres
            assert list(b.ids.items()) == list(ref.ids.items())
            assert b.edges == ref.edges
            assert list(b.directed_edges()) == list(ref.edges)
            assert list(b.vertices()) == list(ref.ids)
            for r in range(radius):
                shrunk = replace(b, radius=r)
                assert shrunk == ball(center, r) and shrunk.size == ball_size(p, r)
                m = shrunk.size
                assert parent_values(p, range(m), m) == list(ref.parents[1:m])
                assert shrunk.spheres == ref.spheres[: r + 1]
                fresh = ball(center, r)
                assert shrunk.ids == fresh.ids and shrunk.edges == fresh.edges
                assert list(shrunk.directed_edges()) == list(ref.edges[: 2 * shrunk.size - 2])

    def test_ball_builds_no_tree_objects(self, monkeypatch):
        # ball() calls no neighbors(); the views call it on first request
        # only, once per ball, and a shrunk copy walks only its own radius
        calls = []
        real = tree.neighbors

        def counted(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(tree, "neighbors", counted)
        b = ball(origin(3), 3)
        shrunk = replace(b, radius=1)
        assert (b.size, shrunk.size) == (53, 5)
        assert calls == []
        assert shrunk.spheres == (
            (origin(3),), (Vertex(3, 1, 0, 0), Vertex(3, 1, 0, 1), Vertex(3, 1, 0, 2),
                           Vertex(3, 0, 1, 0)))
        # each walk went to the radius of its ball, its inner spheres once
        assert len(calls) == 1
        inner = b.size - len(b.spheres[3])
        assert len(calls) == 1 + inner == 18
        walked = len(calls)
        assert b.edges[:8] == shrunk.edges and list(b.vertices())[:5] == list(shrunk.vertices())
        assert len(calls) == walked
        assert shrunk.edges == ball(origin(3), 1).edges

    def test_vertex_views_build_no_edge(self, monkeypatch):
        # sphere(), vertices(), spheres and ids read the vertex list alone;
        # only the edge views construct DirectedEdge objects
        built = []
        real = tree.DirectedEdge

        def counted(s, t):
            built.append((s, t))
            return real(s, t)

        monkeypatch.setattr(tree, "DirectedEdge", counted)
        assert len(sphere(origin(3), 4)) == 108
        b = ball(Vertex(3, 1, 1, 1), 3)
        assert len(list(b.vertices())) == len(b.ids) == sum(map(len, b.spheres)) == 53
        assert built == []
        assert len(list(b.directed_edges())) == len(built) == 104

    @pytest.mark.parametrize("p,radius", [(2, 5), (3, 4), (5, 3)])
    def test_shrunk_copies_describe_their_own_ball(self, p, radius):
        # a copy made by dataclasses.replace lists exactly its own vertices
        # and edges, whatever the ball it came from had built
        for center in (origin(p), Vertex(p, 1, 1, 1)):
            b = ball(center, radius)
            assert len(b.ids) == b.size and len(b.edges) == 2 * b.size - 2
            for r in range(radius + 1):
                shrunk = replace(b, radius=r)
                assert len(shrunk.ids) == shrunk.size == ball_size(p, r)
                assert len(shrunk.edges) == 2 * shrunk.size - 2
                assert len(list(shrunk.directed_edges())) == 2 * shrunk.size - 2
                assert all(distance(center, v) <= r for v in shrunk.ids)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_origin_ids_in_closed_form(self, p):
        # the id of (a, b, u) around the origin is an offset plus the digit
        # reversal of u, as the eager walk numbers it
        radius = 6 if p < 5 else 4
        ref = reference_ball(origin(p), radius)
        revs = [digit_reversals(p, a) for a in range(radius + 1)]
        assert [origin_id_offset(p, v.a, v.b) + revs[v.a][v.u] for v in ref.ids] == list(
            range(len(ref.ids)))

    def test_digit_reversals(self):
        assert digit_reversals(3, 0) == [0]
        assert digit_reversals(2, 3) == [0, 4, 2, 6, 1, 5, 3, 7]
        rev = digit_reversals(5, 4)
        assert all(rev[u] == int(format_base(u, 5, 4)[::-1], 5) for u in range(5**4))

    def test_dot_output(self):
        text = to_dot(origin(2), 1)
        assert text.startswith("graph")
        assert text.count("--") == 3

    def test_exact_normal_form_negative_entries(self):
        # span{(1,0), (-1,3)} = span{(1,0), (0,3)}
        v = normal_form_exact(3, 1, -1, 0, 3)
        assert v == Vertex(3, 0, 1, 0)

    def test_vertex_json(self):
        v = Vertex(5, 2, 0, 13)
        assert Vertex.from_json(5, v.to_json()) == v
