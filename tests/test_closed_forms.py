"""The closed-form neighbours, distance and orbit images against the
lattice-reduction oracle in tree_oracle.py, and the cached hashes of tree
objects against the hash of their field tuple."""

import random

import pytest

from thetaforge import torus as torus_mod
from thetaforge.errors import PrecisionExhausted
from thetaforge.hecke import hecke_T, local_eigen_extend, stabilize
from thetaforge.measures import from_tree
from thetaforge.padic import EigenData
from thetaforge.torus import (
    QuadraticTorus,
    TorusElement,
    _canonical_pair,
    _label_mul,
    base_sequence,
    orbit_ids,
    orbit_table,
)
from thetaforge.tree import DirectedEdge, Vertex, ball, distance, neighbors, origin
from thetaforge.util import default_nonresidue
from tree_oracle import (
    reference_distance,
    reference_neighbors,
    reference_orbit_images,
    reference_shifted_levels,
)


def inert(p):
    return QuadraticTorus(p, "inert", default_nonresidue(p))


def off_centre(p):
    """Vertices far from the origin: a = 0 < b, b = 0 < a, and a, b > 0."""
    rng = random.Random(p)
    out = [Vertex(p, 0, 1, 0), Vertex(p, 0, 7, 0), Vertex(p, 6, 0, rng.randrange(p**6))]
    for a, b in ((1, 1), (1, 5), (4, 1), (3, 6)):
        u = rng.randrange(p**a)
        if u % p == 0:
            u += 1
        out.append(Vertex(p, a, b, u))
    return out


class TestNeighbors:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_normal_form_oracle(self, p):
        verts = list(ball(origin(p), 4).vertices()) + off_centre(p)
        assert any(v.a == 0 < v.b for v in verts) and any(v.a and v.b for v in verts)
        for v in verts:
            # same vertices in the same order: the ball's sphere order rests on it
            assert neighbors(v) == reference_neighbors(v)

    @pytest.mark.parametrize("p", [2, 3])
    def test_off_centre_ball_matches_oracle(self, p):
        for v in ball(Vertex(p, 2, 3, 1), 3).vertices():
            assert neighbors(v) == reference_neighbors(v)


class TestDistance:
    @pytest.mark.parametrize("p", [2, 3])
    def test_every_pair_in_a_radius_three_ball(self, p):
        for center in (origin(p), Vertex(p, 1, 2, 1)):
            verts = list(ball(center, 3).vertices())
            for v in verts:
                for w in verts:
                    assert distance(v, w) == reference_distance(v, w)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_far_apart_vertices(self, p):
        verts = off_centre(p)
        for v in verts:
            for w in verts:
                assert distance(v, w) == reference_distance(v, w)


class TestOrbitImages:
    @pytest.mark.parametrize("p,jmax", [(3, 5), (5, 5), (7, 3), (11, 3)])
    def test_closed_form_matches_act(self, p, jmax):
        torus = inert(p)
        for j in range(jmax + 1):
            for mode in ("vertex", "edge") if j else ("vertex",):
                tab = orbit_table(torus, j, mode)
                assert tab.images == reference_orbit_images(torus, j, mode)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_orbit_ids_are_the_ball_ids_of_the_images(self, p):
        # the closed-form ids against the ball's own vertex -> id view of
        # every orbit image, and the closed-form parent labels against
        # canonical pairs; at p = 11 a radius-6 ball would have 2.1 million
        # vertices, so the depth there is that of the brute-force image test
        torus, depth = inert(p), 6 if p < 11 else 3
        b = ball(origin(p), depth)
        for j in range(depth + 1):
            tab = orbit_table(torus, j)
            assert orbit_ids(torus, j) == [b.ids[tab.images[lbl]] for lbl in tab.labels]
            assert tab.parents == {lbl: _canonical_pair(p, j - 1, *lbl)
                                   for lbl in tab.labels if j}

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("p,n_max", [(3, 6), (5, 5), (7, 4)])
    def test_from_tree_reads_the_images(self, mode, p, n_max):
        # every level of from_tree, with and without a shift, against the
        # form's value at the ball id of the orbit image of the label (times
        # the shift), looked up through orbit_table and the ball's ids
        k, torus = 7, inert(p)
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, n_max, seed=p + n_max)
        form = f0 if mode == "vertex" else stabilize(f0, eig)
        b = form.domain
        for shift in (None, TorusElement(torus, k, x=2, y=1), TorusElement(torus, k, x=1, y=p)):
            s = from_tree(form, torus, eig, n_max, shift=shift)
            for j in range(mode == "edge", n_max + 1):
                tab = orbit_table(torus, j)
                want = {}
                for x, y in tab.labels:
                    at = (x, y) if shift is None else _label_mul(
                        torus, j, (x, y), _canonical_pair(p, j, shift.x, shift.y))
                    c = b.ids[tab.images[at]]
                    want[f"{x}:{y}"] = form.values[c if mode == "vertex" else 2 * c - 2]
                assert dict(zip(s.labels(j), s.levels[j])) == want

    def test_non_standard_base_is_refused(self):
        with pytest.raises(ValueError):
            orbit_table(inert(3), 2, "vertex", base=Vertex(3, 1, 1, 1))

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_shifted_tower_matches_act(self, mode, p):
        k, n_max = 7, 4 if p == 3 else 3
        torus = inert(p)
        eig = EigenData.ordinary(p, k, 1)
        f0 = local_eigen_extend(p, k, 1, n_max, seed=p)
        form = f0 if mode == "vertex" else stabilize(f0, eig)
        for x, y in ((1, p), (2, 1), (0, 1), (1, 0), (p + 1, 7 * p)):
            shift = TorusElement(torus, k, x=x, y=y)
            s = from_tree(form, torus, eig, n_max, shift=shift)
            got = [None if t is None else dict(zip(s.labels(j), t)) for j, t in enumerate(s.levels)]
            assert got == reference_shifted_levels(form, torus, n_max, shift)


    def test_standard_base_and_shift_do_not_call_act(self):
        torus, k, n_max = inert(3), 6, 4
        verts, edges = base_sequence(torus, n_max)
        for j in range(1, n_max + 1):
            orbit_table(torus, j, "edge", base=edges[j - 1])
            orbit_table(torus, j, "vertex", base=verts[j])
        eig = EigenData.ordinary(3, k, 1)
        phi = stabilize(local_eigen_extend(3, k, 1, n_max, seed=1), eig)
        from_tree(phi, torus, eig, n_max, shift=TorusElement(torus, k, x=2, y=1))
        assert not hasattr(torus_mod, "act")

    def test_shift_must_be_known_to_the_depth(self):
        torus, k = inert(3), 6
        eig = EigenData.ordinary(3, k, 1)
        phi = stabilize(local_eigen_extend(3, k, 1, 4, seed=1), eig)
        with pytest.raises(PrecisionExhausted):
            from_tree(phi, torus, eig, 4, shift=TorusElement(torus, 3, x=2, y=1))
        with pytest.raises(ValueError):
            from_tree(phi, torus, eig, 4, shift=TorusElement(inert(5), k, x=2, y=1))


class TestCachedHashes:
    def test_vertex_hash_is_the_field_tuple_hash(self):
        for v in list(ball(origin(3), 3).vertices()) + off_centre(5):
            assert hash(v) == hash((v.p, v.a, v.b, v.u))

    def test_edge_hash_is_the_endpoint_tuple_hash(self):
        for e in ball(origin(2), 3).directed_edges():
            assert hash(e) == hash((e.source, e.target))

    def test_one_vertex_by_three_routes(self):
        # Vertex(3, 2, 0, 7): from JSON, as a neighbour of Vertex(3, 1, 0, 1),
        # and as the image of v_2 under the label (x : 1) with 2 x^(-1) = 7 mod 9
        p, d = 3, 2
        from_json = Vertex.from_json(p, {"a": 2, "b": 0, "u": "7"})
        as_neighbor = next(w for w in neighbors(Vertex(p, 1, 0, 1)) if w == from_json)
        x = d * pow(7, -1, 9) % 9
        as_image = orbit_table(QuadraticTorus(p, "inert", d), 2).images[(x, 1)]
        routes = (from_json, as_neighbor, as_image)
        assert len({id(v) for v in routes}) == 3
        assert len({hash(v) for v in routes}) == 1
        table = {from_json: "found"}
        assert all(table[v] == "found" for v in routes)
        edges = {DirectedEdge(origin(p), Vertex(p, 1, 0, 1)): "edge"}
        assert edges[DirectedEdge.from_json(p, {"source": {"a": 0, "b": 0, "u": "0"},
                                                "target": {"a": 1, "b": 0, "u": "1"}})] == "edge"

    def test_ball_edges_are_built_once(self):
        b = ball(origin(3), 4)
        first, second = list(b.directed_edges()), list(b.directed_edges())
        assert all(e is f for e, f in zip(first, second))
        assert len(first) == 2 * (4 + 12 + 36 + 108)
        form = local_eigen_extend(3, 6, 1, 4, seed=2)
        inner = list(hecke_T(form).domain.directed_edges())
        assert len(inner) == 2 * (4 + 12 + 36)
        assert inner == list(ball(origin(3), 3).directed_edges())
