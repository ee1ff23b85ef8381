"""Internal identity checks raise InvariantViolation or, for the torus
orbits, TransitivityViolation (they are explicit raises, so they also fire
under ``python -O``)."""

import pytest

from thetaforge import measures, padic, torus, tree
from thetaforge.errors import InvariantViolation, TransitivityViolation
from thetaforge.hecke import local_eigen_extend, stabilize
from thetaforge.padic import EigenData, PrecisionInt, hensel_unit_root
from thetaforge.util import default_nonresidue


def test_neighbors_must_be_distinct(monkeypatch):
    # the closed form builds each neighbour with Vertex(p, a, b, u); make
    # every one of them the same vertex
    v = tree.origin(3)
    monkeypatch.setattr(tree, "Vertex", lambda p, a, b, u: v)
    with pytest.raises(InvariantViolation):
        tree.neighbors(v)


def test_ball_objects_need_p_plus_one_neighbors(monkeypatch):
    # the ids are arithmetic, so a broken neighbors() shows when the ball's
    # tree objects are built on request: the walk finds one child fewer or
    # one more than child_bounds gives
    real = tree.neighbors
    extra = tree.Vertex(3, 0, 2, 0)         # two steps from the origin
    for broken in (lambda v: real(v)[:-1], lambda v: real(v) + [extra]):
        monkeypatch.setattr(tree, "neighbors", broken)
        b = tree.ball(tree.origin(3), 2)
        for view in (lambda: b.ids, lambda: list(b.vertices()), lambda: b.spheres,
                     lambda: b.edges, lambda: list(b.directed_edges())):
            with pytest.raises(InvariantViolation, match="neighbors off its parent"):
                view()


def test_hensel_root_is_verified(monkeypatch):
    # a Newton step that never moves leaves a non-root behind
    monkeypatch.setattr(padic, "pow", lambda *args: 0, raising=False)
    with pytest.raises(InvariantViolation):
        hensel_unit_root(PrecisionInt(3, 6, 2), 3, 6)


def test_coset_group_structure_is_verified(monkeypatch):
    t = torus.QuadraticTorus(3, "inert", 2)
    monkeypatch.setattr(torus, "_element_order", lambda *args: 0)
    with pytest.raises(InvariantViolation):
        torus.coset_decomposition(t, 2)


@pytest.mark.parametrize("p,level,depth", [(3, 2, 3), (3, 6, 6), (5, 4, 4)])
def test_orbit_images_must_be_distinct(monkeypatch, p, level, depth):
    # orbit_table and from_tree both read the images off torus._orbit_blocks;
    # send the level labels (1 : 0) and (1 : p) to the same vertex, below the
    # top level of from_tree's tower or at it, where a byte per ball id is
    # what catches the repeat
    k = 8
    t = torus.QuadraticTorus(p, "inert", default_nonresidue(p))
    eig = EigenData.ordinary(p, k, 1)
    f0 = local_eigen_extend(p, k, 1, depth, seed=1)
    phi = stabilize(f0, eig)
    real = torus._orbit_blocks

    def repeated(p, d, j, inv):
        for a, b, us, at in real(p, d, j, inv):
            if j == level and at.start == p**j:
                us = [us[0]] + us[:-1]
            yield a, b, us, at

    monkeypatch.setattr(torus, "_orbit_blocks", repeated)
    with pytest.raises(TransitivityViolation, match=f"level {level}"):
        torus.orbit_table(t, level)
    for form in (f0, phi):
        with pytest.raises(TransitivityViolation,
                           match=f"two level-{level} cosets agree on the base point"):
            measures.from_tree(form, t, eig, depth)


def test_orbit_edges_must_be_ball_edges(monkeypatch):
    # from_tree reads the image of e_j as the ball edge into h v_j; hand the
    # level-2 labels the ids of their neighbours in label order, so that edge
    # does not start at the parent label's image of v_1
    real = torus._orbit_ids

    def rotated(t, j, inv):
        ids = real(t, j, inv)
        return ids if j != 2 else ids[1:] + ids[:1]

    monkeypatch.setattr(torus, "_orbit_ids", rotated)
    t = torus.QuadraticTorus(3, "inert", 2)
    eig = EigenData.ordinary(3, 6, 1)
    phi = stabilize(local_eigen_extend(3, 6, 1, 3, seed=1), eig)
    with pytest.raises(InvariantViolation, match="level-2 base edge"):
        measures.from_tree(phi, t, eig, 3)
