"""Internal identity checks raise InvariantViolation (they are explicit
raises, so they also fire under ``python -O``)."""

from dataclasses import replace

import pytest

from thetaforge import measures, padic, torus, tree
from thetaforge.errors import InvariantViolation
from thetaforge.hecke import EdgeForm, EigenData, hecke_U, local_eigen_extend, stabilize
from thetaforge.padic import PrecisionInt, hensel_unit_root


def test_neighbors_must_be_distinct(monkeypatch):
    # the closed form builds each neighbour with Vertex(p, a, b, u); make
    # every one of them the same vertex
    v = tree.origin(3)
    monkeypatch.setattr(tree, "Vertex", lambda p, a, b, u: v)
    with pytest.raises(InvariantViolation):
        tree.neighbors(v)


def test_hecke_u_needs_p_continuations(monkeypatch):
    # hecke reads adjacency from the ball, so the broken neighbors() must be
    # in place when the ball is built
    p, k = 3, 4
    real = tree.neighbors
    monkeypatch.setattr(tree, "neighbors", lambda v: real(v)[:-1])
    b = tree.ball(tree.origin(p), 2)
    form = EdgeForm(p, k, b, (1,) * (2 * b.size - 2))
    with pytest.raises(InvariantViolation):
        hecke_U(form)


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


def test_orbit_edges_must_be_ball_edges(monkeypatch):
    # from_tree reads the image of e_j as the ball edge into h v_j; give the
    # level-2 labels the wrong parents, so that edge does not start at the
    # parent label's image of v_1
    real = torus.orbit_table

    def rotated(t, j, mode="vertex"):
        tab = real(t, j, mode)
        if j != 2:
            return tab
        ups = sorted(set(tab.parents.values()))
        turn = dict(zip(ups, ups[1:] + ups[:1]))
        return replace(tab, parents={lbl: turn[up] for lbl, up in tab.parents.items()})

    monkeypatch.setattr(measures, "orbit_table", rotated)
    t = torus.QuadraticTorus(3, "inert", 2)
    eig = EigenData.ordinary(3, 6, 1)
    phi = stabilize(local_eigen_extend(3, 6, 1, 3, seed=1), eig)
    with pytest.raises(InvariantViolation, match="level-2 base edge"):
        measures.from_tree(phi, t, eig, 3)
