"""Internal identity checks raise InvariantViolation (they are explicit
raises, so they also fire under ``python -O``)."""

import pytest

from thetaforge import padic, torus, tree
from thetaforge.errors import InvariantViolation
from thetaforge.hecke import EdgeForm, hecke_U
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
    form = EdgeForm(p, k, 1, b, ({e: PrecisionInt(p, k, 1) for e in b.directed_edges()},))
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
