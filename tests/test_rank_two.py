"""Known answers at rank delta = 2, from outer products of rank-1 elements.

For x, y in (Z/p^k)[Z/p^n] the outer product x (x) y in (Z/p^k)[(Z/p^n)^2]
has coefficient x_s * y_t at the element with digits (s, t).  Taking x and y
to be ordinary theta elements of two genuine tree towers, these identities
hold without trusting any rank-2 convention of the code:

- mu(x (x) y) = min(mu(x) + mu(y), k);
- (x (x) y)* = x* (x) y*, so the L-element theta * theta* of x (x) y is
  L(x) (x) L(y), and more generally (x (x) y)(x' (x) y') = xx' (x) yy';
- the product character rho_1 (x) rho_2 specializes x (x) y to
  rho_1(x) * rho_2(y).
"""

from functools import lru_cache

import pytest

from thetaforge.characters import FiniteOrderCharacter, specialize
from thetaforge.groupring import GroupRingElement, mu_invariant, star
from thetaforge.hecke import local_eigen_extend, stabilize
from thetaforge.measures import from_tree, theta_ordinary
from thetaforge.padic import EigenData
from thetaforge.torus import QuadraticTorus

K = 8
# (p, tower depth): the theta layers are N = 27 and N = 25, so the outer
# products live at N = 729 and N = 625
TOWERS = [(3, 4), (5, 3)]
SEEDS = (5, 11)


def outer(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(x.p, x.k, x.n, 2, tuple(a * b for a in x.coeffs for b in y.coeffs))


@lru_cache(maxsize=None)
def genuine_theta(p: int, depth: int, seed: int) -> GroupRingElement:
    eig = EigenData.ordinary(p, K, 1)
    f0 = local_eigen_extend(p, K, 1, depth, seed=seed)
    system = from_tree(stabilize(f0, eig), QuadraticTorus(p, "inert", 2), eig, depth)
    return theta_ordinary(system, depth).value


def thetas(p, depth):
    x, y = (genuine_theta(p, depth, seed) for seed in SEEDS)
    assert x != y and not x.is_zero() and not y.is_zero()
    return x, y


def l_element(z: GroupRingElement) -> GroupRingElement:
    return z * star(z)


@pytest.mark.parametrize("p,depth", TOWERS)
def test_mu_of_outer_product_adds(p, depth):
    x, y = thetas(p, depth)
    for a, b in ((0, 0), (1, 2), (0, K - 1), (3, K - 2), (K, 0)):
        xa, yb = x * p**a, y * p**b
        assert mu_invariant(outer(xa, yb)) == min(mu_invariant(xa) + mu_invariant(yb), K)


@pytest.mark.parametrize("p,depth", TOWERS)
def test_involution_and_l_element_factor(p, depth):
    x, y = thetas(p, depth)
    xy = outer(x, y)
    assert star(xy) == outer(star(x), star(y))
    assert l_element(xy) == outer(l_element(x), l_element(y))
    assert xy * outer(y, x) == outer(x * y, y * x)


@pytest.mark.parametrize("p,depth", TOWERS)
def test_product_character_specializes_to_the_product(p, depth):
    x, y = thetas(p, depth)
    xy = outer(x, y)
    for m in range(x.n + 1):
        for e1, e2 in ((0, 0), (1, 0), (1, p - 1), (p, 1), (2, p + 1)):
            rho = FiniteOrderCharacter(p, m, 2, (e1, e2))
            rho1 = FiniteOrderCharacter(p, m, 1, (e1,))
            rho2 = FiniteOrderCharacter(p, m, 1, (e2,))
            assert specialize(xy, rho) == specialize(x, rho1) * specialize(y, rho2)
