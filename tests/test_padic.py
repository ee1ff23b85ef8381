import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    ONE,
    T,
    binomial_minus_one,
    poly_add,
    poly_eval,
    poly_mul,
    poly_pow,
    reference_cyclotomic_sigma,
    reference_omega_pm,
    reference_omega_tilde,
    reference_zeta_power,
)
from thetaforge.errors import NotOrdinary
from thetaforge.groupring import omega_pm_poly, omega_tilde_poly
from thetaforge.padic import (
    CyclotomicValue,
    PrecisionInt,
    cyclotomic_sigma,
    hensel_unit_root,
)


def P(p, k, r):
    return PrecisionInt(p, k, r)


class TestPrecisionInt:
    def test_reduction_into_range(self):
        assert P(3, 2, 11).residue == 2
        assert P(3, 2, -1).residue == 8

    def test_zero_precision_is_refused(self):
        with pytest.raises(ValueError, match="precision exponent must be >= 1"):
            P(3, 0, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_reduction_at_the_edges_of_the_range(self, p, k):
        mod = p**k
        rng = random.Random(p * 100 + k)
        residues = [0, 1, -1, mod - 1, mod, mod + 1, -mod, -mod - 1, 7 * mod + 3,
                    -(mod**2) + 5]
        residues += [rng.randrange(-3 * mod, 3 * mod) for _ in range(30)]
        for r in residues:
            x = P(p, k, r)
            assert (x.p, x.k, x.residue) == (p, k, r % mod)
            assert 0 <= x.residue < mod
            # every representative of the class is the same value
            for other in (r + mod, r - 5 * mod, r % mod):
                y = P(p, k, other)
                assert x == y and y == x
                assert hash(x) == hash(y)
        # the values work as dict keys and set members interchangeably
        assert {P(p, k, r) for r in residues} == {P(p, k, r % mod) for r in residues}

    def test_values_stay_frozen(self):
        x = P(3, 2, 4)
        with pytest.raises(AttributeError):
            x.residue = 5
        assert x.residue == 4

    def test_valuation_semantics(self):
        assert P(3, 4, 18).valuation() == 2
        assert P(3, 4, 0).valuation() == 4  # zero to precision, never infinity
        assert P(3, 4, 81).valuation() == 4

    def test_unit_inverse(self):
        x = P(5, 3, 7)
        assert (x * x.inverse()).residue == 1
        with pytest.raises(ValueError):
            P(5, 3, 10).inverse()

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6),
           st.integers(-(10**6), 10**6))
    @settings(max_examples=60)
    def test_ring_homomorphism_from_integers(self, a, b, c):
        # reduce(f(exact)) == f(reduce(exact)) for f(a,b,c) = a*b + c^2 - a
        p, k = 3, 5
        exact = a * b + c * c - a
        reduced = P(p, k, a) * P(p, k, b) + P(p, k, c) * P(p, k, c) - P(p, k, a)
        assert reduced.residue == exact % p**k

    def test_json_roundtrip(self):
        x = P(7, 4, 123)
        assert PrecisionInt.from_json(x.to_json()) == x

    @pytest.mark.parametrize("p", [1, 4, 9, 0, -3])
    def test_json_refuses_a_non_prime(self, p):
        with pytest.raises(ValueError, match="not prime"):
            PrecisionInt.from_json({"p": p, "k": 4, "residue": "5"})


class TestHenselUnitRoot:
    def test_derived_example_p5(self):
        # oracle: brute force over residues mod 25 on the unit branch
        sols = [x for x in range(25) if (x * x - x + 5) % 25 == 0 and x % 5]
        assert sols == [21]
        assert hensel_unit_root(P(5, 2, 1), 5, 2).residue == 21

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_trivial_mod_p(self, p):
        # mod p the polynomial is x^2 - x, so the unit root is a itself
        a = P(p, 1, 1)
        assert hensel_unit_root(a, p, 1).residue == 1

    def test_rejects_non_unit(self):
        with pytest.raises(NotOrdinary):
            hensel_unit_root(P(3, 2, 3), 3, 2)

    def test_rejects_unit_q(self):
        with pytest.raises(ValueError):
            hensel_unit_root(P(3, 2, 1), 2, 2)

    @pytest.mark.parametrize("p,a,q,k", [(3, 1, 3, 8), (3, 2, 3, 6), (5, 4, 5, 7), (7, 3, 7, 5)])
    def test_root_and_precision_stability(self, p, a, q, k):
        root = hensel_unit_root(P(p, k, a), q, k)
        assert (root.residue**2 - a * root.residue + q) % p**k == 0
        assert root.residue % p != 0
        for k2 in range(1, k):
            lower = hensel_unit_root(P(p, k2, a), q, k2)
            assert lower.residue == root.residue % p**k2


class TestCyclotomicSigma:
    def test_frozen_small_cases(self):
        assert cyclotomic_sigma(3, 1) == (3, 3, 1)
        assert cyclotomic_sigma(2, 1) == (2, 1)
        assert cyclotomic_sigma(2, 2) == (2, 2, 1)

    def test_exact_division_oracle(self):
        # Sigma_{p^j}(T+1) == ((T+1)^(p^j) - 1) / ((T+1)^(p^(j-1)) - 1)
        for p in (2, 3, 5):
            for j in (1, 2, 3):
                den = binomial_minus_one(p ** (j - 1))
                assert poly_mul(den, cyclotomic_sigma(p, j)) == binomial_minus_one(p**j)

    # p = 3 at n = 5, 6: products whose coefficients run to hundreds of bits,
    # where the packed product's slot width matters
    @pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3, 4) for p in (2, 3, 5, 7)]
                             + [(5, 3), (6, 3)])
    def test_product_identity(self, p, n):
        # corrected identity: (T+1)^(p^n) - 1 = T * prod Sigma_{p^j}(T+1),
        # and each factor and product equals its schoolbook construction
        for j in range(1, n + 1):
            assert cyclotomic_sigma(p, j) == reference_cyclotomic_sigma(p, j)
        for eps in (1, -1):
            assert omega_tilde_poly(p, n, eps) == reference_omega_tilde(p, n, eps)
            assert omega_pm_poly(p, n, eps) == reference_omega_pm(p, n, eps)
            prod = poly_mul(omega_pm_poly(p, n, eps), omega_tilde_poly(p, n, -eps))
            assert prod == binomial_minus_one(p**n)

    def test_degree(self):
        assert len(cyclotomic_sigma(5, 3)) - 1 == 25 * 4


class TestOraclePolynomials:
    @given(st.lists(st.integers(-50, 50), max_size=6),
           st.lists(st.integers(-50, 50), max_size=6),
           st.integers(-9, 9))
    @settings(max_examples=60)
    def test_mul_matches_evaluation(self, a, b, x):
        fa, fb = tuple(a), tuple(b)
        assert poly_eval(poly_mul(fa, fb), x) == poly_eval(fa, x) * poly_eval(fb, x)
        assert poly_eval(poly_add(fa, fb), x) == poly_eval(fa, x) + poly_eval(fb, x)

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 25])
    def test_oracle_binomial_matches_power(self, size):
        assert binomial_minus_one(size) == poly_add(poly_pow(poly_add(T, ONE), size),
                                                    (-1,))


class TestCyclotomicValue:
    def test_zeta_has_valuation_one_unit(self):
        z = reference_zeta_power(3, 4, 1, 1)
        one = CyclotomicValue(3, 4, 1, (1, 0))
        pi = z - one
        assert pi.valuation_units() == 1  # zeta - 1 is a uniformizer
        assert z.valuation_units() == 0

    def test_p_has_valuation_e(self):
        val = CyclotomicValue(3, 4, 2, (3, 0, 0, 0, 0, 0)).valuation_units()
        assert val == 6  # e = phi(9) = 6

    def test_zero_reports_cap(self):
        z = CyclotomicValue(3, 4, 1, (0, 0))
        assert z.valuation_units() == 2 * 4

    def test_root_of_unity_relation(self):
        # 1 + zeta + zeta^2 = 0 for the cube root of unity
        p, k = 3, 5
        acc = CyclotomicValue(p, k, 1, (0, 0))
        for e in range(3):
            acc = acc + reference_zeta_power(p, k, 1, e)
        assert acc.is_zero()

    def test_product_valuation_additive(self):
        rng = random.Random(3)
        for _ in range(40):
            a = CyclotomicValue(3, 5, 1, (rng.randrange(243), rng.randrange(243)))
            b = CyclotomicValue(3, 5, 1, (rng.randrange(243), rng.randrange(243)))
            va, vb, vab = a.valuation_units(), b.valuation_units(), (a * b).valuation_units()
            assert vab == min(va + vb, 2 * 5)

    def test_degenerate_level_zero(self):
        x = CyclotomicValue(5, 3, 0, (50,))
        assert x.ramification == 1
        assert x.valuation_units() == 2

    def test_json_roundtrip(self):
        # values leave the package through the specialize artifact and are
        # never read back, so the writer's format is what is pinned
        x = CyclotomicValue(3, 4, 2, range(6))
        assert x.to_json() == {"p": 3, "k": 4, "m": 2,
                               "coefficients": ["0", "1", "2", "3", "4", "5"]}
