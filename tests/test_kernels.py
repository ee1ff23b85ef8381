"""The three `padic` polynomial kernels against the quadratic loops they
replaced (`tests/kernel_oracle.py`): cyclotomic products, reductions and
valuations, the exact integer product, the image of an integer polynomial
in a layer ring, and the Howard witness remainder."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    binomial_minus_one,
    poly_mul,
    reference_mul,
    reference_poly_remainder_mod,
    reference_reduce_cyclotomic,
    reference_reduce_poly,
    reference_valuation_units,
    reference_zeta_power,
)
from thetaforge.characters import _poly_remainder_mod
from thetaforge.groupring import omega_pm_poly, reduce_poly
from thetaforge.padic import (
    CyclotomicValue, IntPolynomial, _packed_product, _reduce_cyclotomic, euler_phi_p_power,
)

PRIMES = (2, 3, 5, 7)
# every conductor p^m <= 2187, m = 0 included
CONDUCTORS = [(p, m) for p in PRIMES for m in range(12) if p**m <= 2187]


def _elements(p, k, m, rng):
    """The zero element, the all-(p^k - 1) element and a random one."""
    phi, mod = euler_phi_p_power(p, m), p**k
    return [CyclotomicValue(p, k, m, coeffs) for coeffs in (
        (0,) * phi, (mod - 1,) * phi, tuple(rng.randrange(mod) for _ in range(phi)))]


@pytest.mark.parametrize("p,m", CONDUCTORS)
def test_cyclotomic_ring_matches_quadratic_loops(p, m):
    rng = random.Random(1000 * p + m)
    for k in (m + 2, 20, 40):
        zero, top, rand = _elements(p, k, m, rng)
        for x in (zero, top, rand):
            assert x.valuation_units() == reference_valuation_units(x)
        # top * top has the largest product coefficients the packing must hold
        for x, y in ((top, top), (top, rand), (rand, zero)):
            assert x * y == reference_mul(x, y)
        # the specialize / period-sum / zeta-power entry point, on p^m raw powers
        raw = [rng.randrange(-p**k, p**k) for _ in range(p**m)]
        assert _reduce_cyclotomic(raw, p, k, m).coefficients == reference_reduce_cyclotomic(
            raw, p, k, m, euler_phi_p_power(p, m))
        e = rng.randrange(p**m)
        one_hot = [0] * p**m
        one_hot[e] = 1
        assert _reduce_cyclotomic(one_hot, p, k, m) == reference_zeta_power(p, k, m, e)


# zeros, small entries and entries around 2^300, so that the slot width
# is set by the operands' largest entries and not by a fixed residue size
_NONNEGATIVE = st.lists(
    st.one_of(st.just(0), st.integers(1, 9), st.integers(2**300 - 2**12, 2**300 + 2**12)),
    min_size=1, max_size=12)


@given(_NONNEGATIVE, _NONNEGATIVE)
# an all-zero operand: the product bound is 0, but the slots must still hold
# the other operand's entries
@example([0, 0, 0], [2**300 + 5, 2**300 - 7])
@example([0], [2**300 + 2**12])
# single-element lists: one slot each
@example([2**300 + 1], [2**300 - 1])
@example([0], [0])
@settings(max_examples=100, deadline=None)
def test_packed_product_is_exact_on_nonnegative_lists(a, b):
    out = _packed_product(a, b)
    assert len(out) == len(a) + len(b) - 1
    assert IntPolynomial(tuple(out)) == poly_mul(IntPolynomial(tuple(a)), IntPolynomial(tuple(b)))


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_poly_matches_horner(p):
    rng = random.Random(p)
    for n in range(5):
        if p**n > 729:
            break
        for k in (n + 2, 20):
            mod = p**k
            polys = [
                IntPolynomial(()),
                # negative coefficients, degree >= 2 p^n: the fold wraps twice
                IntPolynomial(tuple(rng.randrange(-mod, mod) for _ in range(2 * p**n + 3))),
                binomial_minus_one(p**n),
                omega_pm_poly(p, n, +1),
                omega_pm_poly(p, n, -1),
            ]
            for poly in polys:
                assert reduce_poly(poly, p, k, n) == reference_reduce_poly(poly, p, k, n)


@pytest.mark.parametrize("p", PRIMES)
def test_witness_remainder_matches_long_division(p):
    rng = random.Random(7 * p)
    for k0 in (0, 1, 5):
        mod = p**k0
        for degree in (0, 1, 3, 6):
            lower = [rng.randrange(-mod, mod) for _ in range(degree)]
            # a non-monic leading coefficient that is a unit mod p
            lead = rng.choice([u for u in range(2, 2 * p + 2) if u % p])
            witness = IntPolynomial(tuple(lower) + (lead,))
            # dividends shorter than, as long as and longer than the witness
            for length in (0, max(degree - 1, 0), degree + 1, 4 * degree + 9):
                poly = [rng.randrange(mod) for _ in range(length)]
                assert (_poly_remainder_mod(poly, witness, p, k0)
                        == reference_poly_remainder_mod(poly, witness, p, k0))
