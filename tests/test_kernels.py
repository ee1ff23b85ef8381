"""The `padic` polynomial kernels against the quadratic loops and the
Taylor-shift reads they replaced (`tests/kernel_oracle.py`): cyclotomic
products, reductions and valuations, the exact integer product, the image
of an integer polynomial in a layer ring, the Howard witness remainder, and
the content and root order at 1 behind the lambda invariant and the
cyclotomic valuation."""

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
    poly_add,
    reference_divide_monic,
    reference_valuation_units,
    reference_zeta_power,
    taylor_lambda_invariant,
    taylor_valuation_units,
)
from thetaforge.characters import _poly_remainder_mod
from thetaforge.groupring import (
    GroupRingElement, lambda_invariant, mu_invariant, omega_pm_poly, reduce_poly,
)
from thetaforge.padic import (
    CyclotomicValue, _content_and_order_at_one, _cyclotomic_divisor, _divide_monic,
    _packed_product, _reduce_cyclotomic, euler_phi_p_power,
)
from thetaforge.util import capped_val

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
    assert tuple(out) == poly_mul(tuple(a), tuple(b))


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_poly_matches_horner(p):
    rng = random.Random(p)
    for n in range(5):
        if p**n > 729:
            break
        for k in (n + 2, 20):
            mod = p**k
            polys = [
                (),
                # negative coefficients, degree >= 2 p^n: the fold wraps twice
                [rng.randrange(-mod, mod) for _ in range(2 * p**n + 3)],
                binomial_minus_one(p**n),
                omega_pm_poly(p, n, +1),
                omega_pm_poly(p, n, -1),
            ]
            for poly in polys:
                assert reduce_poly(poly, p, k, n) == reference_reduce_poly(poly, p, k, n)


@pytest.mark.parametrize("p", PRIMES)
def test_divide_monic_matches_schoolbook_division(p):
    # quotient and remainder of the sparse kernel against one-term-at-a-time
    # long division, on dividends shorter than, as long as and longer than
    # the divisor; a shorter dividend has the empty quotient
    rng = random.Random(p)
    mod = p**5
    divisors = [_cyclotomic_divisor(p, j) for j in range(3)]
    for d in (1, 2, 5):
        terms = rng.sample(range(d), rng.randint(1, d))
        divisors.append((d, tuple((e, rng.randrange(-mod, mod)) for e in terms)))
    for degree, lower in divisors:
        divisor = [0] * degree + [1]
        for e, c in lower:
            divisor[e] += c
        for size in sorted({0, degree - 1, degree, degree + 1, degree + 2, 3 * degree + 4}):
            a = [rng.randrange(-mod, mod) for _ in range(size)]
            quot, rem = _divide_monic(a, degree, lower, mod)
            assert (quot, rem) == reference_divide_monic(a, divisor, mod)
            assert len(quot) == max(len(a) - degree, 0)
            assert len(rem) == min(len(a), degree)
            if len(a) <= degree:
                assert quot == [] and rem == [x % mod for x in a]
            # a = quot * divisor + rem over Z/mod
            back = poly_add(poly_mul(tuple(quot), tuple(divisor)), tuple(rem))
            assert [x % mod for x in back] == [x % mod for x in a]


@pytest.mark.parametrize("p", PRIMES)
def test_witness_remainder_matches_long_division(p):
    rng = random.Random(7 * p)
    for k0 in (0, 1, 5):
        mod = p**k0
        for degree in (0, 1, 3, 6):
            lower = [rng.randrange(-mod, mod) for _ in range(degree)]
            # a non-monic leading coefficient that is a unit mod p
            lead = rng.choice([u for u in range(2, 2 * p + 2) if u % p])
            witness = (*lower, lead)
            # dividends shorter than, as long as and longer than the witness
            for length in (0, max(degree - 1, 0), degree + 1, 4 * degree + 9):
                poly = [rng.randrange(mod) for _ in range(length)]
                assert (_poly_remainder_mod(poly, witness, p, k0)
                        == reference_poly_remainder_mod(poly, witness, p, k0))


# every layer and conductor p^n <= 6561, n = 0 included: n up to 8 at p = 3
ROOT_LAYERS = [(p, n) for p in PRIMES for n in range(9) if p**n <= 6561]


def _minus_one_power(t: int, size: int, mod: int) -> list:
    """The coefficients of (X - 1)^t mod `mod`, folded onto `size` slots by
    X^size = 1, or unfolded for size 0."""
    out = [0] * (size or t + 1)
    c = 1
    for i in range(t + 1):
        out[i % len(out)] += c * (-1) ** (t - i)
        c = c * (t - i) // (i + 1)
    return [a % mod for a in out]


def _plain_values(p, k, length, rng):
    """Lists of `length` entries mod p^k: zero, a multiple of p^(k-1), a
    random list and a random list with a random power of p on each entry."""
    mod = p**k
    return [
        [0] * length,
        [p ** (k - 1) * rng.randrange(p) for _ in range(length)],
        [rng.randrange(mod) for _ in range(length)],
        [rng.randrange(mod) * p ** rng.randrange(k + 1) % mod for _ in range(length)],
    ]


def _exponents(e, size, rng):
    """t near the ramification index e and the group order p^n, and one
    random t below 2 p^n."""
    near = {e - 1, e, e + 1, size - 1, size, size + 1, rng.randrange(2 * size)}
    return sorted(t for t in near if t >= 0)


# The Taylor-shift oracles cost as much as the reads they were, so (X - 1)^t
# alone is checked against its closed form where it has one, and against
# the oracle otherwise and, at t = e and t = p^n, times a random value and a
# power of p.


@pytest.mark.parametrize("p,n", ROOT_LAYERS)
def test_lambda_and_mu_match_the_taylor_shift(p, n):
    rng = random.Random(31 * p + n)
    size, e = p**n, euler_phi_p_power(p, n)
    for k in sorted({1, n + 2, 40}):
        mod = p**k
        values = [GroupRingElement(p, k, n, 1, tuple(c))
                  for c in _plain_values(p, k, size, rng)]
        rand = values[2]
        for t in _exponents(e, size, rng):
            power = GroupRingElement(p, k, n, 1, tuple(_minus_one_power(t, size, mod)))
            if t < size:
                # the polynomial view of (gamma - 1)^t is T^t
                assert (mu_invariant(power), lambda_invariant(power)) == (0, t)
            else:
                values.append(power)
            if t in (e, size):
                values.append(power * rand * p ** rng.randrange(k))
        for x in values:
            v, r = _content_and_order_at_one(x.coeffs, p, k)
            assert v == min(capped_val(c, p, k) for c in x.coeffs) == mu_invariant(x)
            assert r == taylor_lambda_invariant(x) == lambda_invariant(x)


@pytest.mark.parametrize("p,m", ROOT_LAYERS)
def test_cyclotomic_valuation_matches_the_taylor_shift(p, m):
    rng = random.Random(37 * p + m)
    size, e = p**m, euler_phi_p_power(p, m)
    for k in sorted({1, m + 2, 40}):
        values = [CyclotomicValue(p, k, m, tuple(c)) for c in _plain_values(p, k, e, rng)]
        rand = values[2]
        for t in _exponents(e, size, rng):
            power = _reduce_cyclotomic(_minus_one_power(t, 0, p**k), p, k, m)
            if m > 0:
                # zeta - 1 is a uniformizer
                assert power.valuation_units() == min(t, e * k)
            else:
                values.append(power)
            if t in (e, size):
                values.append(power * rand * p ** rng.randrange(k))
        for x in values:
            assert x.valuation_units() == taylor_valuation_units(x)


def test_content_and_order_at_one_edges():
    # the zero list, at any length
    for coeffs in ([0], [0] * 9):
        assert _content_and_order_at_one(coeffs, 3, 5) == (5, 0)
    # a unit constant; trailing zeros do not raise the degree
    assert _content_and_order_at_one([1, 0, 0, 0], 3, 5) == (0, 0)
    # 9 (X - 1)^3 (X + 1) mod 3^4: content 2, root order 3 at 1
    assert _content_and_order_at_one([9 * c % 81 for c in (-1, 2, 0, -2, 1)], 3, 4) == (2, 3)
    # X^9 - 1 = (X - 1)^9 mod 3: the root order is the whole degree
    assert _content_and_order_at_one([80] + [0] * 8 + [1], 3, 4) == (0, 9)
