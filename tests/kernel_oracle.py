"""Quadratic polynomial loops, kept as a test oracle.

These are the cyclotomic product, reduction and valuation, the Horner image
of an integer polynomial in a layer ring, the Howard witness division, and
the schoolbook integer-polynomial arithmetic that built Sigma_{p^j}(T+1) and
the Omega products, all of which `thetaforge` used before it routed them
through the `padic` kernels (packed product, Taylor shift, sparse monic
division, content and root order at 1) or read them off binomial rows.  They
are quadratic in the ring degree and serve only to cross-check the kernels.

The cyclotomic valuation and the lambda invariant are also kept as the
Taylor-shift reads `thetaforge` made before the content and root order at 1:
shift the whole value by 1 mod p^k, then read one index.

The involution identity, specialize(star(x), rho) = specialize(x, rho^(-1)),
is kept here as a check that only the tests run.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from thetaforge.characters import FiniteOrderCharacter, specialize
from thetaforge.groupring import GroupRingElement, poly_view, star
from thetaforge.padic import CyclotomicValue, _taylor_shift, euler_phi_p_power
from thetaforge.util import capped_val


@lru_cache(maxsize=None)
def _reduction_rows(p: int, m: int, top: int):
    """Coefficient rows expressing X^t (phi <= t < top) mod the p^m-th
    cyclotomic polynomial in the basis 1, X, ..., X^(phi-1)."""
    phi = euler_phi_p_power(p, m)
    rows = {}
    for t in range(phi, top):
        row = [0] * phi
        if t == phi:
            # X^phi = -sum_{b<p-1} X^(b p^(m-1))
            for b in range(p - 1):
                row[b * p ** (m - 1)] -= 1
        else:
            prev = rows[t - 1]
            carry = prev[phi - 1]
            shifted = [0] + list(prev[:-1])
            if carry:
                base = rows[phi]
                shifted = [s + carry * bb for s, bb in zip(shifted, base)]
            row = shifted
        rows[t] = row
    return {t: tuple(r) for t, r in rows.items()}


def reference_reduce_cyclotomic(raw, p, k, m, phi):
    """Coefficients of sum_e raw[e] zeta^e, one dense table row per power."""
    mod = p**k
    if len(raw) <= phi:
        return tuple(c % mod for c in raw) + (0,) * (phi - len(raw))
    rows = _reduction_rows(p, m, len(raw))
    out = [c % mod for c in raw[:phi]]
    for t in range(phi, len(raw)):
        c = raw[t] % mod
        if c:
            row = rows[t]
            for j in range(phi):
                if row[j]:
                    out[j] = (out[j] + c * row[j]) % mod
    return tuple(c % mod for c in out)


def reference_mul(x: CyclotomicValue, y: CyclotomicValue) -> CyclotomicValue:
    """The schoolbook product, then the table reduction."""
    a, b = x.coefficients, y.coefficients
    raw = [0] * (2 * len(a) - 1)
    for i, ci in enumerate(a):
        if ci == 0:
            continue
        for j, cj in enumerate(b):
            raw[i + j] += ci * cj
    phi = len(a)
    return CyclotomicValue(x.p, x.k, x.m, reference_reduce_cyclotomic(raw, x.p, x.k, x.m, phi))


def reference_valuation_units(x: CyclotomicValue) -> int:
    """Valuation in units of 1/e by a Pascal-row re-expansion in zeta - 1."""
    e = x.ramification
    cap = e * x.k
    if x.m == 0:
        return min(cap, e * capped_val(x.coefficients[0], x.p, x.k))
    # f(X) mod Phi -> f(Y+1): binomial re-expansion, degree < e needs no
    # further reduction.
    n = len(x.coefficients)
    g = [0] * n
    row = [1] + [0] * (n - 1)  # coefficients of (Y+1)^i, updated in place
    for i, ci in enumerate(x.coefficients):
        if i > 0:
            prev = row
            row = [0] * n
            for j in range(i + 1):
                row[j] = (prev[j] if j < n else 0) + (prev[j - 1] if j >= 1 else 0)
        if ci:
            for j in range(i + 1):
                g[j] += ci * row[j]
    best = cap
    for i, gi in enumerate(g):
        v = capped_val(gi, x.p, x.k)
        if v < x.k:
            best = min(best, e * v + i)
    return best


def taylor_valuation_units(x: CyclotomicValue) -> int:
    """min_i (e*val(a_i) + i) over the Taylor shift by 1 of the value, capped
    at e*k."""
    e = x.ramification
    g = _taylor_shift(x.coefficients, 1, x.p**x.k)
    return min((e * capped_val(gi, x.p, x.k) + i for i, gi in enumerate(g) if gi),
               default=e * x.k)


def taylor_lambda_invariant(x: GroupRingElement) -> int:
    """The first index of least valuation in the polynomial view (delta = 1)."""
    poly = poly_view(x)
    return min(range(len(poly)), key=lambda i: capped_val(poly[i], x.p, x.k))


def reference_reduce_poly(poly, p: int, k: int, n: int) -> GroupRingElement:
    """Horner's rule with T -> generator - 1: acc <- acc * (gamma - 1) + c,
    where multiplying by gamma - 1 is a cyclic rotate-and-subtract."""
    mod = p**k
    acc = [0] * p**n
    for c in reversed(poly):
        acc = [(a - b) % mod for a, b in zip(acc[-1:] + acc[:-1], acc)]
        acc[0] += c
    return GroupRingElement(p, k, n, 1, tuple(acc))


def reference_poly_remainder_mod(poly, witness, p: int, k0: int):
    """Remainder of a coefficient list modulo a witness coefficient sequence
    whose last coefficient is a unit, over Z/p^k0."""
    mod = p**k0
    lead = witness[-1]
    if lead % p == 0:
        raise ValueError("witness polynomial needs a unit leading coefficient")
    inv = pow(lead, -1, mod)
    rem = [c % mod for c in poly]
    d = len(witness) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            q = c * inv % mod
            for j, w in enumerate(witness):
                rem[i - d + j] = (rem[i - d + j] - q * w) % mod
    return rem[:d]


# ---------------------------------------------------------------------------
# schoolbook integer polynomials: coefficient tuples, constant term first,
# with no trailing zeros dropped (a product of lengths a and b has length
# a + b - 1)


def poly_add(x: tuple, y: tuple) -> tuple:
    n = max(len(x), len(y))
    return tuple((x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0) for i in range(n))


def poly_mul(x: tuple, y: tuple) -> tuple:
    if not x or not y:
        return ()
    out = [0] * (len(x) + len(y) - 1)
    for i, ci in enumerate(x):
        if ci == 0:
            continue
        for j, cj in enumerate(y):
            out[i + j] += ci * cj
    return tuple(out)


def reference_divide_monic(a, divisor, mod: int) -> tuple:
    """Schoolbook long division of a by a monic divisor (a coefficient
    list, constant term first) over Z/mod: one leading term at a time, from
    the top.  The quotient is empty when a is shorter than the divisor; the
    remainder keeps min(len(a), deg divisor) coefficients."""
    deg = len(divisor) - 1
    assert divisor[-1] == 1
    rem, quot = [x % mod for x in a], []
    while len(rem) > deg:
        c = rem.pop()
        quot.append(c)
        # subtract c X^shift times the divisor below its leading term
        shift = len(rem) - deg
        for e, d in enumerate(divisor[:-1]):
            rem[shift + e] = (rem[shift + e] - c * d) % mod
    return quot[::-1], rem


def poly_pow(a: tuple, e: int) -> tuple:
    """Square and multiply on poly_mul."""
    result = ONE
    while e > 0:
        if e & 1:
            result = poly_mul(result, a)
        a = poly_mul(a, a)
        e >>= 1
    return result


def poly_eval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


ONE = (1,)
T = (0, 1)


def binomial_minus_one(size: int) -> tuple:
    """(T+1)^size - 1, from math.comb."""
    return (0,) + tuple(comb(size, i) for i in range(1, size + 1))


@lru_cache(maxsize=None)
def reference_cyclotomic_sigma(p: int, j: int) -> tuple:
    """sum_{b<p} (T+1)^(b p^(j-1)), by schoolbook powers and products."""
    block = poly_pow(poly_add(T, ONE), p ** (j - 1))
    acc = total = ONE
    for _ in range(p - 1):
        acc = poly_mul(acc, block)
        total = poly_add(total, acc)
    return total


def reference_omega_tilde(p: int, n: int, sign: int) -> tuple:
    """Schoolbook product of the Sigma_{p^j}(T+1), j <= n of parity sign
    (+1: even j, -1: odd j)."""
    acc = ONE
    for j in range(2 if sign > 0 else 1, n + 1, 2):
        acc = poly_mul(acc, reference_cyclotomic_sigma(p, j))
    return acc


def reference_omega_pm(p: int, n: int, sign: int) -> tuple:
    return poly_mul(T, reference_omega_tilde(p, n, sign))


def reference_zeta_power(p: int, k: int, m: int, e: int) -> CyclotomicValue:
    """zeta^e in (Z/p^k)[zeta_{p^m}], by the table reduction of the one-hot
    power list."""
    raw = [0] * (e % p**m) + [1]
    phi = euler_phi_p_power(p, m)
    return CyclotomicValue(p, k, m, reference_reduce_cyclotomic(raw, p, k, m, phi))


@dataclass(frozen=True)
class StarIdentityReport:
    ok: bool
    lhs: CyclotomicValue
    rhs: CyclotomicValue


def star_identity_check(lam: GroupRingElement, rho: FiniteOrderCharacter) -> StarIdentityReport:
    """Specializing the involution equals specializing at the inverse character."""
    lhs = specialize(star(lam), rho)
    rhs = specialize(lam, rho.inverse())
    return StarIdentityReport(lhs == rhs, lhs, rhs)
