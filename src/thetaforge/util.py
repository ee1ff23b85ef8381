"""Small shared helpers: valuations, the Legendre symbol, primality and JSON
integers."""

from __future__ import annotations


def val_p(x: int, p: int) -> int | None:
    """Exact p-adic valuation of an integer; None for 0."""
    if x == 0:
        return None
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def capped_val(residue: int, p: int, k: int) -> int:
    """Valuation of a residue mod p^k, capped at k (residue 0 reports k)."""
    if residue % p**k == 0:
        return k
    v = val_p(residue % p**k, p)
    return min(v, k)


def is_nonresidue(d: int, p: int) -> bool:
    """True when d is a quadratic non-residue mod an odd prime p."""
    d %= p
    if d == 0:
        return False
    return pow(d, (p - 1) // 2, p) == p - 1


def default_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p (p odd)."""
    for d in range(2, p):
        if is_nonresidue(d, p):
            return d
    raise ValueError(f"no non-residue found mod {p}")


def json_int(value) -> int:
    """An integer read from JSON: an int that is not a bool, or a string that
    int() reads.  A float, a bool or anything else is a ValueError, so that
    2.7 is refused rather than truncated to 2."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return int(value)
    raise ValueError(f"expected an integer or an integer string, got {value!r}")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017): no composite n below it is a
# strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_BOUND by deterministic Miller-Rabin,
    at a cost polynomial in the bit length; a larger n is a ValueError, since
    the fixed bases are not proven exact there."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is decided only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_int(value) -> int:
    """A prime p read from JSON as json_int reads it; a p that is not prime
    is a ValueError."""
    p = json_int(value)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p
