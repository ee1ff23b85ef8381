"""Small shared helpers: valuations, the Legendre symbol and JSON integers."""

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
