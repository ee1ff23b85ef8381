"""Bounded-precision p-adic scalars, Hensel roots, the eigenvalue pair
(a_p, alpha) of a form or system, the cyclotomic factors
Sigma_{p^j}(T+1) as integer coefficient tuples, cyclotomic ring values, and
the four polynomial kernels the group rings share.

All arithmetic is exact modulo p^k.  The valuation of a residue that is zero
to working precision is reported as k, never as infinity, so that valuations
stay totally ordered.

A polynomial is a plain sequence of integer coefficients, constant term
first: a tuple where it is returned, any sequence where it is read.  The
kernels work on such lists:

- the packed product (`_pack`, `_unpack`, `_packed_product`): the exact
  product of two lists of nonnegative integers.  The entries are laid out in
  byte slots sized from the operands, wide enough that a product
  coefficient never carries into the next slot, so one big-int product
  multiplies two lists.  It is the one product kernel of the package:
  callers working mod p^k reduce its result, and the exact Omega products
  in `groupring` use it as it is;
- the Taylor shift (`_taylor_shift`): sum a_i (X + c)^i, bottom-up over
  doubling blocks with one packed product per level;
- sparse monic long division (`_divide_monic`): quotient and remainder on
  division by a monic polynomial given by its few lower terms, such as the
  p^j-th cyclotomic polynomial (`_cyclotomic_divisor`);
- the content and root order at 1 (`_content_and_order_at_one`): the least
  coefficient valuation v, and the order of X = 1 as a root of the list
  divided by p^v, mod p.  It is what the Taylor shift by 1 would say about
  its first coefficient of least valuation, read without the shift.

Cyclotomic ring values reduce by that division, multiply by the packed
product and read valuations off the content and root order at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .errors import InvariantViolation, NotOrdinary
from .util import capped_val, json_int, prime_int


@dataclass(frozen=True, slots=True)
class PrecisionInt:
    """Residue in [0, p^k) with valuation semantics of the ring Z_p / p^k.

    A value checks k >= 1 and reduces its residue on construction.
    """

    p: int
    k: int
    residue: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("precision exponent must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.p**self.k)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def _check(self, other: "PrecisionInt"):
        if self.p != other.p or self.k != other.k:
            raise ValueError("mixed (p, k) arithmetic is not defined")

    def __add__(self, other):
        self._check(other)
        return PrecisionInt(self.p, self.k, self.residue + other.residue)

    def __sub__(self, other):
        self._check(other)
        return PrecisionInt(self.p, self.k, self.residue - other.residue)

    def __mul__(self, other):
        if isinstance(other, int):
            return PrecisionInt(self.p, self.k, self.residue * other)
        self._check(other)
        return PrecisionInt(self.p, self.k, self.residue * other.residue)

    __rmul__ = __mul__

    def __neg__(self):
        return PrecisionInt(self.p, self.k, -self.residue)

    def valuation(self) -> int:
        """Largest c <= k with p^c | residue; k means zero to precision."""
        return capped_val(self.residue, self.p, self.k)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def is_zero(self) -> bool:
        return self.residue == 0

    def inverse(self) -> "PrecisionInt":
        if not self.is_unit():
            raise ValueError("inverse requires valuation 0")
        return PrecisionInt(self.p, self.k, pow(self.residue, -1, self.modulus))

    def to_json(self):
        return {"p": self.p, "k": self.k, "residue": str(self.residue)}

    @staticmethod
    def from_json(obj) -> "PrecisionInt":
        """Read {"p", "k", "residue"}; a p that is not prime is a ValueError."""
        return PrecisionInt(prime_int(obj["p"]), json_int(obj["k"]), json_int(obj["residue"]))


@lru_cache(maxsize=None)
def cyclotomic_sigma(p: int, j: int) -> tuple:
    """The p^j-th cyclotomic polynomial evaluated at T+1, as the coefficient
    tuple of a polynomial in T.

    Degree p^(j-1)(p-1).  It is sum_{b<p} (T+1)^(b p^(j-1)), so the
    coefficient of T^i is sum_{b<p} C(b p^(j-1), i), read off each binomial
    row by C(N, i+1) = C(N, i) (N - i) / (i + 1).
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    step = p ** (j - 1)
    out = [0] * ((p - 1) * step + 1)
    for b in range(p):
        top, c = b * step, 1
        for i in range(top + 1):
            out[i] += c
            c = c * (top - i) // (i + 1)
    return tuple(out)


def hensel_unit_root(a: PrecisionInt, q: int, k: int) -> PrecisionInt:
    """Unit root of x^2 - a x + q over Z/p^k, with q divisible by p.

    The returned root is congruent to a mod p; ordinarity (a a unit) is
    required for the two roots to separate mod p.
    """
    p = a.p
    if a.valuation() > 0:
        raise NotOrdinary(f"eigenvalue {a.residue} is divisible by {p}")
    if q % p != 0:
        raise ValueError("q must be divisible by p")
    mod = p**k
    av = a.residue % mod
    x = av % p
    # Newton iteration; f'(x) = 2x - a = a (mod p) is a unit, including p = 2.
    for _ in range(max(2, k.bit_length() + 2)):
        fx = (x * x - av * x + q) % mod
        if fx == 0:
            break
        dfx = (2 * x - av) % mod
        x = (x - fx * pow(dfx, -1, mod)) % mod
    root = PrecisionInt(p, k, x)
    if not (root * root - PrecisionInt(p, k, av) * root + PrecisionInt(p, k, q)).is_zero():
        raise InvariantViolation(f"Newton iteration left {x} short of a root mod {p}^{k}")
    if root.residue % p != av % p:
        raise InvariantViolation(f"root {x} is not congruent to {av} mod {p}")
    return root


@dataclass(frozen=True)
class EigenData:
    """Adjacency eigenvalue a_p and/or transfer eigenvalue alpha_p.

    When both are present they must satisfy alpha^2 - a*alpha + p = 0 mod p^k.
    """

    ap: PrecisionInt | None = None
    alpha: PrecisionInt | None = None

    def __post_init__(self):
        if self.ap is not None and self.alpha is not None:
            a, al = self.ap, self.alpha
            q = PrecisionInt(al.p, al.k, al.p)
            if not (al * al - a * al + q).is_zero():
                raise ValueError("alpha is not a root of x^2 - a x + p")

    @staticmethod
    def ordinary(p: int, k: int, ap: int) -> "EigenData":
        a = PrecisionInt(p, k, ap)
        return EigenData(ap=a, alpha=hensel_unit_root(a, p, k))

    @staticmethod
    def supersingular(p: int, k: int) -> "EigenData":
        return EigenData(ap=PrecisionInt(p, k, 0), alpha=None)


def euler_phi_p_power(p: int, m: int) -> int:
    return 1 if m == 0 else p ** (m - 1) * (p - 1)


# ---------------------------------------------------------------------------
# shared polynomial kernels


def _pack(coeffs, width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(value: int, width: int, count: int) -> list:
    raw = value.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _packed_product(a, b) -> list:
    """Exact product of two nonempty lists of nonnegative integers.  With ma,
    mb the largest entries, a product coefficient sums at most
    min(len(a), len(b)) terms of at most ma * mb; the slot also holds every
    entry, which matters when one list is all zeros.  So one big-int product
    carries them all."""
    ma, mb = max(a), max(b)
    width = (min(len(a), len(b)) * ma * mb + ma + mb).bit_length() // 8 + 1
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


def _taylor_shift(coeffs, c: int, mod: int) -> list:
    """Coefficients of sum_i a_i (X + c)^i mod `mod`, a = coeffs.

    Bottom-up over blocks of size s = 1, 2, 4, ...: each pair of adjacent
    blocks merges as lo + (X + c)^s * hi.  With the lo blocks zeroed, the hi
    blocks sit 2s slots apart and their products with (X + c)^s (degree s)
    cannot meet, so a level is one packed product; (X + c)^(2s) is the packed
    square of (X + c)^s.  About log2(len) products, no binomial table.
    """
    size = len(coeffs)
    cur = [a % mod for a in coeffs]
    power = [c % mod, 1]
    s = 1
    while s < size:
        # s is a power of two, so i & s marks the hi half of each 2s-block
        full = _packed_product([a if i & s else 0 for i, a in enumerate(cur)], power)
        cur = [((0 if i & s else a) + f) % mod for i, (a, f) in enumerate(zip(cur, full[s:]))]
        s *= 2
        if s < size:
            power = [v % mod for v in _packed_product(power, power)]
    return cur


def _divide_monic(a, degree: int, lower, mod: int) -> tuple:
    """Long division of a by the monic X^degree + sum c X^e over (e, c) in
    lower, over Z/mod: (quotient, remainder), both reduced mod `mod`.  The
    remainder has min(len(a), degree) coefficients; the cost is
    O(len(a) * len(lower))."""
    a = list(a)
    quot = [0] * max(len(a) - degree, 0)
    for i in range(len(a) - 1, degree - 1, -1):
        c = a[i] % mod
        if c:
            quot[i - degree] = c
            for e, ce in lower:
                a[i - degree + e] -= ce * c
    return quot, [r % mod for r in a[:degree]]


def _content_and_order_at_one(coeffs, p: int, k: int) -> tuple:
    """(v, r) for a list a of residues mod p^k: v is the least valuation of
    its entries, capped at k, and r is the order of X = 1 as a root of
    f = (a / p^v) mod p, with r = 0 when v = k (the zero list).

    The Taylor shift X -> X + 1 is unimodular over Z, so the shifted list
    has the same least valuation v, and mod p its first entry of valuation
    v sits at the root order of f at 1.  Mod p, X^(p^s) - 1 = (X - 1)^(p^s):
    r is found digit by digit in base p by exact division by X^(p^s) - 1
    over F_p, s going down from the largest power that divides.  A list
    divides by X^M - 1 when each residue class of indices mod M sums to 0;
    the quotient entries are the strided sums above each index.
    """
    v = capped_val(gcd(p**k, *coeffs), p, k)
    if v == k:
        return k, 0
    scale = p**v
    f = [a // scale % p for a in coeffs]
    while not f[-1]:
        f.pop()
    if sum(f) % p:
        return v, 0

    def divides(step):
        return step < len(f) and all(sum(f[c::step]) % p == 0 for c in range(step))

    step = 1
    while divides(step * p):
        step *= p
    r = 0
    while step:
        while divides(step):
            q = [0] * (len(f) - step)
            for c in range(step):
                q[c::step] = list(accumulate(f[c + step::step][::-1]))[::-1]
            f = [x % p for x in q]
            r += step
        step //= p
    return v, r


def _cyclotomic_divisor(p: int, j: int) -> tuple:
    """The p^j-th cyclotomic polynomial as (degree, lower terms) for
    _divide_monic: X - 1 for j = 0, else sum_{b<p} X^(b p^(j-1))."""
    if j == 0:
        return 1, ((0, -1),)
    step = p ** (j - 1)
    return (p - 1) * step, tuple((b * step, 1) for b in range(p - 1))


@dataclass(frozen=True)
class CyclotomicValue:
    """Element of (Z/p^k)[zeta] with zeta a primitive p^m-th root of unity.

    Stored as a residue mod the p^m-th cyclotomic polynomial; valuations are
    reported in units of 1/e with e = p^(m-1)(p-1), computed from the
    expansion in powers of pi = zeta - 1.  For m = 0 the ring degenerates to
    Z/p^k and e = 1.
    """

    p: int
    k: int
    m: int
    coefficients: tuple

    def __post_init__(self):
        phi = euler_phi_p_power(self.p, self.m)
        mod = self.p**self.k
        coeffs = tuple(int(c) % mod for c in self.coefficients)
        if len(coeffs) != phi:
            raise ValueError(f"expected {phi} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def ramification(self) -> int:
        return euler_phi_p_power(self.p, self.m)

    def _check(self, other):
        if (self.p, self.k, self.m) != (other.p, other.k, other.m):
            raise ValueError("mixed cyclotomic rings")

    def __add__(self, other):
        self._check(other)
        return CyclotomicValue(
            self.p, self.k, self.m,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other):
        self._check(other)
        return CyclotomicValue(
            self.p, self.k, self.m,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicValue(
                self.p, self.k, self.m, tuple(c * other for c in self.coefficients)
            )
        self._check(other)
        raw = _packed_product(self.coefficients, other.coefficients)
        return _reduce_cyclotomic(raw, self.p, self.k, self.m)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def valuation_units(self) -> int:
        """Valuation in units of 1/e, capped at e*k ("zero to precision").

        In the pi-adic expansion sum a_i pi^i, pi = zeta - 1 and i < e, the
        terms have pairwise distinct valuations e*val(a_i) + i, so the
        valuation is e*v + r for the least val(a_i) = v and the first index
        r that reaches it.  The a_i are the Taylor shift by 1 of the stored
        coefficients (degree < e needs no further reduction), so v and r
        are their content and root order at 1.
        """
        v, r = _content_and_order_at_one(self.coefficients, self.p, self.k)
        return self.ramification * v + r

    def to_json(self):
        return {
            "p": self.p, "k": self.k, "m": self.m,
            "coefficients": [str(c) for c in self.coefficients],
        }


def _reduce_cyclotomic(raw, p: int, k: int, m: int) -> CyclotomicValue:
    """sum_e raw[e] zeta^e with zeta a primitive p^m-th root of unity: the
    remainder of raw on division by the p^m-th cyclotomic polynomial."""
    phi, lower = _cyclotomic_divisor(p, m)
    rem = _divide_monic(raw, phi, lower, p**k)[1]
    return CyclotomicValue(p, k, m, rem + [0] * (phi - len(rem)))
