"""Finite group rings (Z/p^k)[(Z/p^n)^delta] with dual group-ring and
polynomial views, layer projections, the norm-sum lift, the inversion
involution, mu/lambda invariants, and exact division by the parity-split
cyclotomic products that organize the plus/minus decomposition.

Coefficients sit in one flat list: with q = p^n, the group element with
digits (t_1, ..., t_delta), outer axis first, is at sum t_i q^(delta - i).
The involution and the layer maps gather or scatter over flat index maps
(`_axis_map`).  The product is one packed product (the `padic` kernel) for
every delta: the inner axes are spread to 2q - 1 slots, so a digit sum never
carries into the next axis.  That kernel is the only product here: it is
the exact product of nonnegative integer lists, reduced mod p^k in the ring
and used as it is for the exact Omega~ and Omega^+/- polynomials in T,
which are integer coefficient tuples, constant term first.

The polynomial view identifies the generator of each cyclic factor with
T_i + 1, so the layer-n ring in one variable is (Z/p^k)[T]/((T+1)^(p^n)-1).
For delta = 1 it is the `padic` Taylor shift by +1; the image of an integer
coefficient sequence (`reduce_poly`) is the shift by -1 folded mod
gamma^(p^n) - 1.
The lambda invariant reads that view's first coefficient of least valuation
without building it, as the `padic` content and root order at 1.

Division by Omega~ works in the group-element basis, where the factor
Sigma_{p^j}(gamma), the p^j-th cyclotomic polynomial in gamma, is monic with
p unit coefficients: an element, read as a polynomial in gamma of degree
< p^n, is divided by one factor at a time with the `padic` sparse monic
division.  Every factor divides gamma^(p^n) - 1 and a monic polynomial is
not a zero divisor over Z/p^k, so a zero remainder is exactly membership in
the ideal the factors generate in the layer ring.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd

from .errors import NotDivisible, UnsupportedDelta
from .padic import (
    _content_and_order_at_one, _cyclotomic_divisor, _divide_monic, _packed_product,
    _taylor_shift, cyclotomic_sigma,
)
from .util import capped_val, json_int, prime_int


@dataclass(frozen=True)
class GroupRingElement:
    """Dense coefficient table over (Z/p^n)^delta with entries mod p^k."""

    p: int
    k: int
    n: int
    delta: int
    coeffs: tuple

    def __post_init__(self):
        size = self.group_size
        mod = self.p**self.k
        cs = tuple(int(c) % mod for c in self.coeffs)
        if len(cs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(cs)}")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return self.p**self.n

    @property
    def group_size(self) -> int:
        return self.order**self.delta

    def _check(self, other):
        if (self.p, self.k, self.n, self.delta) != (other.p, other.k, other.n, other.delta):
            raise ValueError("elements live in different group rings")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(
            self.p, self.k, self.n, self.delta,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(
            self.p, self.k, self.n, self.delta,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return self * (-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(
                self.p, self.k, self.n, self.delta,
                tuple(c * other for c in self.coeffs),
            )
        self._check(other)
        return _convolve(self, other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def augmentation(self) -> int:
        return sum(self.coeffs) % self.p**self.k

    def to_json(self):
        out = {}
        for idx, c in enumerate(self.coeffs):
            if c:
                tup = digits_of(idx, self.order, self.delta)
                out["(" + ",".join(str(t) for t in tup) + ")"] = str(c)
        return {"p": self.p, "k": self.k, "n": self.n, "delta": self.delta, "coeffs": out}

    @staticmethod
    def from_json(obj) -> "GroupRingElement":
        p = prime_int(obj["p"])
        k, n, delta = (json_int(obj[key]) for key in ("k", "n", "delta"))
        # p >= 2, so (p^n)^delta > sys.maxsize once n delta reaches its bit length
        if n * delta >= sys.maxsize.bit_length() or (p**n) ** delta > sys.maxsize:
            raise ValueError(f"(Z/{p}^{n})^{delta} has more elements than sys.maxsize")
        coeffs = [0] * (p**n) ** delta
        seen, mod = set(), p**k
        for key, val in obj["coeffs"].items():
            idx = flat_index(tuple(int(s) for s in key.strip("()").split(",")), p**n, delta)
            if idx in seen:
                raise ValueError(f"group element {key} given twice")
            seen.add(idx)
            if not 0 <= (c := json_int(val)) < mod:
                raise ValueError(f"coefficient {val} of {key} lies outside [0, {p}^{k})")
            coeffs[idx] = c
        return GroupRingElement(p, k, n, delta, tuple(coeffs))


def flat_index(tup, q: int, delta: int) -> int:
    """The flat index of the group element of (Z/q)^delta with these digits;
    a wrong number of digits or a digit outside [0, q) is a ValueError."""
    if len(tup) != delta:
        raise ValueError(f"expected {delta} digits, got {tuple(tup)}")
    idx = 0
    for t in tup:
        if not 0 <= t < q:
            raise ValueError(f"digit {t} outside [0, {q})")
        idx = idx * q + t
    return idx


def digits_of(idx: int, q: int, delta: int) -> tuple:
    """The digits of the group element at a flat index, outer axis first."""
    return tuple([idx // q**i % q for i in reversed(range(delta))])


def zero(p: int, k: int, n: int, delta: int = 1) -> GroupRingElement:
    return GroupRingElement(p, k, n, delta, (0,) * (p**n) ** delta)


def one(p: int, k: int, n: int, delta: int = 1) -> GroupRingElement:
    return delta_element(p, k, n, (0,) * delta)


def delta_element(p: int, k: int, n: int, tup) -> GroupRingElement:
    coeffs = [0] * (p**n) ** len(tup)
    coeffs[flat_index(tup, p**n, len(tup))] = 1
    return GroupRingElement(p, k, n, len(tup), tuple(coeffs))


def _axis_map(delta: int, q: int, f, q_out: int) -> list:
    """Flat index map of [0, q)^delta into base q_out: digit t -> f(t) on every axis."""
    idx = [0]
    for _ in range(delta):
        idx = [a * q_out + f(t) for a in idx for t in range(q)]
    return idx


def _convolve(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Rows of q coefficients along the inner axis start 2q - 1 slots apart;
    a product row folds as row[i] + row[i + q] onto the row its outer digits
    reach mod q.  For delta = 1 there is one row, unpadded."""
    q = x.order
    s = 2 * q - 1
    rows = _axis_map(x.delta - 1, q, lambda t: s * t, s)
    fold = _axis_map(x.delta - 1, s, lambda u: q * (u % q), q)
    padded = []
    for z in (x, y):
        slots = [0] * (rows[-1] + q)
        for r, start in enumerate(rows):
            slots[start:start + q] = z.coeffs[r * q:r * q + q]
        padded.append(slots)
    full = _packed_product(*padded)
    out = [0] * x.group_size
    for r, o in enumerate(fold):
        row = full[r * s:r * s + s] + [0]
        out[o:o + q] = [c + a + b for c, a, b in zip(out[o:o + q], row, row[q:])]
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(out))


def star(x: GroupRingElement) -> GroupRingElement:
    """Involution induced by group inversion (negation is its own inverse)."""
    q = x.order
    inv = _axis_map(x.delta, q, lambda t: -t % q, q)
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(x.coeffs[i] for i in inv))


def project(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n-1: sum coefficients over the fibers of digit truncation."""
    if x.n == 0:
        raise ValueError("layer 0 has no lower layer")
    q = x.order // x.p
    out = [0] * q**x.delta
    for o, c in zip(_axis_map(x.delta, x.order, lambda t: t % q, q), x.coeffs):
        out[o] += c
    return GroupRingElement(x.p, x.k, x.n - 1, x.delta, tuple(out))


def project_to(x: GroupRingElement, n: int) -> GroupRingElement:
    while x.n > n:
        x = project(x)
    if x.n != n:
        raise ValueError("cannot project upward")
    return x


def xi(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n+1: coefficient at a point is the coefficient at its
    truncation (equivalently, any lift times the kernel norm sum)."""
    q = x.order
    trunc = _axis_map(x.delta, q * x.p, lambda t: t % q, q)
    return GroupRingElement(x.p, x.k, x.n + 1, x.delta, tuple(x.coeffs[i] for i in trunc))


def mu_invariant(x: GroupRingElement) -> int:
    """Minimal coefficient valuation, capped at k for the zero element: the
    valuation of the gcd of the coefficients and p^k."""
    return capped_val(gcd(x.p**x.k, *x.coeffs), x.p, x.k)


def lambda_invariant(x: GroupRingElement) -> int:
    """Index of the first polynomial-view coefficient of minimal valuation.

    The polynomial view is the Taylor shift by +1, so that index is the
    order of gamma = 1 as a root of (coefficients / p^mu) mod p; with
    gamma^(p^n) - 1 = (gamma - 1)^(p^n) mod p it is below p^n, and it is 0
    for the zero element.
    """
    if x.delta != 1:
        raise UnsupportedDelta("lambda invariant is defined for delta = 1")
    return _content_and_order_at_one(x.coeffs, x.p, x.k)[1]


# ---------------------------------------------------------------------------
# polynomial view (delta = 1): generator <-> T + 1


def poly_view(x: GroupRingElement) -> tuple:
    """Coefficients of the image under generator -> T+1, degree < p^n: the
    Taylor shift by +1."""
    if x.delta != 1:
        raise UnsupportedDelta("polynomial view is defined for delta = 1")
    return tuple(_taylor_shift(x.coeffs, 1, x.p**x.k))


def reduce_poly(poly, p: int, k: int, n: int) -> GroupRingElement:
    """Image of an integer coefficient sequence of any length in the layer-n ring
    (delta = 1): T -> generator - 1 is the Taylor shift by -1, then gamma^i
    folds onto gamma^(i mod p^n), as gamma^(p^n) = 1."""
    size = p**n
    out = [0] * size
    for i, c in enumerate(_taylor_shift(poly, -1, p**k)):
        out[i % size] += c
    return GroupRingElement(p, k, n, 1, tuple(out))


# ---------------------------------------------------------------------------
# parity-split cyclotomic products


def _parity_levels(n: int, sign: int) -> range:
    """The levels j <= n of the given parity (+1: even j, -1: odd j)."""
    return range(2 if sign > 0 else 1, n + 1, 2)


def omega_tilde_poly(p: int, n: int, sign: int) -> tuple:
    """Product of Sigma_{p^j}(T+1) over j <= n of the given parity
    (+1: even j, -1: odd j), as an integer coefficient tuple: a fold of the
    exact packed product, as every factor has nonnegative coefficients.
    """
    acc = [1]
    for j in _parity_levels(n, sign):
        acc = _packed_product(acc, cyclotomic_sigma(p, j))
    return tuple(acc)


def omega_pm_poly(p: int, n: int, sign: int) -> tuple:
    """T * omega_tilde_poly(p, n, sign): its coefficients moved up one place."""
    return (0,) + omega_tilde_poly(p, n, sign)


# ---------------------------------------------------------------------------
# exact division by the omega products in a layer ring (delta = 1)


def _divide_sigmas(a, p: int, mod: int, levels) -> list | None:
    """Divide by Sigma_{p^j}(gamma) for each j in levels (j = 0: gamma - 1);
    None if any remainder is nonzero."""
    for j in levels:
        a, rem = _divide_monic(a, *_cyclotomic_divisor(p, j), mod)
        if any(rem):
            return None
    return a


@dataclass(frozen=True)
class QuotientClass:
    """An element of the layer ring modulo the ideal generated by Omega_n^eps
    = (gamma - 1) * prod Sigma_{p^j}(gamma) over j <= n of parity eps."""

    rep: GroupRingElement
    eps: int

    @property
    def layer(self) -> int:
        return self.rep.n

    @property
    def ideal_tag(self) -> str:
        return "omega_plus" if self.eps > 0 else "omega_minus"

    def same_class(self, other: "QuotientClass") -> bool:
        if self.eps != other.eps or self.layer != other.layer:
            return False
        return self.contains(other.rep)

    def contains(self, elt: GroupRingElement) -> bool:
        """Whether rep - elt lies in the ideal: a zero remainder on division
        by gamma - 1 and then by each Sigma of parity eps."""
        levels = (0, *_parity_levels(self.layer, self.eps))
        quot = _divide_sigmas((self.rep - elt).coeffs, self.rep.p, self.rep.p**self.rep.k, levels)
        return quot is not None


def divide_omega_tilde(lam: GroupRingElement, eps: int) -> QuotientClass:
    """Solve Omega~_n^{-eps} * Theta = lam in the layer-n ring; the result is
    a class modulo Omega_n^eps (kernel of the multiplication map).

    Omega~_n^{-eps} * Omega_n^eps = gamma^(p^n) - 1, so lam is divisible
    exactly when Omega_n^eps * lam = 0; otherwise NotDivisible is raised.
    The representative is the quotient of the long division, which has
    degree < deg Omega_n^eps: the canonical remainder modulo Omega_n^eps.
    """
    if lam.delta != 1:
        raise UnsupportedDelta("division is defined for delta = 1")
    p, k, n = lam.p, lam.k, lam.n
    quot = _divide_sigmas(lam.coeffs, p, p**k, _parity_levels(n, -eps))
    if quot is None:
        raise NotDivisible("input is not annihilated by the matching omega")
    theta = GroupRingElement(p, k, n, 1, tuple(quot) + (0,) * (lam.group_size - len(quot)))
    return QuotientClass(theta, eps)
