"""Finite-order characters of the layer groups, exact specialization of
group-ring elements into cyclotomic rings, discrete period sums, the product
identity for the L-element, and the family nontriviality scanner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConductorTooLarge
from .groupring import GroupRingElement, mu_invariant, poly_view
from .padic import CyclotomicValue, _divide_monic, _reduce_cyclotomic
from .util import capped_val, json_int

# measures is imported by the two readers of systems, period_sum and
# interpolation_shape, so specializing an element does not load it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .measures import CompatibleSystem


@dataclass(frozen=True)
class FiniteOrderCharacter:
    """Character with values in the p^m-th roots of unity, given by the
    exponents of its values on the delta standard generators."""

    p: int
    m: int
    delta: int
    exponents: tuple

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("conductor exponent must be nonnegative")
        mod = self.p**self.m
        exps = tuple(int(e) % mod for e in self.exponents)
        if len(exps) != self.delta:
            raise ValueError("need one exponent per variable")
        object.__setattr__(self, "exponents", exps)

    def inverse(self) -> "FiniteOrderCharacter":
        return FiniteOrderCharacter(
            self.p, self.m, self.delta, tuple(-e for e in self.exponents)
        )

    def to_json(self):
        return {"m": self.m, "exponents": list(self.exponents)}

    @staticmethod
    def from_json(p: int, delta: int, obj) -> "FiniteOrderCharacter":
        """Read {"m": int, "exponents": [int, ...]}; any other shape, a float
        or a bool included, is a ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("exponents"), list):
            raise ValueError(
                f'a character is a JSON object {{"m": int, "exponents": [int, ...]}}, got {obj!r}'
            )
        try:
            m, exps = json_int(obj["m"]), tuple(json_int(e) for e in obj["exponents"])
        except KeyError as exc:
            raise ValueError(f"malformed character {obj!r}") from exc
        return FiniteOrderCharacter(p, m, delta, exps)


def specialize(lam: GroupRingElement, rho: FiniteOrderCharacter) -> CyclotomicValue:
    """Sum of c(sigma) * rho(sigma), exactly in (Z/p^k)[zeta_{p^m}].

    The group element with digits (t_1, ..., t_delta) sits at the raw zeta
    exponent sum e_i t_i mod p^m, tabulated axis by axis in flat-index order;
    the coefficients are added up on those p^m exponents and reduced modulo
    the cyclotomic polynomial once.

    A ring homomorphism: specialize(lam * mu) = specialize(lam) * specialize(mu).
    """
    if rho.p != lam.p or rho.delta != lam.delta:
        raise ValueError("character and element live over different groups")
    if rho.m > lam.n:
        raise ConductorTooLarge(f"conductor exponent {rho.m} exceeds layer {lam.n}")
    size = lam.p**rho.m
    at = [0]
    for e in rho.exponents:
        at = [(x + e * t) % size for x in at for t in range(lam.order)]
    raw = [0] * size
    for x, c in zip(at, lam.coeffs):
        raw[x] += c
    return _reduce_cyclotomic(raw, lam.p, lam.k, rho.m)


def period_sum(sys: CompatibleSystem, rho: FiniteOrderCharacter, m: int) -> CyclotomicValue:
    """alpha^(-m) sum over level-m labels of rho(free image) * coefficient:
    the ordinary level-m theta element specialized at rho.  The mode, unit,
    level and compatibility checks are theta_ordinary's, and the element is
    read from the system's memo after the first call."""
    from .measures import theta_ordinary
    return specialize(theta_ordinary(sys, m).value, rho)


@dataclass(frozen=True)
class InterpolationReport:
    ok: bool
    lhs: CyclotomicValue
    rhs: CyclotomicValue
    lhs_valuation: int
    factor_valuations: tuple


def interpolation_shape(sys: CompatibleSystem, rho: FiniteOrderCharacter,
                        m: int) -> InterpolationReport:
    """specialize(L, rho) = (period sum at rho) * (period sum at rho^(-1)),
    with the cyclotomic valuation of each side reported.  L is lp(sys, m),
    built on the first call for (sys, m) and read from the system's memo
    after, so checking the identity at c characters costs one L-element."""
    from .measures import lp
    ell = lp(sys, m, "ordinary")
    lhs = specialize(ell.value, rho)
    ps1 = period_sum(sys, rho, m)
    ps2 = period_sum(sys, rho.inverse(), m)
    rhs = ps1 * ps2
    return InterpolationReport(
        lhs == rhs, lhs, rhs, lhs.valuation_units(),
        (ps1.valuation_units(), ps2.valuation_units()),
    )


# ---------------------------------------------------------------------------
# family nontriviality scanner


@dataclass(frozen=True)
class HowardFamily:
    labels: tuple
    elements: tuple             # GroupRingElements sharing (p, k, delta)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("family labels must be distinct")
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element")
        sig = {(e.p, e.k, e.delta) for e in self.elements}
        if len(sig) > 1:
            raise ValueError("family members must share (p, k, delta)")


@dataclass(frozen=True)
class HowardReport:
    prime: str
    k0: int
    verdicts: tuple             # (label, nontrivial: bool, witness valuation)
    passed: bool
    nontrivial_labels: tuple

    def to_json(self):
        return {
            "prime": self.prime,
            "k0": self.k0,
            "passed": self.passed,
            "nontrivial": list(self.nontrivial_labels),
            "verdicts": [
                {"label": l, "nontrivial": nt, "valuation": v}
                for l, nt, v in self.verdicts
            ],
        }


def _poly_remainder_mod(poly, witness, p: int, k0: int):
    """Remainder of a coefficient list modulo a witness coefficient sequence
    over Z/p^k0: the remainder on division by the witness scaled to be monic.
    The witness's trailing zeros are dropped; a zero witness, or one whose
    leading coefficient is not a unit, is a ValueError."""
    coeffs = list(witness)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("witness polynomial must be nonzero")
    if coeffs[-1] % p == 0:
        raise ValueError("witness polynomial needs a unit leading coefficient")
    mod = p**k0
    inv = pow(coeffs.pop(), -1, mod)
    lower = tuple(enumerate(w * inv for w in coeffs))
    return _divide_monic(poly, len(coeffs), lower, mod)[1]


def howard_check(family: HowardFamily, prime_spec, k0: int) -> HowardReport:
    """Scan a family for a member with nontrivial image modulo the chosen
    height-one prime and p^k0.

    prime_spec: "augmentation" (image = total coefficient sum), "maximal"
    (nontrivial iff the mu-invariant is < k0), or a witness: a list or tuple
    of integer coefficients, constant term first, with unit leading
    coefficient once trailing zeros are dropped (delta = 1 only).
    """
    if k0 < 0:
        raise ValueError(f"precision k0 must be nonnegative, got {k0}")
    if prime_spec not in ("augmentation", "maximal") and not isinstance(prime_spec, (list, tuple)):
        raise ValueError("unknown prime specification")
    verdicts = []
    hits = []
    for label, elt in zip(family.labels, family.elements):
        if prime_spec == "augmentation":
            val = capped_val(elt.augmentation(), elt.p, min(k0, elt.k))
            nontrivial = val < min(k0, elt.k)
        elif prime_spec == "maximal":
            val = mu_invariant(elt)
            nontrivial = val < k0
        else:
            if elt.delta != 1:
                raise ValueError("witness primes are supported for delta = 1")
            rem = _poly_remainder_mod(poly_view(elt), prime_spec, elt.p, min(k0, elt.k))
            nonzero = [c for c in rem if c]
            val = min(
                (capped_val(c, elt.p, min(k0, elt.k)) for c in nonzero),
                default=min(k0, elt.k),
            )
            nontrivial = bool(nonzero)
        verdicts.append((label, nontrivial, val))
        if nontrivial:
            hits.append(label)
    name = prime_spec if isinstance(prime_spec, str) else "witness"
    return HowardReport(name, k0, tuple(verdicts), bool(hits), tuple(hits))
