import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smith_oracle
from smith_oracle import multiplication_matrix
from kernel_oracle import (
    binomial_minus_one,
    poly_mul,
    reference_omega_pm,
    reference_omega_tilde,
    reference_reduce_poly,
)
from tuple_oracle import reference_convolve, reference_project, reference_star, reference_xi
from thetaforge.errors import NotDivisible, UnsupportedDelta
from thetaforge.groupring import (
    GroupRingElement,
    delta_element,
    digits_of,
    divide_omega_tilde,
    flat_index,
    lambda_invariant,
    mu_invariant,
    omega_pm_poly,
    omega_tilde_poly,
    one,
    poly_view,
    project,
    reduce_poly,
    star,
    xi,
    zero,
)
from thetaforge.padic import cyclotomic_sigma
from thetaforge.util import capped_val


def rand_elt(p, k, n, delta, rng):
    size = (p**n) ** delta
    return GroupRingElement(p, k, n, delta, tuple(rng.randrange(p**k) for _ in range(size)))


def from_poly(p, k, n, poly):
    """The layer-n element with polynomial view poly: T -> generator - 1."""
    return reduce_poly(poly, p, k, n)


class TestRingStructure:
    def test_one_is_identity(self):
        rng = random.Random(0)
        x = rand_elt(3, 5, 2, 1, rng)
        assert one(3, 5, 2) * x == x

    def test_commutative_associative(self):
        rng = random.Random(1)
        for _ in range(10):
            x, y, z = (rand_elt(3, 4, 2, 1, rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)

    def test_augmentation_multiplicative(self):
        rng = random.Random(2)
        for _ in range(20):
            x, y = rand_elt(3, 5, 2, 1, rng), rand_elt(3, 5, 2, 1, rng)
            assert (x * y).augmentation() == x.augmentation() * y.augmentation() % 3**5

    def test_delta_two_multiplication(self):
        a = delta_element(3, 4, 1, (1, 2))
        b = delta_element(3, 4, 1, (2, 2))
        prod = a * b
        assert prod == delta_element(3, 4, 1, (0, 1))

    def test_json_roundtrip(self):
        rng = random.Random(3)
        x = rand_elt(3, 4, 2, 2, rng)
        assert GroupRingElement.from_json(x.to_json()) == x


class TestViews:
    @given(st.lists(st.integers(0, 3**5 - 1), min_size=9, max_size=9))
    @settings(max_examples=40)
    def test_view_roundtrip(self, coeffs):
        x = GroupRingElement(3, 5, 2, 1, tuple(coeffs))
        assert from_poly(3, 5, 2, poly_view(x)) == x

    def test_views_are_ring_isomorphic(self):
        # products computed in the polynomial view agree with the group ring
        rng = random.Random(4)
        p, k, n = 3, 5, 2
        size, mod = p**n, p**k
        for _ in range(25):
            x, y = rand_elt(p, k, n, 1, rng), rand_elt(p, k, n, 1, rng)
            fx, fy = poly_view(x), poly_view(y)
            raw = [0] * (2 * size - 1)
            for i, a in enumerate(fx):
                for j, b in enumerate(fy):
                    raw[i + j] += a * b
            # reduce modulo (T+1)^(p^n) - 1 by folding with binomials
            folded = reduce_poly(raw, p, k, n)
            assert folded == x * y

    def test_generator_maps_to_t_plus_one(self):
        g = delta_element(3, 4, 1, (1,))
        assert poly_view(g) == (1, 1, 0)


# The binomial-table polynomial view that the packed Taylor shift replaced,
# kept as a slow, independent oracle: every Pascal row up to C(N-1, .) as
# exact integers, summed against the coefficients.


@lru_cache(maxsize=1)
def reference_binomial_rows(n):
    rows = [(1,)]
    for _ in range(n - 1):
        prev = rows[-1]
        rows.append(tuple(
            (prev[j] if j < len(prev) else 0) + (prev[j - 1] if j >= 1 else 0)
            for j in range(len(prev) + 1)
        ))
    return rows


def reference_poly_view(x):
    size = x.group_size
    mod = x.p**x.k
    rows = reference_binomial_rows(size)
    out = [0] * size
    for i, c in enumerate(x.coeffs):
        if c:
            for j, b in enumerate(rows[i]):
                out[j] = (out[j] + c * b) % mod
    return tuple(out)


def reference_from_poly_view(p, k, n, poly):
    size = p**n
    mod = p**k
    out = [0] * size
    rows = reference_binomial_rows(size)
    for j, c in enumerate(poly):
        if c % mod == 0:
            continue
        # (gamma - 1)^j = sum_i C(j, i) (-1)^(j-i) gamma^i
        s = -1 if (j % 2) else 1
        for i, b in enumerate(rows[j]):
            out[i] = (out[i] + c * b * s) % mod
            s = -s
    return GroupRingElement(p, k, n, 1, tuple(out))


def reference_lambda(x):
    poly = reference_poly_view(x)
    mu = min(capped_val(c, x.p, x.k) for c in poly)
    return next(i for i, c in enumerate(poly) if capped_val(c, x.p, x.k) == mu)


# every layer with N = p^n <= 729, n = 0 (N = 1) included
_LAYERS = [(p, n) for p in (2, 3, 5, 7) for n in range(10) if p**n <= 729]


class TestPolyViewAgainstBinomialReference:
    @pytest.mark.parametrize("p,n", _LAYERS)
    def test_matches_reference_and_round_trips(self, p, n):
        size = p**n
        rng = random.Random(100 * p + n)
        for k in sorted({n + 2, 20, 40}):
            mod = p**k
            cases = [
                zero(p, k, n),
                delta_element(p, k, n, (size - 1,)),
                GroupRingElement(p, k, n, 1, (mod - 1,) * size),   # widest slots
                rand_elt(p, k, n, 1, rng),
            ]
            for x in cases:
                poly = poly_view(x)
                assert poly == reference_poly_view(x)
                assert from_poly(p, k, n, poly) == x
                assert lambda_invariant(x) == reference_lambda(x)
            for poly in ((mod - 1,) * size, tuple(rng.randrange(mod) for _ in range(size))):
                elt = from_poly(p, k, n, poly)
                assert elt == reference_from_poly_view(p, k, n, poly)
                assert poly_view(elt) == poly

    def test_short_and_signed_input_and_degree_check(self):
        p, k, n = 3, 6, 2
        poly = (-1, 5, -3**7 - 2)
        assert from_poly(p, k, n, poly) == reference_from_poly_view(p, k, n, poly)
        # degree p^n and above folds by gamma^(p^n) = 1, as Horner's rule does
        long = (1,) * 10
        assert reduce_poly(long, p, k, n) == reference_reduce_poly(long, p, k, n)

    def test_delta_two_is_refused(self):
        with pytest.raises(UnsupportedDelta):
            poly_view(zero(3, 4, 1, 2))


class TestProjectXiStar:
    def test_project_of_identity(self):
        g = one(3, 5, 2)
        assert project(g) == one(3, 5, 1)

    def test_project_of_uniform(self):
        x = GroupRingElement(3, 5, 2, 1, (1,) * 9)
        assert project(x) == GroupRingElement(3, 5, 1, 1, (3,) * 3)

    def test_xi_of_identity_is_kernel_sum(self):
        lifted = xi(one(3, 5, 0))
        assert lifted == GroupRingElement(3, 5, 1, 1, (1, 1, 1))

    def test_project_xi_scales_by_fiber_size(self):
        rng = random.Random(5)
        for delta in (1, 2):
            x = rand_elt(3, 4, 1, delta, rng)
            assert project(xi(x)) == x * 3**delta

    def test_xi_polynomial_oracle(self):
        # group-ring xi equals lift-and-multiply by Sigma_{p^(n+1)}(T+1)
        rng = random.Random(6)
        p, k = 3, 5
        for n in (0, 1, 2, 3):
            for _ in range(25):
                x = rand_elt(p, k, n, 1, rng)
                lifted = GroupRingElement(
                    p, k, n + 1, 1,
                    tuple(x.coeffs) + (0,) * (p ** (n + 1) - p**n),
                )
                sig = reduce_poly(cyclotomic_sigma(p, n + 1), p, k, n + 1)
                assert xi(x) == sig * lifted

    def test_project_linear_and_star_compatible(self):
        rng = random.Random(7)
        for _ in range(100):
            x, y = rand_elt(3, 4, 2, 1, rng), rand_elt(3, 4, 2, 1, rng)
            assert project(x + y) == project(x) + project(y)
            assert project(star(x)) == star(project(x))

    def test_star_involution_and_ring_map(self):
        rng = random.Random(8)
        for _ in range(20):
            x, y = rand_elt(3, 4, 2, 1, rng), rand_elt(3, 4, 2, 1, rng)
            assert star(star(x)) == x
            assert star(x * y) == star(x) * star(y)
            assert star(x).augmentation() == x.augmentation()

    def test_star_reindexes_by_inversion(self):
        x = delta_element(3, 4, 2, (2,))
        assert star(x) == delta_element(3, 4, 2, (7,))
        assert star(delta_element(3, 4, 2, (0,))) == delta_element(3, 4, 2, (0,))

    def test_norm_trace_identity(self):
        # Sigma_{p^n}(T+1) * x = xi(project(x)) at layer n
        rng = random.Random(9)
        p, k = 3, 5
        for n in (1, 2, 3):
            sig = reduce_poly(cyclotomic_sigma(p, n), p, k, n)
            for _ in range(10):
                x = rand_elt(p, k, n, 1, rng)
                assert sig * x == xi(project(x))


class TestMuLambda:
    def test_mu_examples(self):
        x = GroupRingElement(3, 5, 1, 1, (3, 3, 0))
        assert mu_invariant(x) == 1
        assert mu_invariant(zero(3, 5, 1)) == 5

    def test_mu_product_inequality(self):
        rng = random.Random(10)
        for _ in range(60):
            x, y = rand_elt(3, 4, 1, 1, rng), rand_elt(3, 4, 1, 1, rng)
            assert mu_invariant(x * y) >= mu_invariant(x) + mu_invariant(y)

    def test_mu_additivity_fails_in_general(self):
        # zero divisors: (gamma - 1)^(p^n) has mu > 0 even though each factor
        # has mu = 0
        g = delta_element(3, 4, 1, (1,)) - one(3, 4, 1)
        power = one(3, 4, 1)
        for _ in range(3):
            power = power * g
        assert mu_invariant(g) == 0
        assert mu_invariant(power) > 0

    def test_lambda_invariant(self):
        x = from_poly(3, 5, 2, (9, 3, 1, 0, 0, 0, 0, 0, 0))
        assert lambda_invariant(x) == 2
        with pytest.raises(UnsupportedDelta):
            lambda_invariant(rand_elt(3, 4, 1, 2, random.Random(0)))


class TestOmegaFamily:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_factorization(self, p, n):
        for eps in (1, -1):
            assert omega_tilde_poly(p, n, -eps) == reference_omega_tilde(p, n, -eps)
            assert omega_pm_poly(p, n, eps) == reference_omega_pm(p, n, eps)
            lhs = poly_mul(omega_tilde_poly(p, n, -eps), omega_pm_poly(p, n, eps))
            assert lhs == binomial_minus_one(p**n)

    def test_omega_1_frozen(self):
        assert omega_pm_poly(3, 1, -1) == (0, 3, 3, 1)
        assert omega_pm_poly(3, 1, +1) == (0, 1)

    def test_parity_split_frozen(self):
        # at n = 2: even part is the level-2 factor, odd part the level-1
        assert omega_tilde_poly(3, 2, +1) == cyclotomic_sigma(3, 2)
        assert omega_tilde_poly(3, 2, -1) == cyclotomic_sigma(3, 1)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (2, 3), (5, 2)])
    def test_omega_reduces_to_zero(self, p, n):
        assert reduce_poly(binomial_minus_one(p**n), p, 5, n).is_zero()
        for eps in (1, -1):
            gen = reduce_poly(omega_pm_poly(p, n, eps), p, 5, n)
            assert (gen * reduce_poly(omega_tilde_poly(p, n, -eps), p, 5, n)).is_zero()

    def test_family_dict_and_delta_guard(self):
        with pytest.raises(UnsupportedDelta):
            divide_omega_tilde(zero(3, 5, 2, 2), 1)


class TestDivision:
    def test_exact_preimage_of_divisor(self):
        # dividing the divisor itself returns 1 mod the omega ideal
        p, k = 3, 5
        for n in (1, 2, 3, 4):
            eps = 1 if n % 2 == 0 else -1
            lam = reduce_poly(omega_tilde_poly(p, n, -eps), p, k, n)
            cls = divide_omega_tilde(lam, eps)
            assert cls.contains(one(p, k, n))

    def test_zero_maps_to_zero_class(self):
        cls = divide_omega_tilde(zero(3, 5, 2), 1)
        assert cls.contains(zero(3, 5, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrip_on_random_classes(self, n):
        rng = random.Random(20 + n)
        p, k = 3, 6
        eps = 1 if n % 2 == 0 else -1
        divisor = reduce_poly(omega_tilde_poly(p, n, -eps), p, k, n)
        for _ in range(6):
            theta0 = rand_elt(p, k, n, 1, rng)
            lam = divisor * theta0
            cls = divide_omega_tilde(lam, eps)
            assert divisor * cls.rep == lam
            assert cls.contains(theta0)

    def test_big_modulus_object_dtype_path(self):
        # p^k >= 2^31 routes the oracle solver through exact object arrays
        p, k, n = 3, 20, 2
        big = GroupRingElement(p, k, n, 1, tuple(range(9)))
        divisor = reduce_poly(omega_tilde_poly(p, n, -1), p, k, n)
        lam = divisor * big
        cls = divide_omega_tilde(lam, 1)
        assert divisor * cls.rep == lam
        assert cls.contains(big)
        sol = smith_oracle.solve(multiplication_matrix(divisor), list(lam.coeffs), p, k)
        assert cls.contains(GroupRingElement(p, k, n, 1, tuple(sol)))

    def test_not_divisible_raises(self):
        # a generic element is not annihilated by the omega of its parity
        x = one(3, 5, 2)
        with pytest.raises(NotDivisible):
            divide_omega_tilde(x, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernel_of_multiplication_is_the_omega_ideal(self, n):
        # bijectivity on classes: ker(x -> omega_tilde * x) == (omega^eps)
        p, k = 3, 4
        eps = 1 if n % 2 == 0 else -1
        divisor = reduce_poly(omega_tilde_poly(p, n, -eps), p, k, n)
        gen = reduce_poly(omega_pm_poly(p, n, eps), p, k, n)
        m = multiplication_matrix(divisor)
        ideal = multiplication_matrix(gen)
        for vec in smith_oracle.kernel(m, p, k):
            assert smith_oracle.solve(ideal, vec, p, k) is not None
        # and conversely the ideal is inside the kernel
        for shift in range(p**n):
            col = [row[shift] for row in ideal]
            elt = GroupRingElement(p, k, n, 1, tuple(col))
            assert (divisor * elt).is_zero()


def schoolbook(x, y):
    """Cyclic product of two delta = 1 elements, coefficient by coefficient."""
    q, mod = x.order, x.p**x.k
    out = [0] * q
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[(i + j) % q] += a * b
    return GroupRingElement(x.p, x.k, x.n, 1, tuple(c % mod for c in out))


class TestExactProduct:
    # p^k just under and just over 2^31, where a fixed-width sum of N
    # products of residues would wrap
    @given(st.data(), st.sampled_from([(5, 13), (7, 11), (3, 19), (3, 20), (2, 31), (2, 32)]),
           st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_product_matches_schoolbook(self, data, pk, n):
        p, k = pk
        size, mod = p**n, p**k
        coeffs = st.lists(st.integers(0, mod - 1), min_size=size, max_size=size)
        x = GroupRingElement(p, k, n, 1, tuple(data.draw(coeffs)))
        y = GroupRingElement(p, k, n, 1, tuple(data.draw(coeffs)))
        assert x * y == schoolbook(x, y)

    def test_product_exact_at_full_layer(self):
        # N = 729 at k = 18: every coefficient sums 729 products near 2^57
        rng = random.Random(11)
        p, k, n = 3, 18, 6
        x, y = rand_elt(p, k, n, 1, rng), rand_elt(p, k, n, 1, rng)
        top = GroupRingElement(p, k, n, 1, (p**k - 1,) * p**n)
        assert x * y == schoolbook(x, y)
        assert top * top == schoolbook(top, top)


def _oracle_cases():
    for p, n_max in ((2, 6), (3, 4), (5, 3), (7, 2)):       # N <= 125
        for n in range(n_max + 1):
            yield p, n


class TestMonicDivisionAgainstSmith:
    @pytest.mark.parametrize("p,n", list(_oracle_cases()))
    def test_same_class_and_same_divisibility(self, p, n):
        rng = random.Random(100 * p + n)
        for k in (n + 2, 20):
            mod = p**k
            for eps in (1, -1):
                divisor = reduce_poly(omega_tilde_poly(p, n, -eps), p, k, n)
                ideal = multiplication_matrix(reduce_poly(omega_pm_poly(p, n, eps), p, k, n))
                m = multiplication_matrix(divisor)
                r = rand_elt(p, k, n, 1, rng)
                bump = delta_element(p, k, n, (rng.randrange(p**n),)) * p ** (k - 1)
                for lam in (divisor * r, r, divisor * r + bump, r * p ** (k - 1)):
                    sol = smith_oracle.solve(m, list(lam.coeffs), p, k)
                    if sol is None:
                        with pytest.raises(NotDivisible):
                            divide_omega_tilde(lam, eps)
                        continue
                    cls = divide_omega_tilde(lam, eps)
                    assert divisor * cls.rep == lam
                    assert not any(cls.rep.coeffs[len(omega_pm_poly(p, n, eps)) - 1:])
                    assert cls.contains(GroupRingElement(p, k, n, 1, tuple(sol)))
                    diff = [(a - b) % mod for a, b in zip(cls.rep.coeffs, sol)]
                    assert smith_oracle.solve(ideal, diff, p, k) is not None


# every layer with N = (p^n)^delta <= 729, n = 0 (N = 1) included
_FLAT_LAYERS = [(p, delta, n) for p in (2, 3, 5) for delta in (1, 2, 3)
                for n in range(10) if (p**n) ** delta <= 729]


class TestFlatMapsAgainstTupleOracle:
    """The flat index maps against the tuple-based maps they replaced
    (`tests/tuple_oracle.py`).  The quadratic oracle product pairs every
    element with a sparse one; dense pairs are compared at N <= 81, and
    top * top, the widest slot sum, has a closed form at every layer."""

    @pytest.mark.parametrize("p,delta,n", _FLAT_LAYERS)
    def test_product_star_project_xi(self, p, delta, n):
        size = (p**n) ** delta
        rng = random.Random(1000 * p + 10 * delta + n)
        for k in sorted({n + 2, 20, 32}):
            mod = p**k
            top = GroupRingElement(p, k, n, delta, (mod - 1,) * size)
            rnd, rnd2 = rand_elt(p, k, n, delta, rng), rand_elt(p, k, n, delta, rng)
            sparse = [0] * size
            for i in rng.sample(range(size), min(size, 6)):
                sparse[i] = rng.randrange(1, mod)
            sparse = GroupRingElement(p, k, n, delta, tuple(sparse))
            elements = (zero(p, k, n, delta), top, rnd)
            for x in elements:
                assert star(x) == reference_star(x)
                assert xi(x) == reference_xi(x)
                if n > 0:
                    assert project(x) == reference_project(x)
                assert x * sparse == reference_convolve(x, sparse)
                assert sparse * x == reference_convolve(sparse, x)
            if size <= 81:
                for x, y in ((top, rnd), (rnd, rnd2), (top, top)):
                    assert x * y == reference_convolve(x, y)
            assert top * top == GroupRingElement(p, k, n, delta, (size * (mod - 1) ** 2,) * size)


class TestGroupElementKeys:
    """A malformed group-element key is a ValueError, never another element."""

    def test_flat_index_checks_arity_and_range(self):
        assert flat_index((2, 1), 3, 2) == 7
        assert digits_of(7, 3, 2) == (2, 1)
        for bad in ((1,), (1, 2, 0), (3, 0), (0, -1)):
            with pytest.raises(ValueError):
                flat_index(bad, 3, 2)
        with pytest.raises(ValueError):
            delta_element(3, 4, 1, (3,))

    @pytest.mark.parametrize("delta,coeffs", [
        (1, {"(0,1)": "1"}),            # arity 2 at delta = 1
        (2, {"(2)": "1"}),              # arity 1 at delta = 2
        (1, {"(3)": "1"}),              # digit = p^n
        (2, {"(0,-1)": "1"}),           # negative digit
        (1, {"(1)": "5", "(4)": "7"}),  # 4 is not 1 mod 3 here
        (1, {"(1)": "5", "(01)": "7"}), # the same element twice
        (1, {"()": "1"}),               # no digit at all
    ])
    def test_from_json_refuses_malformed_keys(self, delta, coeffs):
        with pytest.raises(ValueError):
            GroupRingElement.from_json({"p": 3, "k": 4, "n": 1, "delta": delta, "coeffs": coeffs})

    @pytest.mark.parametrize("value", ["-5", "-81", "81", "84", str(10**40), 81],
                             ids=["-5", "-81", "81", "84", "10**40", "int-81"])
    def test_from_json_refuses_values_outside_the_range(self, value):
        # at k = 4 each used to be reduced mod 3^4 without a word
        with pytest.raises(ValueError, match=r"outside \[0, 3\^4\)"):
            GroupRingElement.from_json({"p": 3, "k": 4, "n": 1, "delta": 1,
                                        "coeffs": {"(1)": value}})

    def test_from_json_keeps_values_inside_the_range(self):
        x = GroupRingElement.from_json({"p": 3, "k": 4, "n": 1, "delta": 1,
                                        "coeffs": {"(0)": "0", "(1)": "80", "(2)": 7}})
        assert x.coeffs == (0, 80, 7)
        # the constructor still reduces for in-memory callers
        assert GroupRingElement(3, 4, 1, 1, (-1, 81, 84)).coeffs == (80, 0, 3)
