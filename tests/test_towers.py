"""The positional tower against the dict-keyed one in tower_oracle.py, and
the per-system memo of the raw and normalized thetas and the L-elements."""

import json
import random
from dataclasses import replace

import pytest

from thetaforge import serialize
from thetaforge.characters import FiniteOrderCharacter, interpolation_shape, specialize
from thetaforge.errors import CompatibilityViolation, NotOrdinary, NotSupersingular
from thetaforge.hecke import local_eigen_extend, stabilize
from thetaforge.measures import (
    check_distribution, from_tree, lp, synth_system, theta_level, theta_ordinary,
)
from thetaforge.padic import EigenData
from thetaforge.torus import QuadraticTorus, TorusElement
from thetaforge.util import default_nonresidue
from tower_oracle import (
    reference_check_distribution,
    reference_from_tree,
    reference_synth_system,
    reference_system_to_json,
    reference_theta_level,
)


def as_dicts(s):
    """The levels, fibers and free indices of a positional system keyed by
    label name, as the dict-keyed system stores them."""
    levels, fibers, free = [], [], []
    above = None
    for j, t in enumerate(s.levels):
        if t is None:
            levels.append(None)
            fibers.append(None)
            free.append(None)
            continue
        names = s.labels(j)
        levels.append(dict(zip(names, t)))
        fibers.append(None if s.fibers[j] is None
                      else {n: above[u] for n, u in zip(names, s.fibers[j])})
        free.append(dict(zip(names, s.free[j])))
        above = names
    return levels, fibers, free


def assert_same_tower(s, ref):
    levels, fibers, free = as_dicts(s)
    assert levels == list(ref.levels)
    assert fibers == list(ref.fibers)
    assert free == list(ref.free)
    for j in range(s.start_level, s.n_max + 1):
        assert theta_level(s, j) == reference_theta_level(ref, j)
    # the same keys in the same order, so the same bytes however dumped
    got, want = serialize.system_to_json(s), reference_system_to_json(ref)
    assert json.dumps(got) == json.dumps(want)
    assert serialize.canonical_dumps(got) == serialize.canonical_dumps(want)


def tamper(s, ref, j, names, by):
    """Both systems with the level-j coefficients at these label names
    raised by `by` mod p^k."""
    mod = s.p**s.k
    table, ref_table = list(s.levels[j]), dict(ref.levels[j])
    labels = s.labels(j)
    for name in names:
        at = labels.index(name)
        table[at] = (table[at] + by) % mod
        ref_table[name] = (ref_table[name] + by) % mod
    return (replace(s, levels=s.levels[:j] + (tuple(table),) + s.levels[j + 1:]),
            replace(ref, levels=ref.levels[:j] + (ref_table,) + ref.levels[j + 1:]))


def assert_same_reports(s, ref, rng, rounds=12):
    """The same report, relation count and first violation included, for
    one, two and three labels tampered at once, on one or two levels."""
    assert check_distribution(s) == reference_check_distribution(ref)
    for _ in range(rounds):
        bad, bad_ref = s, ref
        for _ in range(rng.randrange(1, 3)):
            j = rng.randrange(s.start_level, s.n_max + 1)
            names = rng.sample(s.labels(j), min(len(s.labels(j)), rng.randrange(1, 4)))
            bad, bad_ref = tamper(bad, bad_ref, j, names, rng.randrange(1, s.p**s.k))
        report = check_distribution(bad)
        assert report == reference_check_distribution(bad_ref)
        assert report.to_json() == reference_check_distribution(bad_ref).to_json()


def tree_form(p, k, mode, n_max):
    eig = EigenData.ordinary(p, k, 1)
    f0 = local_eigen_extend(p, k, 1, n_max, seed=p + n_max)
    return (f0 if mode == "vertex" else stabilize(f0, eig)), eig


class TestFromTreeAgainstDictTower:
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("p,n_max", [(3, 5), (5, 4), (7, 3)])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_same_tower(self, mode, p, n_max, shifted):
        k = 7
        torus = QuadraticTorus(p, "inert", default_nonresidue(p))
        form, eig = tree_form(p, k, mode, n_max)
        shift = TorusElement(torus, k, x=2, y=1) if shifted else None
        s = from_tree(form, torus, eig, n_max, shift=shift)
        ref = reference_from_tree(form, torus, eig, n_max, shift=shift)
        assert_same_tower(s, ref)
        assert_same_reports(s, ref, random.Random(p * n_max + shifted))


class TestSynthAgainstDictTower:
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("level_map", ["local", "full"])
    def test_same_tower(self, mode, delta, level_map):
        p, k = 3, 7
        n_max = 4 if delta == 1 else 3
        eig = EigenData.ordinary(p, k, 2) if mode == "edge" else EigenData.supersingular(p, k)
        args = (p, k, mode, eig, n_max)
        kw = dict(delta=delta, level_map=level_map, seed=5)
        s, ref = synth_system(*args, **kw), reference_synth_system(*args, **kw)
        assert_same_tower(s, ref)
        assert_same_reports(s, ref, random.Random(delta))

    @pytest.mark.parametrize("p,torsion", [(3, 11), (11, None), (5, 13)])
    def test_draw_order_follows_sorted_names(self, p, torsion):
        # two-digit torsion indices and free digits sort "10" before "2", so
        # the fibers draw out of position order here
        k, n_max = 5, 2 if p == 11 else 3
        for mode, eig in (("vertex", EigenData.supersingular(p, k)),
                          ("edge", EigenData.ordinary(p, k, 1))):
            args = (p, k, mode, eig, n_max)
            kw = dict(torsion=torsion, seed=9)
            s, ref = synth_system(*args, **kw), reference_synth_system(*args, **kw)
            assert_same_tower(s, ref)
            assert_same_reports(s, ref, random.Random(p), rounds=4)


class TestThetaMemo:
    def system(self):
        return synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 4, seed=2)

    def test_repeated_reads_return_the_same_element(self):
        s = self.system()
        for n in range(1, 5):
            assert theta_level(s, n) is theta_level(s, n)

    def test_replaced_system_gets_its_own_theta(self):
        s = self.system()
        before = theta_level(s, 3)
        table = list(s.levels[3])
        table[0] = (table[0] + 1) % 3**6
        bad = replace(s, levels=s.levels[:3] + (tuple(table),) + s.levels[4:])
        assert theta_level(bad, 3) != before
        assert theta_level(bad, 3).value.coeffs[s.free[3][0]] == (
            before.value.coeffs[s.free[3][0]] + 1) % 3**6
        assert theta_level(s, 3) is before
        # a replace that changes nothing still starts its memo empty
        same = replace(s)
        assert theta_level(same, 3) == before and theta_level(same, 3) is not before

    def test_memo_stays_out_of_equality_repr_and_artifacts(self):
        s, fresh = self.system(), self.system()
        text = serialize.canonical_dumps(serialize.system_to_json(s))
        for n in range(1, 5):
            theta_level(s, n)
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert "_theta" not in repr(s) and "ThetaElement" not in repr(s)
        assert serialize.canonical_dumps(serialize.system_to_json(s)) == text
        assert serialize.system_from_json(json.loads(text)) == s

    def test_levels_cannot_be_edited_in_place(self):
        s = self.system()
        for j in range(s.start_level, s.n_max + 1):
            for per_level in (s.levels, s.fibers, s.free):
                if per_level[j] is None:
                    continue
                assert isinstance(per_level[j], tuple)
                with pytest.raises(TypeError):
                    per_level[j][0] = 0
        with pytest.raises(TypeError):
            s.levels[1] = ()


class TestLElementMemo:
    """theta_ordinary and lp are built once per system, level (and kind),
    in the same memo as theta_level; a failure is never stored."""

    def system(self):
        return synth_system(3, 6, "edge", EigenData.ordinary(3, 6, 1), 4, seed=2)

    def incompatible(self, s):
        # one level-3 coefficient bumped: theta_3 no longer projects to theta_2
        table = list(s.levels[3])
        table[0] = (table[0] + 1) % 3**6
        return replace(s, levels=s.levels[:3] + (tuple(table),) + s.levels[4:])

    def test_repeated_reads_return_the_same_object(self):
        s = self.system()
        for n in range(1, 5):
            assert theta_ordinary(s, n) is theta_ordinary(s, n)
            assert lp(s, n) is lp(s, n) is lp(s, n, "ordinary")
            # the L-element is built from the memoized normalized theta
            assert lp(s, n).factor_value is theta_ordinary(s, n).value

    def test_interpolation_shape_builds_one_l_element(self):
        s = self.system()
        conductors = range(s.level_exp[3] + 1)
        reports = [interpolation_shape(s, FiniteOrderCharacter(3, m, 1, (1,)), 3)
                   for m in conductors]
        assert all(rep.ok for rep in reports)
        assert sorted(key for key in s._memo if key[0] == "_lp") == [("_lp", 3, "ordinary")]
        ell = lp(s, 3)
        for m, rep in zip(conductors, reports):
            assert rep.lhs == specialize(ell.value, FiniteOrderCharacter(3, m, 1, (1,)))

    def test_replaced_system_starts_with_an_empty_memo(self):
        s = self.system()
        ell, th = lp(s, 3), theta_ordinary(s, 3)
        same = replace(s)
        assert same._memo == {}
        assert lp(same, 3) == ell and lp(same, 3) is not ell
        assert theta_ordinary(same, 3) == th and theta_ordinary(same, 3) is not th
        assert lp(s, 3) is ell

    def test_incompatible_system_raises_on_every_call(self):
        s = self.system()
        lp(s, 3)
        bad = self.incompatible(s)
        rho = FiniteOrderCharacter(3, 1, 1, (1,))
        for _ in range(3):
            with pytest.raises(CompatibilityViolation):
                theta_ordinary(bad, 3)
            with pytest.raises(CompatibilityViolation):
                lp(bad, 3)
            with pytest.raises(CompatibilityViolation):
                interpolation_shape(bad, rho, 3)
        # the raw thetas were built and kept; nothing above level 2 was judged
        assert all(key[0] == "theta_level" for key in bad._memo)
        # levels below the bumped one stay compatible
        assert lp(bad, 2) == lp(s, 2)

    def test_refusal_that_is_not_supersingular_is_never_stored(self):
        p, k, n = 3, 6, 4
        s = synth_system(p, k, "vertex", EigenData.supersingular(p, k), n, seed=3)
        table = list(s.levels[n])
        table[0] = (table[0] + 1) % p**k
        bad = replace(s, levels=s.levels[:n] + (tuple(table),) + s.levels[n + 1:])
        for _ in range(3):
            with pytest.raises(NotSupersingular):
                lp(bad, n, "plus" if n % 2 == 0 else "minus")
            with pytest.raises(NotOrdinary):
                lp(bad, n)
        assert not any(key[0] == "_lp" for key in bad._memo)

    def test_unknown_kind_is_refused_every_time(self):
        s = self.system()
        for _ in range(2):
            with pytest.raises(ValueError):
                lp(s, 3, "sideways")
        assert s._memo == {}

    def test_memo_stays_out_of_equality_repr_and_artifacts(self):
        s, fresh = self.system(), self.system()
        text = serialize.canonical_dumps(serialize.system_to_json(s))
        for n in range(1, 5):
            lp(s, n)
        interpolation_shape(s, FiniteOrderCharacter(3, 2, 1, (1,)), 4)
        assert s._memo and s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert "_memo" not in repr(s) and "PadicLFunction" not in repr(s)
        assert serialize.canonical_dumps(serialize.system_to_json(s)) == text
