import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtim.errors import UsageError
from divtim.metrics import seed_entropy, seed_overlap

from conftest import make_profiles


def test_entropy_single_shared_value_is_zero():
    ps = make_profiles([(0,), (0,), (0,)], domain_sizes=[1])
    value = seed_entropy([0, 1, 2], ps)
    # 0.0, not -0.0, which a result document would print as such
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropy_balanced_full_coverage():
    # two declared values, both used equally -> entropy 1, penalty 1
    ps = make_profiles([(0,), (1,)], domain_sizes=[2])
    assert seed_entropy([0, 1], ps) == pytest.approx(1.0)


def test_entropy_half_coverage_penalty():
    # four declared values, seeds use two of them equally -> 1 / (1 + 1)
    ps = make_profiles([(0,), (1,)], domain_sizes=[4])
    assert seed_entropy([0, 1], ps) == pytest.approx(0.5)


def test_entropy_empty_profiles_scores_zero():
    ps = make_profiles([(None,), (None,)], domain_sizes=[2])
    assert seed_entropy([0, 1], ps) == 0.0


def test_entropy_requires_seeds():
    ps = make_profiles([(0,)], domain_sizes=[1])
    with pytest.raises(UsageError):
        seed_entropy([], ps)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(values):
    ps = make_profiles([(v,) for v in values], domain_sizes=[4])
    got = seed_entropy(list(range(len(values))), ps)
    used = len(set(values))
    assert 0.0 <= got <= math.log2(used) + 1e-12


def test_overlap_basics():
    assert seed_overlap([1, 2, 3], [1, 2, 3], 3) == 1.0
    assert seed_overlap([1, 2], [3, 4], 2) == 0.0
    assert seed_overlap([1, 2, 3, 4], [3, 4, 5, 6], 4) == 0.5


def test_overlap_size_mismatch():
    with pytest.raises(UsageError):
        seed_overlap([1], [1, 2], 2)


@given(st.sets(st.integers(0, 20), min_size=3, max_size=3),
       st.sets(st.integers(0, 20), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_overlap_symmetry(a, b):
    a, b = sorted(a), sorted(b)
    assert seed_overlap(a, b, 3) == seed_overlap(b, a, 3)

