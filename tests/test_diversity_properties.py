"""Property tests: every diversity function is monotone and submodular,
and incremental state always agrees with from-scratch evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divtim.diversity import (AttributeWiseDiversity, ClassDiversity, EntropyDiversity,
                              HammingBallDiversity, NumericDiversity)

import oracles
from conftest import graph_on, make_graph, make_profiles, random_profiles

profile_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 2)),
              st.one_of(st.none(), st.integers(0, 2))),
    min_size=3, max_size=7)

edge_sets = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=14)


def _functions_for(rows, edges, seed):
    ps = make_profiles(rows, domain_sizes=[3, 3])
    n = len(rows)
    clean = sorted({(u % n, v % n) for u, v in edges if u % n != v % n})
    if not clean:
        clean = [(0, 1 % n)] if n > 1 else []
    g = make_graph([(u, v, 0.5) for u, v in clean]) if clean else None
    rng = np.random.default_rng(seed)
    fns = [
        AttributeWiseDiversity(ps, lam=float(rng.choice([1.0, 2.0]))),
        EntropyDiversity(ps),
        ClassDiversity(rng.integers(0, 3, size=n),
                       rng.uniform(0.5, 2.0, size=n)),
        NumericDiversity(rng.uniform(0, 1, size=(n, 2)),
                         rng.uniform(0.5, 2.0, size=n)),
    ]
    if g is not None and g.node_count == n:
        fns.append(HammingBallDiversity(g, ps, radius=int(rng.choice([1, 2]))))
    return n, fns


@given(rows=profile_rows, edges=edge_sets, seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gains_are_nonnegative_and_match_value_delta(rows, edges, seed):
    n, fns = _functions_for(rows, edges, seed)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(n)
    for fn in fns:
        for v in order:
            v = int(v)
            g = fn.gain(v)
            assert g >= 0.0
            before = fn.value()
            realized = fn.commit(v)
            assert realized == pytest.approx(g, abs=1e-9)
            assert fn.value() - before == pytest.approx(g, abs=1e-9)


@given(rows=profile_rows, edges=edge_sets, seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_submodularity_nested_sets(rows, edges, seed):
    n, fns = _functions_for(rows, edges, seed)
    rng = np.random.default_rng(seed + 2)
    perm = [int(v) for v in rng.permutation(n)]
    small = perm[: max(0, n // 3)]
    extra = perm[n // 3: 2 * n // 3]
    v = perm[-1]
    if v in small or v in extra:
        return
    for fn in fns:
        fn.reset()
        for u in small:
            fn.commit(u)
        gain_small = fn.gain(v)
        for u in extra:
            fn.commit(u)
        gain_big = fn.gain(v)
        assert gain_small >= gain_big - 1e-9


@given(rows=profile_rows, edges=edge_sets, seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_incremental_state_matches_oracles(rows, edges, seed):
    ps = make_profiles(rows, domain_sizes=[3, 3])
    n = len(rows)
    rng = np.random.default_rng(seed + 3)
    picks = [int(v) for v in rng.permutation(n)[: max(1, n - 2)]]

    aw = AttributeWiseDiversity(ps)
    ent = EntropyDiversity(ps)
    classes = rng.integers(0, 3, size=n)
    rewards = rng.uniform(0.5, 2.0, size=n)
    cd = ClassDiversity(classes, rewards)
    for v in picks:
        aw.commit(v)
        ent.commit(v)
        cd.commit(v)
    assert aw.value() == pytest.approx(oracles.aw_value(ps, picks), abs=1e-9)
    assert ent.value() == pytest.approx(oracles.entropy_value(ps, picks), abs=1e-9)
    assert cd.value() == pytest.approx(
        oracles.class_value(list(classes), list(rewards), picks), abs=1e-9)


@given(rows=profile_rows, seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_reset_restores_fresh_state(rows, seed):
    ps = make_profiles(rows, domain_sizes=[3, 3])
    n = len(rows)
    rng = np.random.default_rng(seed)
    fn = EntropyDiversity(ps)
    first_gain = fn.gain(0)
    for v in rng.permutation(n):
        fn.commit(int(v))
    fn.reset()
    assert fn.value() == 0.0
    assert fn.gain(0) == pytest.approx(first_gain, abs=1e-12)


@st.composite
def ball_instances(draw):
    """A digraph on 1-10 nodes (a DAG, one with a cycle, or two disconnected
    parts), the seed of profiles with up to 30% missing values, and a radius."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["dag", "cycle", "parts"]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    if shape == "dag":
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
    elif shape == "cycle":
        ring = draw(st.integers(min(2, n), n))
        edges = set(pairs) | {(v, (v + 1) % ring) for v in range(ring)}
    else:
        edges = {(u, v) for u, v in pairs if (u < n // 2) == (v < n // 2)}
    m = draw(st.integers(1, 4))
    return (n, sorted((u, v) for u, v in edges if u != v), m,
            draw(st.floats(0.0, 0.3)), draw(st.integers(0, 2 ** 16)), draw(st.integers(1, m)))


@given(case=ball_instances())
@example(case=(5, [], 2, 0.3, 0, 1))              # edgeless: every ball is empty
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_hamming_balls_match_oracle(case):
    n, edges, m, missing, seed, xi = case
    g = graph_on(n, edges)
    ps = random_profiles(np.random.default_rng(seed), n, m, 3, missing_prob=missing)
    hb = HammingBallDiversity(g, ps, radius=xi)
    assert hb.ptr.shape == (n + 1,)
    assert hb.elements.dtype == np.int32
    for v in range(n):
        assert hb.covers(v).tolist() == sorted(oracles.hamming_ball(g, ps, v, xi))
