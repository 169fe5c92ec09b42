"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
import os
import time
from fractions import Fraction as F

import numpy as np

from divtim.baselines import deg_d_greedy
from divtim.cli import main as cli_main
from divtim.cli import parse_result_doc
from divtim.diversity import (AttributeWiseDiversity, ClassDiversity, EntropyDiversity,
                              HammingBallDiversity, NumericDiversity, aw_theoretical_max)
from divtim.estimator import estimate_params
from divtim.graph import save_graph, select_targets, synth_graph
from divtim.metrics import seed_entropy, seed_overlap
from divtim.profiles import synth_profiles
from divtim.sampler import generate_corpus
from divtim.selector import build_seed_set
from divtim.simulator import simulate

import oracles
from conftest import (capital_of, corpus_from_sets, coverage_fraction, make_graph,
                      make_profiles)
from oracles import (exhaustive_expectation, hamming_sum_halved, hamming_sum_pairnorm,
                     hamming_sum_score, jaccard_sum_score, mismatch_pair_score)


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


# ----------------------------------------------------------------- helpers

def _value_table(fn, n: int) -> np.ndarray:
    """fn value over every subset of {0..n-1}, indexed by bitmask."""
    table = np.empty(1 << n)
    for mask in range(1 << n):
        fn.reset()
        rest, v = mask, 0
        while rest:
            if rest & 1:
                fn.commit(v)
            rest >>= 1
            v += 1
        table[mask] = fn.value()
    return table


def _lattice_violations(table: np.ndarray, n: int, tol: float = 1e-9) -> tuple[int, int]:
    """Exhaustive monotonicity and submodularity check over all S <= T.

    For each v, the marginal gain over the sub-lattice without v must be
    antitone; a subset-minimum sweep makes every S-within-T comparison
    explicit without enumerating the pairs one by one.
    """
    masks = np.arange(1 << n)
    mono = sub = 0
    for v in range(n):
        vb = 1 << v
        valid = (masks & vb) == 0
        g = np.where(valid, table[masks | vb] - table, np.inf)
        mono += int(np.sum(g[valid] < -tol))
        m = g.copy()
        for u in range(n):
            if u == v:
                continue
            ub = 1 << u
            has = (masks & ub) != 0
            m[has] = np.minimum(m[has], m[masks[has] ^ ub])
        sub += int(np.sum(g[valid] > m[valid] + tol))
    return mono, sub


def _random_instance(rng, n):
    rows = [tuple(int(rng.integers(0, 3)) if rng.random() > 0.25 else None
                  for _ in range(4)) for _ in range(n)]
    ps = make_profiles(rows, domain_sizes=[3] * 4)
    # chain backbone keeps every node present while reachability still varies
    edges = {(u, u + 1) for u in range(n - 1)}
    edges |= {(u, v) for u in range(n) for v in range(n)
              if u != v and rng.random() < 0.2}
    g = make_graph([(u, v, 0.5) for u, v in sorted(edges)])
    return ps, g


def _manual_corpus(rng, n, theta):
    sets = []
    for i in range(theta):
        members = sorted({int(x) for x in rng.integers(0, n, size=rng.integers(1, 5))})
        sets.append((int(rng.choice(members)), members))
    return corpus_from_sets(sets, n)


def _random_diversity(rng, n, ps, g):
    kind = rng.choice(["aw", "entropy", "class", "numeric", "hamming"])
    if kind == "aw":
        return AttributeWiseDiversity(ps)
    if kind == "entropy":
        return EntropyDiversity(ps)
    if kind == "class":
        return ClassDiversity(rng.integers(0, 3, size=n), rng.uniform(0.5, 2.0, size=n))
    if kind == "numeric":
        return NumericDiversity(rng.uniform(0, 1, size=(n, 2)), np.ones(n))
    if g is not None:
        return HammingBallDiversity(g, ps, radius=int(rng.choice([1, 2])))
    return AttributeWiseDiversity(ps)


def _fresh_like(div, ps, g):
    if isinstance(div, AttributeWiseDiversity):
        return AttributeWiseDiversity(ps, lam=div.lam)
    if isinstance(div, EntropyDiversity):
        return EntropyDiversity(ps)
    if isinstance(div, ClassDiversity):
        return ClassDiversity(div.classes, div.rewards)
    if isinstance(div, NumericDiversity):
        return NumericDiversity(div.preferences, div.node_gains)
    return HammingBallDiversity(g, ps, radius=div.radius)


# -------------------------------------------------------------- criterion 1

def test_c01_monotone_submodular_exhaustive():
    start = time.time()
    rng = np.random.default_rng(101)
    instances = 200
    violations = {name: [0, 0] for name in
                  ("aw", "hamming_xi1", "hamming_xi3", "hamming_xi5",
                   "entropy", "class", "numeric")}
    for i in range(instances):
        n = 4 + i % 5  # sizes 4..8
        ps, g = _random_instance(rng, n)
        fns = {
            "aw": AttributeWiseDiversity(ps),
            "entropy": EntropyDiversity(ps),
            "class": ClassDiversity(rng.integers(0, 3, size=n),
                                    rng.uniform(0.5, 2.0, size=n)),
            "numeric": NumericDiversity(rng.uniform(0, 1, size=(n, 2)), np.ones(n)),
        }
        for xi in (1, 3, 5):
            fns[f"hamming_xi{xi}"] = HammingBallDiversity(g, ps, radius=xi)
        for name, fn in fns.items():
            table = _value_table(fn, n)
            mono, sub = _lattice_violations(table, n)
            violations[name][0] += mono
            violations[name][1] += sub
    elapsed = time.time() - start
    flat = {k: tuple(v) for k, v in violations.items()}
    ok = all(v == (0, 0) for v in flat.values()) and elapsed <= 60.0
    _verdict(1, ok, f"no monotonicity/submodularity violations over {instances} "
                    f"instances, every nested pair, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_c02_unsuitable_function_counterexamples():
    vals1 = ["a1", "a1", "a2"]
    quad1 = (mismatch_pair_score(vals1), mismatch_pair_score(vals1 + ["a2"]),
             mismatch_pair_score(vals1 + ["a1"]),
             mismatch_pair_score(vals1 + ["a1", "a2"]))
    ok1 = quad1 == (F(2, 3), F(1), F(3, 4), F(6, 5))

    u, v = ("a1", None, None), ("a2", None, None)
    x, z = ("a3", "b1", "c1"), ("a4", None, None)
    S2, T2 = [u, v], [u, v, x]
    quad2 = tuple(hamming_sum_score(s) for s in (S2, T2, S2 + [z], T2 + [z]))
    ok2 = quad2 == (F(2), F(14), F(6), F(24))
    ok2h = tuple(hamming_sum_halved(s) for s in (S2, T2, S2 + [z], T2 + [z])) \
        == (F(1, 2), F(7, 3), F(1), F(3))
    pairnorm = tuple(hamming_sum_pairnorm(s) for s in (S2, T2, S2 + [z], T2 + [z]))
    ok2hh = pairnorm == (F(1), F(7, 3), F(1), F(2)) \
        and pairnorm[3] < pairnorm[1]  # monotonicity failure: 2 < 7/3

    u3 = ("a", "b", "c", None, None)
    v3 = ("a", "b", None, "d", None)
    z3 = ("a", None, None, "d", "e")
    S3, T3 = [u3, v3], [u3, v3, v3]
    quad3 = tuple(jaccard_sum_score(s) for s in (S3, T3, S3 + [z3], T3 + [z3]))
    ok3 = quad3 == (F(1), F(2), F(18, 5), F(28, 5))

    # each family's quadruple exhibits the submodularity violation
    viol1 = quad1[1] - quad1[0] < quad1[3] - quad1[2]
    viol2 = quad2[2] - quad2[0] < quad2[3] - quad2[1]
    viol3 = quad3[2] - quad3[0] < quad3[3] - quad3[1]
    ok = ok1 and ok2 and ok2h and ok2hh and ok3 and viol1 and viol2 and viol3
    _verdict(2, ok, "reference quadruples reproduced exactly and each "
                    "disqualification demonstrated")


# -------------------------------------------------------------- criterion 3

def test_c03_incremental_gain_consistency():
    rng = np.random.default_rng(303)
    budget = {"aw": 2500, "entropy": 2500, "class": 2000, "numeric": 2000,
              "hamming": 1000}
    total = 0
    worst = 0.0
    for kind, count in budget.items():
        for _ in range(count):
            n = int(rng.integers(4, 7))
            rows = [tuple(int(rng.integers(0, 3)) if rng.random() > 0.3 else None
                          for _ in range(2)) for _ in range(n)]
            ps = make_profiles(rows, domain_sizes=[3, 3])
            picks = [int(v) for v in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            if kind == "aw":
                fn = AttributeWiseDiversity(ps)
                expect = oracles.aw_value(ps, picks)
            elif kind == "entropy":
                fn = EntropyDiversity(ps)
                expect = oracles.entropy_value(ps, picks)
            elif kind == "class":
                classes = [int(rng.integers(0, 3)) for _ in range(n)]
                rewards = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
                fn = ClassDiversity(classes, rewards)
                expect = oracles.class_value(classes, rewards, picks)
            elif kind == "numeric":
                prefs = rng.uniform(0, 1, size=(n, 2))
                gains = rng.uniform(0.5, 2.0, size=n)
                fn = NumericDiversity(prefs, gains)
                expect = oracles.numeric_value(prefs, gains, picks)
            else:
                edge_pairs = {(a, a + 1) for a in range(n - 1)}
                edge_pairs |= {(a, b) for a in range(n) for b in range(n)
                               if a != b and rng.random() < 0.25}
                g = make_graph([(a, b, 0.5) for a, b in sorted(edge_pairs)])
                xi = int(rng.choice([1, 2]))
                fn = HammingBallDiversity(g, ps, radius=xi)
                expect = oracles.hamming_value(g, ps, picks, xi)
            for v in picks:
                fn.commit(v)
            worst = max(worst, abs(fn.value() - expect))
            total += 1
    ok = worst <= 1e-9 and total == 10_000
    _verdict(3, ok, f"{total} random commit sequences, worst drift {worst:.2e}")


# -------------------------------------------------------------- criterion 4

def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def test_c04_balanced_maximum_vs_brute_force():
    checked = 0
    for d in range(1, 6):
        for k in range(1, 11):
            for lam in (1.0, 2.0):
                best = -1.0
                best_assignments = []
                for counts in _compositions(k, d):
                    value = sum(sum(i ** -lam for i in range(1, c + 1)) for c in counts)
                    if value > best + 1e-12:
                        best = value
                        best_assignments = [counts]
                    elif abs(value - best) <= 1e-12:
                        best_assignments.append(counts)
                formula = aw_theoretical_max(k, [d], lam)
                assert abs(formula - best) <= 1e-12, (d, k, lam, formula, best)
                for counts in best_assignments:
                    present = [c for c in counts if c > 0]
                    assert max(present) - min(present) <= 1, (d, k, lam, counts)
                checked += 1
    # one multi-attribute cross-check over explicit profile multisets
    d1, d2, k = 2, 3, 4
    all_profiles = [(a, b) for a in range(d1) for b in range(d2)]
    best = -1.0
    for combo in itertools.combinations_with_replacement(range(len(all_profiles)), k):
        rows = [all_profiles[i] for i in combo]
        ps = make_profiles(list(rows), domain_sizes=[d1, d2])
        best = max(best, oracles.aw_value(ps, list(range(k))))
    formula = aw_theoretical_max(k, [d1, d2], 1.0)
    ok = abs(formula - best) <= 1e-12
    _verdict(4, ok, f"balanced-assignment formula exact on {checked} (d,k,lambda) "
                    f"grids, maximizer spread always within one, plus one "
                    f"profile-multiset cross-check")


# -------------------------------------------------------------- criterion 5

def test_c05_class_diversity_bounds():
    rng = np.random.default_rng(505)
    worst_low = worst_high = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 13))
        h = int(rng.integers(1, k + 1))
        classes = [int(rng.integers(0, h)) for _ in range(k)]
        fn = ClassDiversity(classes, np.ones(k))
        for v in range(k):
            fn.commit(v)
        value = fn.value()
        worst_low = max(worst_low, math.log2(1 + k) - value)
        worst_high = max(worst_high, value - k)
    # equalities at the extremes
    k = 9
    one_class = ClassDiversity([0] * k, np.ones(k))
    distinct = ClassDiversity(list(range(k)), np.ones(k))
    for v in range(k):
        one_class.commit(v)
        distinct.commit(v)
    eq_low = abs(one_class.value() - math.log2(1 + k)) <= 1e-9
    eq_high = abs(distinct.value() - k) <= 1e-9
    ok = worst_low <= 1e-9 and worst_high <= 1e-9 and eq_low and eq_high
    _verdict(5, ok, f"log2(1+k) <= value <= k on 500 instances "
                    f"(slack {worst_low:.1e}/{worst_high:.1e}), equality at h=1 and h=k")


# -------------------------------------------------------------- criterion 6

def test_c06_capital_estimation_fidelity():
    start = time.time()
    g = synth_graph(1000, 4, seed=77, score_mode="uniform")
    ts = select_targets(g, "top_percent", percent=25)
    ps = synth_profiles(1000, m=5, domain_sizes=8, seed=1)
    errors = {}
    for k in (5, 10, 25, 50):
        res, _ = estimate_params(g, ts, "ic", [k], [1.0], AttributeWiseDiversity(ps),
                                 epsilon=0.3, ell=1.0, master_seed=42).points[k, 1.0]
        report = simulate(g, "ic", res.seeds, runs=10_000, master_seed=7, targets=ts)
        errors[k] = abs(res.expected_capital - report.mean_capital) / report.mean_capital
    elapsed = time.time() - start
    ok = all(err <= 0.05 for err in errors.values()) and elapsed <= 300.0
    pretty = {k: f"{e:.3%}" for k, e in errors.items()}
    _verdict(6, ok, f"sampling estimate vs Monte Carlo relative error {pretty}, "
                    f"{elapsed:.0f}s")


# -------------------------------------------------------------- criterion 7

def test_c07_greedy_near_optimality_on_fixed_corpus():
    rng = np.random.default_rng(707)
    bound = 1.0 - 1.0 / math.e
    failures = 0
    for _ in range(100):
        n = int(rng.integers(5, 13))
        ps, g = _random_instance(rng, n)
        t = rng.uniform(0.1, 1.0, size=n)
        corpus = _manual_corpus(rng, n, theta=int(rng.integers(15, 60)))
        capital = capital_of(corpus, t.sum())
        k = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0, 1))
        div = _random_diversity(rng, n, ps, g)
        res = build_seed_set(capital, k, alpha, div)
        achieved = res.objective()

        best = 0.0
        for combo in itertools.combinations(range(n), k):
            cov = capital.total * coverage_fraction(corpus, combo)
            fresh = _fresh_like(div, ps, g)
            for v in combo:
                fresh.commit(v)
            best = max(best, alpha * cov + (1 - alpha) * fresh.value())
        if achieved < bound * best - 1e-9:
            failures += 1
    _verdict(7, failures == 0,
             f"greedy objective >= (1-1/e) * exhaustive optimum on 100 "
             f"micro-instances ({failures} failures)")


# -------------------------------------------------------------- criterion 8

def test_c08_sampler_unbiasedness():
    rng = np.random.default_rng(808)
    cases = []
    for trial, model in ((0, "ic"), (1, "ic"), (2, "lt")):
        n = 6
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    edges.append((u, v, float(rng.uniform(0.2, 0.45))))
        edges = edges[:11]
        g = make_graph(edges if edges else [(0, 1, 0.4)])
        scores = 0.3 + 0.7 * (1.0 - rng.random(g.node_count))
        g = g.with_target_scores(scores)
        ts = select_targets(g, "threshold", tau=0.0)
        seeds = sorted({0, 1 % g.node_count})
        corpus = generate_corpus(g, ts, model, 100_000, master_seed=31 + trial)
        frac = coverage_fraction(corpus, seeds)
        _, exact_capital = exhaustive_expectation(g, model, seeds, targets=ts)
        exact_prob = exact_capital / ts.total_score
        cases.append(abs(frac - exact_prob))
    ok = all(err <= 0.02 for err in cases)
    _verdict(8, ok, "corpus coverage within 2% of exact activation probability: "
                    + ", ".join(f"{e:.4f}" for e in cases))


# -------------------------------------------------------------- criterion 9

def test_c09_lazy_greedy_equivalence():
    rng = np.random.default_rng(909)
    for trial in range(200):
        n = int(rng.integers(5, 12))
        ps, g = _random_instance(rng, n)
        t = rng.uniform(0.1, 1.0, size=n)
        corpus = _manual_corpus(rng, n, theta=int(rng.integers(10, 70)))
        alpha = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 5))
        div = _random_diversity(rng, n, ps, g)
        lazy = build_seed_set(capital_of(corpus, t.sum()), k, alpha, _fresh_like(div, ps, g))
        eager, _ = oracles.reference_seed_set(corpus, t.sum(), k, alpha,
                                              _fresh_like(div, ps, g), lazy=False)
        assert lazy.seeds == eager, (trial, lazy.seeds, eager)
    _verdict(9, True, "lazy greedy and reference eager greedy pick identical seeds on 200 "
                      "random instances")


# ------------------------------------------------------------- criterion 10

def test_c10_baseline_sanity(tmp_path):
    g = synth_graph(40, 3, seed=5, score_mode="uniform")
    rng = np.random.default_rng(10)
    prefs = rng.uniform(0, 1, size=(g.node_count, 3))
    seeds = deg_d_greedy(g, prefs, "unit", gamma=0.0, k=6)
    degrees = g.out_degrees()
    expect = sorted(range(g.node_count), key=lambda v: (-degrees[v], v))[:6]
    top_degree_ok = seeds == expect
    edges, pref_csv = tmp_path / "edges.txt", tmp_path / "prefs.csv"
    save_graph(g, str(edges), str(tmp_path / "node_weights.txt"))
    np.savetxt(pref_csv, prefs, delimiter=",", header="p1,p2,p3", comments="")
    base = ["baseline", "deg-d", "--graph", str(edges), "--weight-mode", "explicit",
            "--preferences", str(pref_csv), "--g-mode", "degree", "--k", "6"]
    mapping_ok = True
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        runs = []
        for flag, value in (("--gamma", 1.0 - alpha), ("--alpha", alpha)):
            out = tmp_path / f"seeds{flag}{value}.txt"
            assert cli_main([*base, flag, repr(value), "--out", str(out)]) == 0
            runs.append(out.read_text(encoding="utf-8").split())
        mapping_ok = mapping_ok and seed_overlap(*runs, 6) == 1.0
    _verdict(10, top_degree_ok and mapping_ok,
             "gamma=0 returns the top out-degree nodes; gamma = 1 - alpha "
             "parameterizations overlap 1.0")


# ------------------------------------------------------------- criterion 11

def test_c11_end_to_end_determinism(tmp_path):
    g = synth_graph(40, 3, seed=13, score_mode="uniform")
    edges = tmp_path / "edges.txt"
    nodes = tmp_path / "nodes.txt"
    save_graph(g, str(edges), str(nodes))
    prof = tmp_path / "profiles.csv"
    assert cli_main(["synth", "--nodes", "40", "--m", "3", "--domain-sizes", "4",
                     "--seed", "5", "--out", str(prof)]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["select", "--graph", str(edges), "--weight-mode", "explicit",
                         "--node-weights", str(nodes), "--profiles", str(prof),
                         "--target-mode", "top_percent", "--percent", "25",
                         "--epsilon", "0.5", "--k", "3,4", "--alpha", "0,0.5,1",
                         "--seed", "11", "--out", str(out)])
        assert code == 0
        outs.append(out)

    identical = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    for name in sorted(os.listdir(outs[0])):
        if not name.endswith(".txt"):
            continue
        docs = []
        for out in outs:
            with open(out / name, encoding="utf-8") as fh:
                docs.append("".join(line for line in fh if not line.startswith("timing")))
        identical = identical and docs[0] == docs[1]
        seeds = [parse_result_doc(str(out / name))["seeds"] for out in outs]
        identical = identical and seeds[0] == seeds[1]
    _verdict(11, identical, "two full runs with one master seed produce byte-identical "
                            "seed lists and metric rows (timing lines excluded)")


# ------------------------------------------- end-to-end guarantee (micro)

GUARANTEE_EPSILON = 0.3


def _guarantee_select(g, ts, model, k, alpha, div, seed):
    """Seeds and their in-sample capital through the public sizing, corpus
    and greedy path."""
    res, stats = estimate_params(g, ts, model, [k], [alpha], div, epsilon=GUARANTEE_EPSILON,
                                 master_seed=seed).points[k, alpha]
    return res.seeds, stats["capital_in_sample"]


def _guarantee_graph(rng, model, n=6):
    """A chain plus a few random edges; LT in-probabilities sum to at most 0.9."""
    edges = sorted({(u, u + 1) for u in range(n - 1)}
                   | {(u, v) for u in range(n) for v in range(n)
                      if u != v and rng.random() < 0.12})
    indeg = np.bincount([v for _, v in edges], minlength=n)
    g = make_graph([(u, v, float(rng.uniform(0.2, 0.5)) if model == "ic" else 0.9 / indeg[v])
                    for u, v in edges])
    return g.with_target_scores(rng.uniform(0.1, 1.0, size=g.node_count))


def test_end_to_end_guarantee_on_micro_graphs():
    rng = np.random.default_rng(1212)
    bound = 1.0 - 1.0 / math.e - GUARANTEE_EPSILON
    worst, gap, runs = math.inf, 0.0, 0
    for model, k in itertools.product(("ic", "lt"), (2, 3)):
        g = _guarantee_graph(rng, model)
        n = g.node_count
        ts = select_targets(g, "threshold", tau=0.0)
        rows = [tuple(int(rng.integers(0, 3)) for _ in range(3)) for _ in range(n)]
        ps = make_profiles(rows, domain_sizes=[3] * 3)
        subsets = list(itertools.combinations(range(n), k))
        capital = {S: exhaustive_expectation(g, model, S, targets=ts)[1] for S in subsets}
        kinds = {"aw": lambda: AttributeWiseDiversity(ps),
                 "hamming": lambda: HammingBallDiversity(g, ps, radius=1),
                 "entropy": lambda: EntropyDiversity(ps),
                 "class": lambda: ClassDiversity(rng.integers(0, 3, size=n),
                                                 rng.uniform(0.5, 2.0, size=n)),
                 "numeric-u": lambda: NumericDiversity(rng.uniform(0, 1, size=(n, 2)),
                                                       np.ones(n)),
                 "numeric-w": lambda: NumericDiversity(rng.uniform(0, 1, size=(n, 2)),
                                                       g.out_degrees().astype(np.float64))}
        for kind, make in kinds.items():
            div = make()
            diversity = {}
            for S in subsets:
                div.reset()
                for v in S:
                    div.commit(v)
                diversity[S] = div.value()
            for alpha in (0.0, 0.5, 1.0):
                div.reset()
                seeds, in_sample = _guarantee_select(g, ts, model, k, alpha, div,
                                                     seed=int(rng.integers(2 ** 31)))
                div.reset()
                for v in seeds:
                    div.commit(v)
                exact = exhaustive_expectation(g, model, seeds, targets=ts)[1] if seeds else 0.0
                achieved = alpha * exact + (1 - alpha) * div.value()
                best = max(alpha * capital[S] + (1 - alpha) * diversity[S] for S in subsets)
                ratio = achieved / best if best > 0 else 1.0
                assert ratio >= bound, (model, k, kind, alpha, seeds, ratio)
                worst = min(worst, ratio)
                if exact > 0:
                    gap = max(gap, abs(in_sample - exact) / exact)
                runs += 1
    _verdict(12, worst >= bound,
             f"true objective >= (1 - 1/e - {GUARANTEE_EPSILON}) x exhaustive optimum on "
             f"{runs} micro-graph runs: worst ratio {worst:.3f} (bound {bound:.3f}), "
             f"largest in-sample capital gap {gap:.2%}")


# ------------------------------------------------- qualitative trend check

def test_trend_seed_entropy_ordering():
    """Across profile draws, value-balancing selection yields the most
    entropic seed profiles, pattern-entropy selection the next, class
    coverage the least (checked non-strictly on the 20-seed means)."""
    sums = {"aw": 0.0, "entropy": 0.0, "class": 0.0}
    for seed in range(20):
        g = synth_graph(60, 3, seed=1000 + seed, score_mode="uniform")
        ts = select_targets(g, "top_percent", percent=25)
        ps = synth_profiles(60, m=3, domain_sizes=6, distribution="exponential",
                            seed=seed)
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, 4, size=60)
        capital = capital_of(generate_corpus(g, ts, "ic", 300, master_seed=seed), ts.total_score)
        for name, div in (("aw", AttributeWiseDiversity(ps)),
                          ("entropy", EntropyDiversity(ps)),
                          ("class", ClassDiversity(classes, np.ones(60)))):
            res = build_seed_set(capital, 8, 0.0, div)
            sums[name] += seed_entropy(res.seeds, ps)
    assert sums["aw"] >= sums["entropy"] >= sums["class"]
    print(f"TREND: PASS - mean seed entropy ordering aw >= entropy >= class "
          f"({sums['aw'] / 20:.3f} >= {sums['entropy'] / 20:.3f} >= "
          f"{sums['class'] / 20:.3f})")
