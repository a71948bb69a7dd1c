"""End-to-end acceptance checks, one per headline guarantee.

Each test prints as a single verdict line under pytest -v. Thresholds
follow the design targets, and measured values at the pinned seeds sit
well inside them. The estimator band of criterion 10 is asserted on the
large-n limit a_k that the estimate's expectation tends to; the sampled
estimate is checked against its finite-n expectation a_k * P(cycle-good),
which an independent sample of cycle-goodness measures.
"""

import itertools
import math
import os

from synchrotree.core import (
    Automaton,
    Word,
    are_conjugate,
    count_nc_words,
    is_w_tree,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    trial_seed,
)
from synchrotree.exploration import (
    InputSpec,
    check_ball_growth,
    check_degree_sums,
    check_equi,
    check_following_counts,
    check_path_exceptions,
    check_trajectory_overlaps,
    check_typicality,
    explore,
)
from synchrotree.lab import (
    exp_bijection_audit,
    exp_goodness,
    exp_height,
    exp_moment_estimate,
    exp_scaling,
    recompute_aggregates,
)
from synchrotree.records import Labeled, is_cycle_good, random_labeling
from synchrotree.sync import (
    cerny_automaton,
    find_tree_word,
    greedy_fallback,
    is_synchronizable,
    is_synchronizing,
    shortest_sync_word_exact,
)

import pytest

WORKERS = os.cpu_count()


@pytest.fixture(scope="module")
def audit33():
    return exp_bijection_audit(3, 3)


def test_criterion_01_exhaustive_bijection_audit(audit33):
    agg = audit33.aggregates
    assert agg["total_failures"] == 0
    assert agg["cardinalities_match"] is True
    assert agg["commute_failures"] == 0
    assert agg["total_round_trips"] == 31096
    assert recompute_aggregates(audit33) == agg
    assert audit33.rows == (
        (2, 1, "a", 32, 32, 64, 0), (2, 1, "b", 32, 32, 64, 0),
        (2, 2, "ab", 12, 12, 24, 0), (2, 2, "ba", 12, 12, 24, 0),
        (2, 3, "aab", 8, 8, 16, 0), (2, 3, "aba", 0, 0, 0, 0),
        (2, 3, "abb", 0, 0, 0, 0), (2, 3, "baa", 0, 0, 0, 0),
        (2, 3, "bab", 0, 0, 0, 0), (2, 3, "bba", 8, 8, 16, 0),
        (3, 1, "a", 4374, 4374, 8748, 0), (3, 1, "b", 4374, 4374, 8748, 0),
        (3, 2, "ab", 1620, 1620, 3240, 0), (3, 2, "ba", 1620, 1620, 3240, 0),
        (3, 3, "aab", 1332, 1332, 2664, 0), (3, 3, "aba", 252, 252, 504, 0),
        (3, 3, "abb", 144, 144, 288, 0), (3, 3, "baa", 144, 144, 288, 0),
        (3, 3, "bab", 252, 252, 504, 0), (3, 3, "bba", 1332, 1332, 2664, 0),
    )


def test_criterion_02_tree_counts_match_cayley():
    for n in range(2, 7):
        count = 0
        for amap in itertools.product(range(n), repeat=n):
            if is_w_tree(Automaton([amap, amap]), Word("a")):
                count += 1
        assert count == n ** (n - 1)


def test_criterion_03_cerny_exact_lengths():
    for n in (3, 4, 5):
        word = shortest_sync_word_exact(cerny_automaton(n))
        assert len(word) == (n - 1) ** 2


def test_criterion_04_sync_oracles_agree():
    for i in range(1000):
        seed = trial_seed(4, i)
        n = 2 + i % 9
        A = random_automaton(n, 2, seed=seed)
        exact = shortest_sync_word_exact(A)
        greedy = greedy_fallback(A)
        flag = is_synchronizable(A)
        assert flag == (exact is not None) == (greedy is not None)
        if exact is not None:
            assert is_synchronizing(A, exact) is not None
            assert is_synchronizing(A, greedy.word) == greedy.sink
            assert len(exact) <= len(greedy.word)


def test_criterion_05_tree_word_fraction_midscale():
    n, k, trials = 512, 11, 200
    found = 0
    for i in range(trials):
        A = random_automaton(n, 2, seed=trial_seed(0, i))
        if find_tree_word(A, k) is not None:
            found += 1
    assert found / trials >= 0.80


def test_criterion_06_word_length_scaling():
    record = exp_scaling(
        (64, 128, 256, 512, 1024), trials=100, seed=0, workers=WORKERS
    )
    agg = record.aggregates
    assert agg["bound_ok"] is True
    for row in record.rows:
        if row[2]:
            n, word_len = row[0], row[5]
            assert word_len <= 10 * math.sqrt(n) * math.log2(n)
    assert 0.4 <= agg["slope"] <= 0.65


def test_criterion_07_height_bound_large():
    record = exp_height(10000, samples=50, seed=0, workers=WORKERS)
    agg = record.aggregates
    assert agg["exceedances"] == 0
    (per,) = agg["per_n"]
    assert per["max_height"] <= per["bound"]


def _claim_trace(seed, n=None, k=None):
    """An exploration of a uniform automaton; A draws from its own stream,
    and n, k (unless given), d, the words and the entries from another."""
    rng = rng_from_seed(trial_seed(seed, 1))
    if n is None:
        n = int(rng.integers(30, 201))
        k = int(rng.integers(2, 7))
    A = random_automaton(n, 2, seed=trial_seed(seed, 0))
    d = int(rng.integers(1, 5))
    # d may exceed the conjugacy classes of nc words of length k
    wanted = min(d, count_nc_words(k) // k)
    words = []
    guard = 0
    while len(words) < wanted and guard < 300:
        w = random_nc_word(k, 2, rng)
        if all(not are_conjugate(w, v) for v in words):
            words.append(w)
        guard += 1
    entries = tuple(
        (int(rng.integers(n)), int(rng.integers(k)), w) for w in words
    )
    return explore(A, InputSpec(entries))


def test_criterion_08_exploration_claims_hold():
    for i in range(10000):
        tr = _claim_trace(trial_seed(8, i))
        assert check_equi(tr)
        assert check_degree_sums(tr)
        assert check_following_counts(tr)
        assert check_ball_growth(tr)
        assert check_trajectory_overlaps(tr)
        assert check_path_exceptions(tr)


def test_criterion_09_typicality_at_scale():
    for i in range(1000):
        report = check_typicality(_claim_trace(trial_seed(9, i), 10000, 10))
        assert report.typical


def _cycle_good_frequency(n, k, trials, seed):
    """Hit frequency of is_cycle_good on uniform (A, sigma, w), and its
    binomial standard error; A and (sigma, w) draw from separate streams."""
    hits = 0
    for i in range(trials):
        A = random_automaton(n, 2, seed=trial_seed(seed, 2 * i))
        rng = rng_from_seed(trial_seed(seed, 2 * i + 1))
        sigma = random_labeling(n, rng)
        w = random_nc_word(k, 2, rng)
        hits += is_cycle_good(Labeled(A, sigma), w)
    p = hits / trials
    return p, math.sqrt(p * (1 - p) / trials)


def test_criterion_10_moment_estimate_band(audit33):
    # the audited identity side
    agg = audit33.aggregates
    assert agg["total_failures"] == 0
    assert agg["cardinalities_match"] is True
    # the sampled estimator side at the pinned configuration
    n, k = 128, 8
    record = exp_moment_estimate(n, k, trials=200000, seed=0, workers=WORKERS)
    (per,) = record.aggregates["per_n"]
    target = per["target"]
    assert target == 2.0 ** k
    # by the fold/unfold bijection, E[estimate] = a_k * P(cycle-good) at
    # every n; check the estimate against an independent sample of that
    a_k = per["a_k"]
    p_cg, se_cg = _cycle_good_frequency(n, k, trials=10000, seed=10)
    spread = math.hypot(per["estimate_stderr"], a_k * se_cg)
    assert abs(per["estimate"] - a_k * p_cg) <= 4 * spread
    # P(cycle-good) -> 1 as n grows, so the band applies to the limit a_k
    assert 0.5 * target <= a_k <= 2.0 * target


def test_criterion_11_goodness_decay():
    record = exp_goodness(
        sizes=(100, 400, 1600), trials=12000, seed=0, workers=WORKERS
    )
    agg = record.aggregates
    assert agg["cycle_bad_decreasing"] is True
    assert agg["minima_collision_decreasing"] is True
