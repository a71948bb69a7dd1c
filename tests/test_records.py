import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrotree.core import (
    Automaton,
    Word,
    are_conjugate,
    cycles,
    enumerate_nc_words,
    is_w_tree,
    one_letter_view,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    thread,
    trial_seed,
)
from synchrotree.records import (
    ALL_TRIPLES,
    FIRST_THEN_SECOND,
    SECOND_THEN_FIRST,
    CollisionWitness,
    DoubleLabeled,
    DoubleMarked,
    Labeled,
    MarkedLabeled,
    branch_collision,
    branch_records,
    cycle_collision,
    cycle_minima,
    find_collision,
    has_minima_collision,
    is_branch_good,
    is_cycle_good,
    is_good_marked_tree,
    random_labeling,
)

A3 = Automaton([[1, 2, 0], [0, 0, 0]])
AB = Word("ab")
ID3 = (0, 1, 2)


def test_cycle_minima_three_state_instance():
    rec = cycle_minima(Labeled(A3, ID3), AB)
    assert rec.kind == "cycle"
    assert rec.count == 1
    assert rec.vertices == (0, 0)
    assert rec.positions == (0, 0)


def test_cycle_minima_two_fixed_points():
    # the word map is the identity, so every state is its own cycle
    A = Automaton([[0, 1], [0, 1]])
    rec = cycle_minima(Labeled(A, (0, 1)), AB)
    assert rec.count == 2
    assert rec.vertices == (1, 0, 0)
    assert rec.positions == (0, 0, 0)


def test_cycle_minima_closing_predecessor():
    A = Automaton([[1, 0], [0, 1]])
    rec = cycle_minima(Labeled(A, (0, 1)), Word("a"))
    assert rec.count == 1
    assert rec.vertices == (0, 1)
    assert rec.positions == (0, 1)
    # flipping the labels moves the minimum to the other vertex
    rec = cycle_minima(Labeled(A, (1, 0)), Word("a"))
    assert rec.vertices == (1, 0)
    assert rec.positions == (0, 1)
    with pytest.raises(ValueError, match="outside the alphabet"):
        cycle_minima(Labeled(A, (0, 1)), Word((0, 2)))


def test_branch_records_frozen():
    rec = branch_records(MarkedLabeled(A3, 2, ID3), AB)
    assert rec.kind == "branch"
    assert rec.count == 2
    assert rec.vertices == (2, 0, 0)
    assert rec.positions == (0, 2, 2)


def test_branch_records_cyclic_mark():
    # a mark already on the cycle closes immediately
    rec = branch_records(MarkedLabeled(A3, 0, ID3), AB)
    assert rec.count == 1
    assert rec.vertices == (0, 0)
    assert rec.positions == (0, 0)


def test_branch_records_monotone():
    """Record labels strictly decrease and positions strictly increase."""
    for i in range(100000):
        seed = trial_seed(31, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 12))
        A = random_automaton(n, 2, seed=seed)
        k = int(rng.integers(1, 4))
        w = random_nc_word(k, 2, rng) if k > 1 else Word("a")
        mark = int(rng.integers(n))
        sigma = random_labeling(n, rng)
        rec = branch_records(MarkedLabeled(A, mark, sigma), w)
        labels = [sigma[v] for v in rec.vertices[: rec.count]]
        assert labels == sorted(labels, reverse=True)
        assert len(set(labels)) == len(labels)
        pos = rec.positions[: rec.count]
        assert list(pos) == sorted(set(pos))
        assert all(p % k == 0 for p in pos)
        assert rec.vertices[0] == mark and rec.positions[0] == 0
        th = thread(A, mark, 0, w)
        assert rec.positions[-1] == th.twin_time
        assert rec.vertices[-1] == th.entries[th.twin_time][0]


def test_goodness_frozen():
    assert is_cycle_good(Labeled(A3, ID3), AB)
    assert not is_branch_good(MarkedLabeled(A3, 2, ID3), AB)


def test_cycle_bad_witness_frozen():
    A = random_automaton(4, 2, seed=1)
    assert A.rows == ((1, 2, 3, 3), (0, 0, 3, 3))
    x = Labeled(A, (0, 1, 2, 3))
    assert not is_cycle_good(x, AB)
    wit = cycle_collision(x, AB)
    assert wit.to_json_dict() == {
        "ihj": [1, 1, 1],
        "p": 1,
        "q": 1,
        "r": 0,
        "s": 1,
        "len": 1,
    }


def test_witness_json_dict_shape():
    wit = cycle_collision(Labeled(random_automaton(4, 2, seed=1), (0, 1, 2, 3)), AB)
    d = wit.to_json_dict()
    assert sorted(d) == ["ihj", "len", "p", "q", "r", "s"]
    assert d["len"] == len(wit.path) - 1


def test_single_word_always_good_at_length_one():
    # with a one-letter word every arrival sits at congruence zero,
    # which the same-word rule discards, so nothing can collide
    w = Word("a")
    for i in range(400):
        seed = trial_seed(32, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 15))
        A = random_automaton(n, 2, seed=seed)
        sigma = random_labeling(n, rng)
        assert is_cycle_good(Labeled(A, sigma), w)
        assert is_branch_good(MarkedLabeled(A, int(rng.integers(n)), sigma), w)


def test_cross_word_collisions_exist_at_length_one():
    # cross-word arrivals count even at congruence zero, so the pair
    # predicates are not vacuous for one-letter words
    wa, wb = Word("a"), Word("b")
    A = Automaton([[0, 0], [0, 0]])
    y = DoubleMarked(A, 0, 1, (0, 1), (0, 1))
    wit = find_collision(y, wa, wb, ALL_TRIPLES)
    assert wit.to_json_dict() == {
        "ihj": [2, 1, 2],
        "p": 1,
        "q": 2,
        "r": 0,
        "s": 0,
        "len": 1,
    }
    A2 = Automaton([[0, 0], [0, 1]])
    assert has_minima_collision(A2, (0, 1), (0, 1), wa, wb)


def test_cross_word_collision_frozen():
    w1, w2 = Word("aab"), Word("abb")
    A = random_automaton(6, 2, seed=0)
    assert A.rows == ((5, 3, 3, 1, 1, 0), (0, 0, 1, 4, 3, 5))
    rng = rng_from_seed(0)
    s1 = random_labeling(6, rng)
    s2 = random_labeling(6, rng)
    assert s1 == (3, 2, 5, 4, 0, 1) and s2 == (4, 5, 1, 2, 0, 3)
    y = DoubleMarked(A, 0, 0, s1, s2)
    wits = _reference_find(y, w1, w2, ALL_TRIPLES, first_only=False)
    assert len(wits) == 26
    mixed = [w for w in wits if w.ihj == (1, 2, 1)]
    assert mixed[0] == find_collision(y, w1, w2, ((1, 2, 1),))
    assert mixed[0].to_json_dict() == {
        "ihj": [1, 2, 1],
        "p": 1,
        "q": 1,
        "r": 0,
        "s": 1,
        "len": 4,
    }


def test_minima_collision_frozen_instances():
    w1, w2 = Word("aab"), Word("abb")
    for n, seed, want in ((6, 0, True), (40, 9565, False)):
        A = random_automaton(n, 2, seed=seed)
        rng = rng_from_seed(seed ^ 0xABCDEF)
        s1 = random_labeling(n, rng)
        s2 = random_labeling(n, rng)
        assert has_minima_collision(A, s1, s2, w1, w2) is want


def test_first_witness_matches_full_scan():
    w1, w2 = Word("aab"), Word("abb")
    hits = 0
    for i in range(60):
        seed = trial_seed(33, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(3, 10))
        A = random_automaton(n, 2, seed=seed)
        y = DoubleMarked(
            A,
            int(rng.integers(n)),
            int(rng.integers(n)),
            random_labeling(n, rng),
            random_labeling(n, rng),
        )
        full = _reference_find(y, w1, w2, ALL_TRIPLES, first_only=False)
        first = find_collision(y, w1, w2, ALL_TRIPLES)
        if full:
            hits += 1
            assert first == full[0]
        else:
            assert first is None
    assert hits > 0


def test_witness_paths_replay():
    """The first witness path of each single triple is a real thread
    segment from (p, r) to an arrival on one of coordinate j's records."""
    w1, w2 = Word("aab"), Word("abb")
    words = {1: w1, 2: w2}
    checked = 0
    for i in range(40):
        seed = trial_seed(34, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(3, 9))
        A = random_automaton(n, 2, seed=seed)
        y = DoubleMarked(
            A,
            int(rng.integers(n)),
            int(rng.integers(n)),
            random_labeling(n, rng),
            random_labeling(n, rng),
        )
        idx = {
            1: branch_records(MarkedLabeled(A, y.mark1, y.sigma1), w1).vertices,
            2: branch_records(MarkedLabeled(A, y.mark2, y.sigma2), w2).vertices,
        }
        for triple in ALL_TRIPLES:
            wit = find_collision(y, w1, w2, (triple,))
            if wit is None:
                continue
            i_, h, j = wit.ihj
            assert wit.ihj == triple
            k = len(words[h])
            letters = words[h].letters
            path = wit.path
            assert path[0] == (idx[i_][wit.p - 1], wit.r)
            assert path[-1] == (idx[j][wit.q - 1], wit.s)
            for (u, c), (u2, c2) in zip(path, path[1:]):
                assert u2 == A.rows[letters[c]][u]
                assert c2 == (c + 1) % k
            if j == h:
                assert wit.s != 0
            checked += 1
    assert checked > 50


def test_all_triples_split():
    assert set(FIRST_THEN_SECOND) | set(SECOND_THEN_FIRST) == set(ALL_TRIPLES)
    assert len(ALL_TRIPLES) == 8
    assert len(FIRST_THEN_SECOND) == 5 and len(SECOND_THEN_FIRST) == 5
    assert set(FIRST_THEN_SECOND) & set(SECOND_THEN_FIRST) == {(1, 1, 1), (2, 2, 2)}


def test_both_orders_clean_means_all_clean():
    w1, w2 = Word("aab"), Word("abb")
    for i in range(150):
        seed = trial_seed(35, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(3, 12))
        A = random_automaton(n, 2, seed=seed)
        y = DoubleMarked(
            A,
            int(rng.integers(n)),
            int(rng.integers(n)),
            random_labeling(n, rng),
            random_labeling(n, rng),
        )
        both = (find_collision(y, w1, w2, FIRST_THEN_SECOND) is None
                and find_collision(y, w1, w2, SECOND_THEN_FIRST) is None)
        neither = find_collision(y, w1, w2, ALL_TRIPLES) is None
        assert both == neither


def test_word_pair_preconditions():
    y = DoubleMarked(A3, 0, 0, ID3, ID3)
    with pytest.raises(ValueError):
        find_collision(y, Word("ab"), Word("aab"), ALL_TRIPLES)
    with pytest.raises(ValueError):
        find_collision(y, Word("ab"), Word("ba"), ALL_TRIPLES)
    with pytest.raises(ValueError):
        find_collision(y, Word("abab"), Word("aabb"), ALL_TRIPLES)
    with pytest.raises(ValueError):
        has_minima_collision(A3, ID3, ID3, Word("aab"), Word("aab"))
    # which holds only the eight (i, h, j) triples over coordinates 1 and 2
    x = DoubleLabeled(A3, ID3, ID3)
    for which in ([(3, 1, 1)], [(1, 1)], [(1, 1, 1), (0, 2, 2)], [[1, 1, 1]]):
        for z in (x, y):
            with pytest.raises(ValueError, match="which"):
                find_collision(z, Word("aab"), Word("abb"), which)


def test_good_marked_tree_decomposition():
    w = AB
    seen = {True: 0, False: 0}
    for i in range(400):
        seed = trial_seed(36, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 8))
        A = random_automaton(n, 2, seed=seed)
        y = MarkedLabeled(A, int(rng.integers(n)), random_labeling(n, rng))
        expect = (
            is_w_tree(A, w)
            and thread(A, y.mark, 0, w).cut_time % len(w) == 0
            and is_branch_good(y, w)
        )
        got = is_good_marked_tree(y, w)
        assert got == expect
        seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_goodness_relabel_equivariance():
    """Renaming states together with labels and marks changes nothing."""
    w1, w2 = Word("aab"), Word("abb")
    for i in range(150):
        seed = trial_seed(37, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 10))
        A = random_automaton(n, 2, seed=seed)
        sigma = random_labeling(n, rng)
        mark = int(rng.integers(n))
        pi = random_labeling(n, rng)
        rows = [[0] * n for _ in range(2)]
        for ell in range(2):
            for v in range(n):
                rows[ell][pi[v]] = pi[A.rows[ell][v]]
        B = Automaton(rows)
        sigma2 = [0] * n
        for v in range(n):
            sigma2[pi[v]] = sigma[v]
        sigma2 = tuple(sigma2)
        assert is_cycle_good(Labeled(A, sigma), w1) == is_cycle_good(
            Labeled(B, sigma2), w1
        )
        assert is_branch_good(MarkedLabeled(A, mark, sigma), w1) == is_branch_good(
            MarkedLabeled(B, pi[mark], sigma2), w1
        )
        assert has_minima_collision(A, sigma, sigma, w1, w2) == has_minima_collision(
            B, sigma2, sigma2, w1, w2
        )


def _minima_collision_oracle(A, sigma1, sigma2, w1, w2):
    # independent rewalk: run every minima thread under both words and
    # apply the arrival rule directly
    words = {1: w1, 2: w2}
    k = len(w1)
    targets = {}
    for i, (w, sigma) in enumerate(((w1, sigma1), (w2, sigma2)), start=1):
        f = one_letter_view(A, w)
        mins = set()
        for cyc in cycles(f):
            mins.add(min(cyc, key=lambda u: sigma[u]))
        targets[i] = mins
    for i in (1, 2):
        for h in (1, 2):
            letters = words[h].letters
            for v in targets[i]:
                for r in range(k):
                    u, c = v, r
                    seen = {(u, c)}
                    while True:
                        u = A.rows[letters[c]][u]
                        c = (c + 1) % k
                        if (u, c) in seen:
                            break
                        seen.add((u, c))
                        for j in (1, 2):
                            if u in targets[j] and (j, c) != (h, 0):
                                return True
    return False


def test_minima_collision_against_rewalk_oracle():
    w1, w2 = Word("aab"), Word("abb")
    outcomes = {True: 0, False: 0}
    # collision-free draws are rare even at this size, so add one known
    # negative instance to pin the quiet side too
    cases = [trial_seed(38, i) for i in range(250)]
    for seed in cases + [9565]:
        rng = rng_from_seed(seed)
        n = 40 if seed == 9565 else int(rng.integers(2, 12))
        A = random_automaton(n, 2, seed=seed)
        if seed == 9565:
            rng = rng_from_seed(seed ^ 0xABCDEF)
        s1 = random_labeling(n, rng)
        s2 = random_labeling(n, rng)
        got = has_minima_collision(A, s1, s2, w1, w2)
        assert got == _minima_collision_oracle(A, s1, s2, w1, w2)
        outcomes[got] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_every_congruence_zero_thread_hits_a_minimum():
    """Cycle minima absorb every congruence-0 thread eventually."""
    w = AB
    for n in (2, 3):
        for rows in itertools.product(
            itertools.product(range(n), repeat=n), repeat=2
        ):
            A = Automaton(rows)
            f = one_letter_view(A, w)
            cyc_sets = cycles(f)
            for perm in itertools.permutations(range(n)):
                mins = {min(c, key=lambda u: perm[u]) for c in cyc_sets}
                for v in range(n):
                    th = thread(A, v, 0, w)
                    visited = {u for u, c in th.entries if c == 0}
                    visited.add(th.entries[th.twin_time][0])
                    assert visited & mins


def test_labeling_validation():
    with pytest.raises(ValueError):
        Labeled(A3, (0, 1))
    with pytest.raises(ValueError):
        Labeled(A3, (0, 1, 1))
    with pytest.raises(ValueError, match="^mark out of range$"):
        MarkedLabeled(A3, 3, ID3)
    with pytest.raises(ValueError, match="^mark out of range$"):
        DoubleMarked(A3, 0, -1, ID3, ID3)
    # the fields are checked in order: marks first, then the labelings
    for cls, args, message in (
            (MarkedLabeled, (A3, 3, (0, 0, 0)), "mark out of range"),
            (DoubleMarked, (A3, 0, 1.5, (0,), ID3), "marks must be integers"),
            (DoubleMarked, (A3, 0, 2, (0,), ID3), "sigma must be a permutation of the states"),
            (DoubleMarked, (A3, 0, 2, ID3, 5), "sigma must hold integer labels"),
            (DoubleLabeled, (A3, ID3, (0, 1, 3)), "sigma must be a permutation of the states"),
            (Labeled, (A3, (0, 1, True)), "sigma labels must be integers")):
        with pytest.raises(ValueError, match="^%s$" % message):
            cls(*args)


def test_labeled_fields_follow_the_check_prefixes():
    # _check_fields picks its check by field name prefix, so a later field
    # such as marker or sigma_cache would be checked as a state or labeling
    for cls in (Labeled, MarkedLabeled, DoubleMarked, DoubleLabeled):
        names = [f.name for f in dataclasses.fields(cls)]
        assert names[0] == "automaton"
        assert all(re.fullmatch(r"(mark|sigma)[12]?", name) for name in names[1:]), cls


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**64 - 1))
def test_random_labeling_is_a_permutation_of_plain_ints(n, seed):
    # the lab trials read records off these draws without _check_sigma
    sigma = random_labeling(n, rng_from_seed(seed))
    assert type(sigma) is tuple
    assert all(type(x) is int for x in sigma)
    assert sorted(sigma) == list(range(n))


def test_labelings_and_marks_must_be_integers():
    # int() would truncate these to a valid labeling or mark
    with pytest.raises(ValueError):
        Labeled(A3, (0.9, 1.2, 2.5))
    with pytest.raises(ValueError):
        Labeled(A3, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        MarkedLabeled(A3, 1.5, ID3)
    with pytest.raises(ValueError):
        DoubleLabeled(A3, ID3, ("0", "1", "2"))
    with pytest.raises(ValueError):
        DoubleMarked(A3, 0, 1.0, ID3, ID3)
    with pytest.raises(ValueError):
        DoubleMarked(A3, 0, 0, ID3, (2, 1, 0.5))
    # bools are ints to Python, but no labels or marks
    with pytest.raises(ValueError):
        Labeled(Automaton([[1, 0], [0, 0]]), (True, False))
    with pytest.raises(ValueError):
        MarkedLabeled(Automaton([[1, 0], [0, 0]]), True, (0, 1))
    # numpy integers are integers, and are stored as ints
    y = MarkedLabeled(A3, np.int64(2), np.arange(3))
    assert y.sigma == ID3 and y.mark == 2
    assert type(y.mark) is int and all(type(v) is int for v in y.sigma)
    assert random_labeling(3, rng_from_seed(0)) == tuple(
        int(v) for v in rng_from_seed(0).permutation(3)
    )


def _reference_scan(A, walk_word, source_index, target_index, skip_zero, ihj, first_only):
    # the collision scan with one walk set per (i, h, j) triple, each walk
    # carrying its path; kept as the reference for find_collision and as
    # the only all-witness listing
    k = len(walk_word)
    rows = A.rows
    letters = walk_word.letters
    out = []
    for v, p in sorted(source_index.items(), key=lambda kv: kv[1]):
        for r in range(k):
            u, c = v, r
            seen = {u * k + c}
            path = [(u, c)]
            while True:
                u = rows[letters[c]][u]
                c += 1
                if c == k:
                    c = 0
                key = u * k + c
                if key in seen:
                    break
                seen.add(key)
                path.append((u, c))
                q = target_index.get(u)
                if q is not None and not (skip_zero and c == 0):
                    out.append(CollisionWitness(ihj, p, q, r, c, tuple(path)))
                    if first_only:
                        return out
    return out


def _reference_find(x, w1, w2, which, first_only):
    A = x.automaton
    words = {1: w1, 2: w2}
    if isinstance(x, DoubleLabeled):
        coords = {1: Labeled(A, x.sigma1), 2: Labeled(A, x.sigma2)}
        records = cycle_minima
    else:
        coords = {1: MarkedLabeled(A, x.mark1, x.sigma1), 2: MarkedLabeled(A, x.mark2, x.sigma2)}
        records = branch_records
    idx = {}
    for i in (1, 2):
        idx[i] = {}
        for pos, v in enumerate(records(coords[i], words[i]).vertices):
            idx[i].setdefault(v, pos + 1)
    out = []
    for ihj in which:
        i, h, j = ihj
        out.extend(_reference_scan(A, words[h], idx[i], idx[j], j == h, ihj, first_only))
        if first_only and out:
            return out
    return out


@st.composite
def _double_configurations(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(3, 6))
    delta = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=2, max_size=2))
    words = list(enumerate_nc_words(k))
    w1 = draw(st.sampled_from(words))
    w2 = draw(st.sampled_from([w for w in words if not are_conjugate(w, w1)]))
    A = Automaton(delta)
    s1 = draw(st.permutations(range(n)))
    s2 = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        x = DoubleMarked(A, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), s1, s2)
    else:
        x = DoubleLabeled(A, s1, s2)
    return x, w1, w2


_WHICH = (ALL_TRIPLES, FIRST_THEN_SECOND, SECOND_THEN_FIRST) + tuple((t,) for t in ALL_TRIPLES)


@settings(max_examples=400, deadline=None)
@given(case=_double_configurations(), which=st.sampled_from(_WHICH))
def test_find_collision_matches_reference_scan(case, which):
    x, w1, w2 = case
    want = _reference_find(x, w1, w2, which, first_only=True)
    assert find_collision(x, w1, w2, which) == (want[0] if want else None)


@st.composite
def _labeling_pairs(draw):
    n = draw(st.integers(1, 6))
    delta = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=2, max_size=2))
    w = Word(draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)))
    mark = draw(st.integers(0, n - 1))
    return Automaton(delta), w, mark, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=400, deadline=None)
@given(case=_labeling_pairs())
def test_goodness_is_a_function_of_the_record_set(case):
    # the audit scans each distinct record set of an automaton, or of a
    # mark, once for all its labelings; that is sound because two labelings
    # with the same record vertices agree on goodness
    A, w, mark, s1, s2 = case
    x1, x2 = Labeled(A, s1), Labeled(A, s2)
    if cycle_minima(x1, w).vertices == cycle_minima(x2, w).vertices:
        assert is_cycle_good(x1, w) == is_cycle_good(x2, w)
    y1, y2 = MarkedLabeled(A, mark, s1), MarkedLabeled(A, mark, s2)
    if branch_records(y1, w).vertices == branch_records(y2, w).vertices:
        assert is_branch_good(y1, w) == is_branch_good(y2, w)
