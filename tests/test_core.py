import itertools
import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrotree.core import (
    Automaton,
    SchemaError,
    Word,
    _sorted_unique,
    apply_word,
    apply_word_all,
    are_conjugate,
    automaton_from_json,
    count_nc_words,
    cycles,
    cyclic_points,
    enumerate_nc_words,
    height,
    is_self_conjugate,
    is_w_tree,
    loop_root,
    one_letter_view,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    shift,
    thread,
    tree_root,
    trial_seed,
)

A3 = Automaton([[1, 2, 0], [0, 0, 0]])
AB = Word("ab")


def test_word_basics():
    w = Word("aab")
    assert w.letters == (0, 0, 1)
    assert len(w) == 3
    assert w.text == "aab"
    assert w.rotate(1) == Word("aba")
    assert w.rotate(3) == w
    assert w.repeat(2) == Word("aabaab")
    assert Word("ba") == Word((1, 0))
    assert Word("ab").text == "ab"
    assert Word((0, 2, 1)).text == "acb"
    with pytest.raises(ValueError):
        Word(())
    # a float or bool letter is refused, not truncated to an int
    for letters in ([0.9, 1.7], [True], [0, False]):
        with pytest.raises(ValueError):
            Word(letters)
    assert Word(np.array([1, 0])) == Word("ba")


def test_repeat_takes_only_whole_counts():
    # int() would truncate 2.5 to 2 and read True as 1
    for times, message in ((2.5, "times must be integers"),
                           (True, "times must be integers"),
                           (-1, "times must be >= 0")):
        with pytest.raises(ValueError, match="^%s$" % message):
            AB.repeat(times)
    assert AB.repeat(np.int64(3)) == Word("ababab")
    with pytest.raises(ValueError, match="^a word needs at least one letter$"):
        AB.repeat(0)


@given(
    st.integers(2, 40).flatmap(
        lambda r: st.tuples(
            st.just(r), st.lists(st.integers(0, r - 1), min_size=1, max_size=8)
        )
    )
)
def test_word_round_trips_its_text(case):
    _, letters = case
    w = Word(letters)
    assert Word(w.text) == w


def test_word_accepts_only_canonical_text():
    assert Word("10") == Word((10,))
    assert Word("0,2,1") == Word((0, 2, 1))
    assert Word("0") == Word((0,))
    assert Word((0, 27)).text == "0,27"
    for text in ("01", "0101", "", ",1", "1,", "1,,2", "+1", " 1", "1_0",
                 "a1", "AB", "\u00b2", "0,01"):
        with pytest.raises(ValueError):
            Word(text)


def test_conjugacy_against_rotation_scan():
    # oracle: scan every rotation pair explicitly
    for k in range(1, 7):
        for letters in itertools.product(range(2), repeat=k):
            w = Word(letters)
            expect = any(w.rotate(m) == w for m in range(1, k))
            assert is_self_conjugate(w) == expect
    w1, w2 = Word("aab"), Word("aba")
    assert are_conjugate(w1, w2)
    assert not are_conjugate(w1, Word("abb"))
    assert not are_conjugate(w1, Word("ab"))


def test_nc_word_counts():
    assert [w.text for w in enumerate_nc_words(2)] == ["ab", "ba"]
    assert count_nc_words(1) == 2
    assert count_nc_words(4) == 12
    excluded = {"aaaa", "bbbb", "abab", "baba"}
    got = {w.text for w in enumerate_nc_words(4)}
    assert got == {"".join(t) for t in
                   ("".join(p) for p in itertools.product("ab", repeat=4))} - excluded


def test_nc_word_count_formula_matches_enumeration():
    for r in (2, 3):
        for k in range(1, 13):
            assert count_nc_words(k, r) == sum(1 for _ in enumerate_nc_words(k, r))
    with pytest.raises(ValueError):
        count_nc_words(0)
    with pytest.raises(ValueError, match="word length must be positive"):
        list(enumerate_nc_words(0))


def test_nc_lower_bound():
    # a_k is within k*2^(k/2) of 2^k
    for k in range(1, 17):
        a_k = count_nc_words(k)
        assert a_k >= 2 ** k - k * 2 ** (k / 2)
        assert a_k <= 2 ** k


def test_random_nc_word_is_never_self_conjugate():
    rng = rng_from_seed(5)
    for _ in range(300):
        w = random_nc_word(6, 2, rng)
        assert not is_self_conjugate(w)
        assert len(w) == 6


def test_random_nc_word_refuses_lengths_with_no_such_word():
    # on one letter every word longer than 1 is a power, so a draw would
    # loop forever; run in a fresh interpreter so that a regression fails
    # on the timeout instead of hanging the suite
    src = pathlib.Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    code = ("from synchrotree.core import random_nc_word, rng_from_seed\n"
            "for k, r in ((2, 1), (5, 1)):\n"
            "    try:\n"
            "        random_nc_word(k, r, rng_from_seed(0))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "print(random_nc_word(1, 1, rng_from_seed(0)).text)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout == (
        "no non-self-conjugate word of length 2 on 1 letter\n"
        "no non-self-conjugate word of length 5 on 1 letter\n"
        "a\n")


def test_automaton_validation():
    A = Automaton([[1, 0], [0, 0]])
    assert A.n == 2 and A.r == 2
    assert A.rows == ((1, 0), (0, 0))
    with pytest.raises(ValueError):
        Automaton([[2, 0], [0, 0]])
    with pytest.raises(ValueError):
        Automaton([[0, 1]])
    with pytest.raises(ValueError, match="2d table"):
        Automaton([0, 1])
    with pytest.raises(ValueError, match="at least one state"):
        Automaton([[], []])
    # a table must have an integer dtype: floats, bools and strings are
    # refused, not truncated to states, and so is a bool among int entries,
    # which numpy would promote to 0 or 1
    for table in ([[0.5, 1], [1, 0]], [[1.9, 0], [0, 1]], np.ones((2, 2)),
                  [[True, False], [False, True]], [["1", "0"], ["0", "1"]],
                  [[True, 0], [0, 1]], ((1, 0), (0, np.True_)),
                  [np.array([True, False]), [0, 1]]):
        with pytest.raises(ValueError, match="integer"):
            Automaton(table)
    assert Automaton(np.array([[1, 0], [0, 0]], dtype=np.uint8)) == A


def test_kernel_refuses_all_but_successor_arrays():
    # cycles, cyclic_points, height and loop_root take a successor array of
    # any integer dtype and leave the caller's array writeable
    a = np.array([1, 0, 0])
    for fn, want in ((cycles, ((0, 1),)), (cyclic_points, {0, 1}),
                     (height, 2), (loop_root, None)):
        assert fn(a) == want and a.flags.writeable
        assert fn(a.astype(np.uint8)) == want
        # non-integer dtypes are refused rather than truncated; numpy turns
        # a bool among ints into 0 or 1, so the bool mixes are refused as
        # the lists they are
        for succ in (np.array([0.5, 0]), np.array([True, False]),
                     np.array(["1", "0"]), np.zeros(2), [True, 0], (0, np.False_),
                     np.array([True, 0], dtype=object), [0, 0], np.array([[0]]),
                     np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="integer"):
                fn(succ)
        for succ in ([0, 2], [0, -2], [0, -1, 1], [0, 5]):
            with pytest.raises(ValueError, match="range"):
                fn(np.array(succ))
    assert loop_root(np.array([0, 0, 1], dtype=np.uint8)) == 0


def test_rows_built_lazily_match_eager_rows():
    for n, seed in ((1, 0), (7, 3), (40, 11)):
        A = random_automaton(n, 3, seed=seed)
        B = random_automaton(n, 3, seed=seed)
        eager = tuple(tuple(int(x) for x in row) for row in A.delta)
        # hashing and comparing read rows, so take the hash first
        assert hash(A) == hash((n, 3, eager))
        assert A.rows == eager and A.rows is A.rows
        assert A == B and hash(A) == hash(B)
        for fresh in (False, True):
            C = pickle.loads(pickle.dumps(random_automaton(n, 3, seed=seed) if fresh else A))
            assert C == A and hash(C) == hash(A) and C.rows == eager
            assert np.array_equal(C.delta, A.delta) and not C.delta.flags.writeable


def test_random_automaton_contract():
    one = random_automaton(1, 2, seed=9)
    assert one.rows == ((0,), (0,))
    assert random_automaton(5, 2, seed=42) == random_automaton(5, 2, seed=42)
    assert random_automaton(5, 2, seed=42) != random_automaton(5, 2, seed=43)
    with pytest.raises(ValueError):
        random_automaton(0, 2)
    with pytest.raises(ValueError):
        random_automaton(3, 1)
    # a generator is drawn from in place, as rng.integers would draw
    rng, ref = rng_from_seed(7), rng_from_seed(7)
    assert random_automaton(5, 3, seed=rng) == Automaton(ref.integers(0, 5, size=(3, 5)))
    assert rng.integers(1 << 30) == ref.integers(1 << 30)
    assert random_automaton(5, 2, seed=rng_from_seed(42)) == random_automaton(5, 2, seed=42)


def test_random_automaton_marginal_uniform():
    # chi-square on delta[0][0] over 30000 draws, 3 cells
    counts = [0, 0, 0]
    for seed in range(30000):
        counts[random_automaton(3, 2, seed=seed).rows[0][0]] += 1
    expected = 10000.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 2 degrees of freedom; 4 sigma-ish cutoff
    assert chi2 < 18.0, counts


def test_apply_word():
    assert apply_word(A3, 0, AB) == 0
    assert apply_word(A3, 2, Word("b")) == 0
    assert apply_word_all(A3, AB).tolist() == [0, 0, 0]
    with pytest.raises(TypeError):
        apply_word_all(A3, AB, states=[0])
    with pytest.raises(ValueError, match="^state out of range$"):
        apply_word(A3, 3, AB)
    with pytest.raises(ValueError, match="^state out of range$"):
        apply_word(A3, -1, AB)
    with pytest.raises(ValueError):
        apply_word(A3, 0, Word((2,)))
    assert apply_word(A3, np.int64(2), Word("b")) == 0
    for state in (True, 2.0, "1"):
        with pytest.raises(ValueError, match="^states must be integers$"):
            apply_word(A3, state, AB)


def test_thread_a3():
    t = thread(A3, 0, 0, AB)
    assert t.entries == ((0, 0), (1, 1))
    assert t.cut_time == 2 and t.twin_time == 0
    assert t.period == 1 and t.is_cyclic

    t = thread(A3, 2, 0, AB)
    assert t.entries == ((2, 0), (0, 1), (0, 0), (1, 1))
    assert t.cut_time == 4 and t.twin_time == 2
    assert t.period == 1 and not t.is_cyclic


def test_thread_takes_only_integer_states_and_congruences():
    assert thread(A3, np.int64(2), np.int32(1), AB).start == (2, 1)
    for u, r, message in ((True, 0, "states must be integers"),
                          (0, True, "congruences must be integers"),
                          (2.0, 0, "states must be integers"),
                          (0, 1.0, "congruences must be integers"),
                          ("0", 0, "states must be integers"),
                          (3, 0, "state out of range"),
                          (-1, 0, "state out of range"),
                          (0, 2, "congruence out of range"),
                          (0, -1, "congruence out of range")):
        with pytest.raises(ValueError, match="^%s$" % message):
            thread(A3, u, r, AB)


def test_thread_identity_automaton():
    A = Automaton([[0, 1], [0, 1]])
    t = thread(A, 0, 0, AB)
    assert t.entries == ((0, 0), (0, 1))
    assert t.cut_time == 2 and t.twin_time == 0


def test_thread_loop_of_length_one():
    # state 0 is fixed by the whole word: the thread walks one block
    A = Automaton([[0, 0, 1], [0, 2, 2]])
    t = thread(A, 0, 0, AB)
    assert t.cut_time == 2 and t.twin_time == 0 and t.period == 1


def test_thread_invariants_random():
    rng = rng_from_seed(77)
    for trial in range(400):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 6))
        A = random_automaton(n, 2, seed=trial_seed(77, trial))
        w = Word(rng.integers(0, 2, size=k).tolist())
        u = int(rng.integers(0, n))
        r = int(rng.integers(0, k))
        t = thread(A, u, r, w)
        assert len(set(t.entries)) == len(t.entries)
        assert t.entries[0] == (u, r)
        # recompute the step at cut_time: it must equal the twin entry
        v, c = t.entries[-1]
        nxt = (A.rows[w.letters[c]][v], (c + 1) % k)
        assert nxt == t.entries[t.twin_time]
        assert (t.cut_time - t.twin_time) % k == 0
        assert t.period >= 1


def test_one_letter_view_and_cyclic_points():
    assert one_letter_view(A3, Word("b")).tolist() == [0, 0, 0]
    assert one_letter_view(A3, Word("a")).tolist() == [1, 2, 0]
    assert one_letter_view(A3, AB).tolist() == [0, 0, 0]
    assert cyclic_points(one_letter_view(A3, AB)) == {0}
    assert cyclic_points(np.array([0, 0, 0])) == {0}
    assert cyclic_points(np.array([1, 2, 0])) == {0, 1, 2}


def test_is_w_tree():
    assert is_w_tree(A3, Word("b"))
    assert not is_w_tree(A3, Word("a"))
    assert is_w_tree(A3, AB)
    assert tree_root(A3, AB) == 0
    with pytest.raises(ValueError):
        tree_root(A3, Word("a"))


def test_apply_word_all_matches_the_index_loop():
    # the 1-d row gathers give the old 2-d gathers from arange(n), as a
    # fresh writeable int64 array, never a view of the read-only delta
    for r in (2, 3):
        for seed, n in enumerate((1, 3, 50)):
            A = random_automaton(n, r, seed=seed)
            for k in (1, 2, 5):
                w = Word(rng_from_seed(seed + k).integers(0, r, size=k).tolist())
                want = np.arange(n, dtype=np.int64)
                for l in w.letters:
                    want = A.delta[l, want]
                out = apply_word_all(A, w)
                assert out.dtype == np.int64 and out.tolist() == want.tolist()
                assert out.flags.writeable and not np.shares_memory(out, A.delta)


def test_is_w_tree_power_stable():
    rng = rng_from_seed(123)
    for trial in range(200):
        n = int(rng.integers(2, 20))
        A = random_automaton(n, 2, seed=trial_seed(123, trial))
        k = int(rng.integers(1, 5))
        w = Word(rng.integers(0, 2, size=k).tolist())
        base = is_w_tree(A, w)
        for m in (2, 3):
            assert is_w_tree(A, w.repeat(m)) == base


@st.composite
def _small_automata_and_words(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(2, 3))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    A = Automaton(draw(st.lists(row, min_size=r, max_size=r)))
    return A, Word(draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(case=_small_automata_and_words())
def test_is_w_tree_conjugation_and_power_invariant(case):
    # f_uv and f_vu have the same cycle type on their periodic points, and
    # f^m the same periodic points as f, so a tree word's rotations and
    # powers are tree words; the tree search relies on both to skip words
    A, w = case
    base = is_w_tree(A, w)
    for m in range(1, len(w)):
        assert is_w_tree(A, w.rotate(m)) == base
    for e in (2, 3):
        assert is_w_tree(A, w.repeat(e)) == base


def test_height():
    assert height(np.array([0, 0, 0])) == 1
    assert height(np.array([0, 1, 2])) == 0
    assert height(one_letter_view(A3, AB)) == 1
    # chain 3 -> 2 -> 1 -> 0 -> 0
    assert height(np.array([0, 0, 1, 2])) == 3


def test_height_leaves_numpy_ma_unloaded():
    # np.unique would import numpy.ma, 1.25 MB resident that no lab height
    # run otherwise loads; a fresh interpreter, as other tests import it.
    # 2 and 3 both lead only to 1, so a round's front must drop a duplicate
    src = pathlib.Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    code = ("import sys, numpy as np; from synchrotree.core import height; "
            "print(height(np.array([0, 0, 1, 1, 2, 3])), 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout == "3 False\n"


@given(st.lists(st.integers(0, 9), max_size=30))
def test_sorted_unique_matches_np_unique(xs):
    a = np.array(xs, dtype=np.int64)
    got = _sorted_unique(a)
    assert got.dtype == np.int64 and got.tolist() == np.unique(a).tolist()


def _reference_height(f):
    # the former pure-Python height: cycles from cycles(), then depths by a
    # walk over predecessor lists
    succ = f.tolist()
    n = len(succ)
    on_cycle = [False] * n
    clen = [0] * n
    best = 0
    for cyc in cycles(f):
        for v in cyc:
            on_cycle[v] = True
            clen[v] = len(cyc)
        best = max(best, len(cyc) - 1)
    preds = [[] for _ in range(n)]
    for v in range(n):
        preds[succ[v]].append(v)
    depth = [0] * n
    stack = [v for v in range(n) if on_cycle[v]]
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if on_cycle[u]:
                continue
            depth[u] = depth[v] + 1
            clen[u] = clen[v]
            best = max(best, depth[u] + clen[u] - 1)
            stack.append(u)
    return best


@st.composite
def _maps(draw):
    # arbitrary maps, loop-rooted trees, permutations, permutations with
    # some entries redirected, which keep several cycles with tails, and
    # brooms
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["any", "tree", "perm", "mixed", "broom"]))
    if kind == "broom":
        return _broom(draw(st.integers(1000, 5000)), draw(st.integers(1, 5)),
                      draw(st.integers(0, 40)), draw(st.integers(0, 2**32)))
    if kind == "any":
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    if kind == "tree":
        succ = [order[0]] * n
        for i in range(1, n):
            succ[order[i]] = order[draw(st.integers(0, i - 1))]
        return succ
    succ = list(order)
    if kind == "mixed":
        for v in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            succ[v] = draw(st.integers(0, n - 1))
    return succ


def _broom(n, cyc, handle, seed):
    # a cycle of cyc vertices, a handle of handle vertices down to it, and
    # n - cyc - handle bristles: most share the handle's top as successor,
    # the rest hang off an earlier bristle
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    succ = [0] * n
    for i in range(cyc + handle):
        succ[order[i]] = order[(i + 1) % cyc if i < cyc else i - 1]
    hub = order[cyc + handle - 1]
    for i in range(cyc + handle, n):
        shared = i == cyc + handle or rng.random() < 0.9
        succ[order[i]] = hub if shared else order[int(rng.integers(cyc + handle, i))]
    return succ


def _reference_cycles(f):
    # the cycle lister before it tagged vertices with their walk's start
    succ = f.tolist()
    n = len(succ)
    state = [0] * n  # 0 fresh, 1 on the active path, 2 finished
    out = []
    for s in range(n):
        if state[s]:
            continue
        path = []
        v = s
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if state[v] == 1:
            out.append(tuple(path[path.index(v):]))
        for u in path:
            state[u] = 2
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(succ=_maps())
def test_height_and_loop_root_match_cycle_references(succ):
    f = np.array(succ)
    assert cycles(f) == _reference_cycles(f)
    assert height(f) == _reference_height(f)
    pts = cyclic_points(f)
    assert loop_root(f) == (min(pts) if len(pts) == 1 else None)


def test_shift():
    assert shift(A3, 0, AB) == 0
    assert shift(A3, 2, AB) == 0
    with pytest.raises(ValueError):
        shift(A3, 0, Word("a"))
    # k=1 trees always report 0
    A = Automaton([[0, 0], [1, 0]])
    assert shift(A, 1, Word("a")) == 0


def test_cycle_structure_cross_oracle():
    # thread period equals the cycle length of the walked component
    rng = rng_from_seed(31)
    for trial in range(300):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, 5))
        A = random_automaton(n, 2, seed=trial_seed(31, trial))
        w = Word(rng.integers(0, 2, size=k).tolist())
        F = one_letter_view(A, w)
        cycle_of = {}
        for cyc in cycles(F):
            for v in cyc:
                cycle_of.update((u, len(cyc)) for u in cyc)
        for u in range(n):
            t = thread(A, u, 0, w)
            # first congruence-0 time in the cyclic part: that vertex is
            # cyclic in the one-letter view and its cycle length is the period
            idx = t.twin_time + (-t.twin_time) % k
            v0 = t.entries[idx][0]
            assert v0 in cycle_of
            assert t.period == cycle_of[v0]


def test_congruence_zero_thread_reaches_cycle():
    rng = rng_from_seed(13)
    for trial in range(200):
        n = int(rng.integers(2, 15))
        A = random_automaton(n, 2, seed=trial_seed(13, trial))
        w = Word(rng.integers(0, 2, size=int(rng.integers(1, 4))).tolist())
        pts = cyclic_points(one_letter_view(A, w))
        assert pts
        for u in range(n):
            t = thread(A, u, 0, w)
            walked = {v for v, c in t.entries if c == 0}
            assert walked & pts or t.entries[t.twin_time][0] in pts


def test_cayley_count():
    # loop-rooted one-letter maps on n states number n^(n-1)
    for n in range(2, 7):
        total = 0
        for succ in itertools.product(range(n), repeat=n):
            if len(cyclic_points(np.array(succ))) == 1:
                total += 1
        assert total == n ** (n - 1)


def test_json_round_trip():
    doc = {
        "format": "synchrotree-automaton-v1",
        "n": 3,
        "alphabet": 2,
        "delta": [[1, 2, 0], [0, 0, 0]],
    }
    assert automaton_from_json(doc) == A3
    for bad, field in (
        ([A3.to_json_dict()], "automaton document must be a JSON object"),
        ({}, "format"),
        ({"format": "synchrotree-automaton-v1"}, "n"),
        ({"format": "synchrotree-automaton-v1", "n": 2}, "alphabet"),
        ({"format": "synchrotree-automaton-v1", "n": 2, "alphabet": 2,
          "delta": [[0, 1]]}, "delta"),
        ({"format": "synchrotree-automaton-v1", "n": 2, "alphabet": 2,
          "delta": [[0, 5], [0, 0]]}, "delta[0][1]"),
        ({"format": "synchrotree-automaton-v1", "n": 2, "alphabet": 2,
          "delta": [[0, 1], [0, -2 ** 70]]}, "delta[1][1]: state out of range"),
        ({**doc, "delta": [[1, 2 ** 63, 0], [0, 0, 0]]}, "delta[0][1]: state out of range"),
        ({**doc, "delta": [[1, 2, 0], [2 ** 64, 0, 0]]}, "delta[1][0]: state out of range"),
        # JSON true/false load as bool, an int subclass; none is a number
        ({**doc, "n": True}, "n"),
        ({**doc, "alphabet": True}, "alphabet"),
        ({**doc, "delta": [[1, True, 0], [0, 0, 0]]}, "delta[0][1]"),
        ({**doc, "delta": [[1, 2, 0], [0, 0, False]]}, "delta[1][2]"),
        ({**doc, "delta": [[1, 2, 0], [0, 1.0, 0]]}, "delta[1][1]"),
        ({**doc, "delta": [[1, 2, 0], [0, 0]]}, "delta[1]: expected 3 entries"),
    ):
        with pytest.raises(SchemaError) as err:
            automaton_from_json(bad)
        assert field in str(err.value)


def test_seed_derivation_is_stable():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 1) != trial_seed(0, 2)
    # documented avalanche constant keeps streams apart across seeds
    seen = {trial_seed(s, t) for s in range(4) for t in range(256)}
    assert len(seen) == 4 * 256
