import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrotree import sync
from synchrotree.cli import main
from synchrotree.core import (
    Automaton,
    Word,
    apply_word_all,
    cyclic_points,
    height,
    is_self_conjugate,
    loop_root,
    one_letter_view,
    random_automaton,
    trial_seed,
)
from synchrotree.lab import save_automaton
from synchrotree.sync import (
    SyncCertificate,
    cerny_automaton,
    find_tree_word,
    greedy_fallback,
    is_synchronizable,
    is_synchronizing,
    iter_tree_words,
    pick_tree_length,
    shortest_sync_word_exact,
    tree_sync_word,
)

A3 = Automaton([[1, 2, 0], [0, 0, 0]])


def test_cerny_fixture():
    assert cerny_automaton(3).rows == ((1, 2, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        cerny_automaton(1)


def test_cerny_shortest_lengths():
    # the classical family needs exactly (n-1)^2 letters
    for n in range(2, 8):
        w = shortest_sync_word_exact(cerny_automaton(n))
        assert len(w) == (n - 1) ** 2


def test_is_synchronizing_values():
    assert is_synchronizing(A3, Word("b")) == 0
    assert is_synchronizing(A3, Word("a")) is None
    assert is_synchronizing(A3, Word("abab")) == 0


def test_find_tree_word_examples():
    assert find_tree_word(A3, 1) == (Word("b"), 1, 0)
    assert find_tree_word(A3, 2) == (Word("ab"), 1, 0)
    ident = Automaton([[0, 1, 2], [0, 1, 2]])
    for k in (1, 2, 3):
        assert find_tree_word(ident, k) is None


def test_find_tree_word_validation():
    with pytest.raises(ValueError):
        find_tree_word(A3, 0)
    # budgets are whole numbers >= 0, checked before any word is examined
    for budget, message in ((-1, "budget must be >= 0"), (2.5, "budget must be integers"),
                            ("3", "budget must be integers"), (True, "budget must be integers")):
        with pytest.raises(ValueError, match="^%s$" % message):
            iter_tree_words(A3, 2, budget=budget)
        with pytest.raises(ValueError, match="^%s$" % message):
            tree_sync_word(A3, budget=budget)
    assert find_tree_word(A3, 2, np.int64(0)) is None
    # the search has one order and no other knobs
    for knob in ({"mode": "sampled"}, {"seed": 0}, {"allow_self_conjugate": True}):
        for search in (iter_tree_words, find_tree_word):
            with pytest.raises(TypeError):
                search(A3, 2, **knob)
        with pytest.raises(TypeError):
            tree_sync_word(A3, **knob)


def test_find_tree_word_skips_self_conjugate_words():
    # only the square of a works at length 2, and it is its own rotation;
    # a itself is the tree word, found at length 1
    A = Automaton([[1, 2, 2], [1, 0, 2]])
    assert find_tree_word(A, 2) is None
    assert find_tree_word(A, 1) == (Word("a"), 2, 2)


def _reference_tree_words(A, k):
    # every tree word of length k in lexicographic product order, with its
    # rank among the words examined; a tree has one cyclic point, its root,
    # and its height is the least H for which H steps send every state there
    out = []
    examined = 0
    for letters in itertools.product(range(A.r), repeat=k):
        w = Word(letters)
        if is_self_conjugate(w):
            continue
        examined += 1
        F = one_letter_view(A, w)
        pts = cyclic_points(F)
        if len(pts) == 1:
            (root,) = pts
            images = list(range(A.n))
            H = 0
            while any(v != root for v in images):
                images = [int(F[v]) for v in images]
                H += 1
            out.append((examined - 1, (w, H, root)))
    return out


@st.composite
def _small_automata(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return random_automaton(n, r, seed=draw(st.integers(0, 2**32)))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return Automaton(draw(st.lists(row, min_size=r, max_size=r)))


def _cli_tree_words_all(A, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        save_automaton(A, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["tree-words", "--in", path, "--k", str(k), "--all"])
    return rc, json.loads(out.getvalue())


@st.composite
def _small_searches(draw):
    # k up to 9 has 512 words at r = 2; at r = 3 it stops at 6 (729 words)
    # to keep tier-1 time down. Both fit the first 1024-word batch, so the
    # batch boundaries are crossed by drawing a smaller first batch.
    A = draw(_small_automata())
    return A, draw(st.integers(1, 9 if A.r == 2 else 6))


@settings(max_examples=60, deadline=None)
@given(
    search=_small_searches(),
    budget=st.one_of(st.none(), st.integers(0, 600)),
    first_batch=st.sampled_from([1, 5, 64, sync._FIRST_BATCH]),
)
def test_iter_tree_words_matches_brute_force(search, budget, first_batch):
    # odd k ends on a single letter, budgets cut batches, and the rotations
    # of a hit wait across batch boundaries
    A, k = search
    ranked = _reference_tree_words(A, k)
    everything = [hit for _, hit in ranked]
    expect = [hit for i, hit in ranked if budget is None or i < budget]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sync, "_FIRST_BATCH", first_batch)
        assert list(iter_tree_words(A, k, budget=budget)) == expect
        assert find_tree_word(A, k, budget=budget) == (expect[0] if expect else None)
        rc, doc = _cli_tree_words_all(A, k)
    assert rc == (0 if everything else 1)
    assert doc == {
        "k": k,
        "words": [{"word": w.text, "H": h, "root": r} for w, h, r in everything],
    }


# A6 has one class of tree words of length 5: aaabb, examined at rank 2,
# is its least word, and its other rotations come at ranks 5, 11, 16, 23
A6 = random_automaton(6, seed=18)
_A6_CLASS = [(2, "aaabb"), (5, "aabba"), (11, "abbaa"), (16, "baaab"), (23, "bbaaa")]


def test_budget_ends_between_a_hit_and_its_rotations():
    ranked = _reference_tree_words(A6, 5)
    assert [(i, hit[0].text) for i, hit in ranked] == _A6_CLASS
    for first_batch in (1, 4, sync._FIRST_BATCH):
        for budget in (0, 2, 3, 6, 11, 12, 17, 24, None):
            expect = [hit for i, hit in ranked if budget is None or i < budget]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sync, "_FIRST_BATCH", first_batch)
                assert list(iter_tree_words(A6, 5, budget=budget)) == expect


def test_rotation_that_is_no_tree_raises(monkeypatch):
    # only the least word's map is let through as a tree, so its first
    # rotation fails, but only once the scan reaches it and maps it
    least = apply_word_all(A6, Word("aaabb"))
    real = sync.loop_root
    monkeypatch.setattr(sync, "loop_root",
                        lambda f: real(f) if (f == least).all() else None)
    assert [w.text for w, _, _ in iter_tree_words(A6, 5, budget=3)] == ["aaabb"]
    hits = iter_tree_words(A6, 5, budget=6)
    assert next(hits)[0] == Word("aaabb")
    with pytest.raises(RuntimeError):
        next(hits)


def _index(word, r):
    return int("".join(map(str, word)), r)


def _digits(c, r, k):
    # the k base-r digits of the index c, high first
    return [int(ch, r) for ch in np.base_repr(c, r).zfill(k)]


_ROW_TEST_SHAPES = [(r, k) for r in (2, 3) for k in range(1, 13)] + [(3, 60), (2, 100)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from(_ROW_TEST_SHAPES))
def test_rotation_classes_match_brute_force(data, shape):
    # a batch anywhere in the index range, r**k beyond int64 included
    r, k = shape
    first = data.draw(st.integers(0, r ** k - 1))
    count = data.draw(st.integers(1, min(300, r ** k - first)))
    codes = sync._lex_codes(first, count, r, k)
    least, periodic = sync._rotation_classes(codes, r, k)
    letters = [_digits(c, r, k) for c in range(first, first + count)]
    assert least.shape == periodic.shape == (count,)
    for i, w in enumerate(letters):
        rotations = [_index(w[d:] + w[:d], r) for d in range(1, k)]
        assert least[i] == all(first + i < c for c in rotations)
        assert periodic[i] == is_self_conjugate(w) == (first + i in rotations)
    # the count the budget is charged
    nc = sum(not is_self_conjugate(w) for w in letters)
    assert count - np.count_nonzero(periodic) == nc


def _rotation_class_searches():
    # (A, k, budget, end) over sizes where rotations of hits fall in the
    # budget; end is one past the index of the last word the budget scans
    for seed in range(16):
        n, r = (60, 300, 1000, 3000)[seed % 4], 2 + seed % 2
        A = random_automaton(n, r, seed=seed)
        k = pick_tree_length(n, (0.2, 0.5, 1.0)[seed % 3])
        budget = (150, 700, 3000)[seed % 3]
        words = itertools.product(range(r), repeat=k)
        nc = (w for w in words if not is_self_conjugate(w))
        last = next(islice(nc, budget - 1, None), None)
        yield A, k, budget, r ** k if last is None else _index(last, r) + 1


def _check_whole_rotation_classes(A, k, hits, end):
    # the hits come in index order, below end, with the height and root of
    # their own map, and with every rotation below end; returns how many
    # are not the least word of their class
    r = A.r
    index = [_index(w, r) for w, _, _ in hits]
    assert index == sorted(set(index)) and all(i < end for i in index)
    found = set(index)
    for w, H, root in hits:
        f = apply_word_all(A, w)
        assert (H, root) == (height(f), loop_root(f))
        for d in range(1, k):
            rotation = _index(w.letters[d:] + w.letters[:d], r)
            assert (rotation in found) == (rotation < end)
    return sum(any(w.letters[d:] + w.letters[:d] < w.letters for d in range(1, k))
               for w, _, _ in hits)


def test_iter_tree_words_yield_whole_rotation_classes():
    # every rotation of a hit that the budget's scan reaches is yielded
    rotations_seen = 0
    for A, k, budget, end in _rotation_class_searches():
        hits = list(iter_tree_words(A, k, budget=budget))
        rotations_seen += _check_whole_rotation_classes(A, k, hits, end)
    assert rotations_seen >= 10


def test_rotations_are_mapped_without_apply_word_all(monkeypatch):
    # the search maps hits and their rotations through its block table only
    def refuse(A, word):
        raise AssertionError("the search called apply_word_all")

    monkeypatch.setattr(sync, "apply_word_all", refuse)
    rotations_seen = 0
    for A, k, budget, end in _rotation_class_searches():
        hits = list(iter_tree_words(A, k, budget=budget))
        rotations_seen += _check_whole_rotation_classes(A, k, hits, end)
        # tree-words --all at a k whose whole scan is cheap
        k = 11 if A.r == 2 else 7
        rc, doc = _cli_tree_words_all(A, k)
        hits = [(Word(h["word"]), h["H"], h["root"]) for h in doc["words"]]
        assert doc["k"] == k and rc == (0 if hits else 1)
        rotations_seen += _check_whole_rotation_classes(A, k, hits, A.r ** k)
    assert rotations_seen >= 10


def test_block_offsets_read_base_r_digits():
    # batches anywhere in the index range, also where the high digits carry
    # and where r**k exceeds int64: block j holds digits j..j+b-1 of the
    # index and the tail its last k mod b digits, after the r**b blocks
    n = 7
    for r, k, first in ((2, 9, 448), (3, 6, 700), (2, 24, 2**20 - 100),
                        (3, 60, 2 * 3**59 + 3**20 - 7), (2, 100, 2**99 - 5)):
        b = 4 if r == 2 else 2
        count = min(4096, r ** k - first)
        codes = sync._lex_codes(first, count, r, k)
        offs = sync._block_offsets(codes, r, k, b, n)
        assert offs.shape == (-(-k // b), count) and offs.dtype == np.int64
        expect = []
        for i, c in enumerate(range(first, first + count)):
            digits = _digits(c, r, k)
            assert list(sync._word(c, r, k)) == digits
            blocks = [digits[j:j + b] for j in range(0, k, b)]
            expect.append([_index(u, r) + (r ** b if len(u) < b else 0) for u in blocks])
            assert (sync._block_offsets(c, r, k, b, n) == offs[:, i]).all()
        assert (offs == np.array(expect).T * n).all()


def _reference_trie_maps(A, k):
    # (letters, map) for the words of length k in lexicographic order, by a
    # depth-first walk of the word trie: each node's map is one gather of
    # its parent's; self-conjugate words are skipped at the leaves
    delta = A.delta
    r = A.r
    letters = [0] * k
    maps = [np.arange(A.n, dtype=np.int64)] + [None] * (k - 1)
    depth = 0  # maps[depth] is the map of letters[:depth]
    while True:
        while depth < k - 1:
            maps[depth + 1] = delta[letters[depth]][maps[depth]]
            depth += 1
        head = tuple(letters[:-1])
        for last in range(r):
            word = head + (last,)
            if not is_self_conjugate(word):
                yield word, delta[last][maps[-1]]
        i = k - 2
        while i >= 0 and letters[i] == r - 1:
            letters[i] = 0
            i -= 1
        if i < 0:
            return
        letters[i] += 1
        depth = i


def _reference_iter_tree_words(A, k, budget=None):
    # the engine the batched rho walks replaced: every examined word gets
    # its full map from the trie walk, and loop_root and height decide on it
    for letters, f in islice(_reference_trie_maps(A, k), budget):
        root = loop_root(f)
        if root is not None:
            yield Word(letters), height(f), root


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(50, 3000),
    r=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32),
    epsilon=st.sampled_from([0.2, 0.5, 1.0]),
    budget=st.integers(0, 2000),
)
def test_iter_tree_words_matches_reference_engine(n, r, seed, epsilon, budget):
    # sizes where the rho walks of stages 1 and 2 really reject words
    A = random_automaton(n, r, seed=seed)
    k = pick_tree_length(n, epsilon)
    got = iter_tree_words(A, k, budget=budget)
    expect = _reference_iter_tree_words(A, k, budget=budget)
    assert list(islice(got, 8)) == list(islice(expect, 8))


# the first hits of the bench's reset_large automata, random_automaton(10**4,
# seed=s) for s = 0..5 at k = 16: (word, height, root)
_FIRST_HITS_N1E4 = [
    ("aaaabaabbaabbbbb", 63, 6788),
    ("aaaaaaabbaabaaab", 63, 7730),
    ("aaaabbabababaaab", 66, 2876),
    ("aaaaaaababbbbaab", 43, 5614),
    ("aaaaababaababaab", 63, 1729),
    ("aaaaaabbbaabaabb", 73, 2321),
]


@pytest.mark.parametrize("seed, hit", enumerate(_FIRST_HITS_N1E4))
def test_first_tree_words_frozen_at_bench_scale(seed, hit):
    w, H, root = find_tree_word(random_automaton(10**4, seed=seed), 16)
    assert (w.text, H, root) == hit


def _check_walk_ends(table, offs, x):
    # each walk against plain iteration of its word's map: the walk ends on
    # its cycle, fixed when that cycle is a fixed point
    n = table.shape[1]
    end, fixed = sync._walk_ends(table.ravel(), offs * n, x)
    assert end.shape == fixed.shape == x.shape
    for i in range(x.size):
        f = np.arange(n)
        for o in offs[:, i]:
            f = table[o][f]
        orbit = [int(x[i])]
        while f[orbit[-1]] not in orbit:
            orbit.append(int(f[orbit[-1]]))
        cycle = orbit[orbit.index(f[orbit[-1]]):]
        assert end[i] in cycle
        assert fixed[i] == (len(cycle) == 1)


def test_walk_ends_match_plain_iteration():
    # 0 and 3 are fixed, 1 <-> 2 is a 2-cycle, 4 -> 3 and 5 -> 1
    table = np.array([[0, 2, 1, 3, 3, 1]])
    x = np.array([0, 1, 5, 4, 3, 0, 1])
    offs = np.zeros((1, x.size), dtype=np.int64)
    end, fixed = sync._walk_ends(table.ravel(), offs, x)
    assert end[[0, 3, 4, 5]].tolist() == [0, 3, 3, 0]
    assert fixed.tolist() == [True, False, False, True, True, True, False]
    _check_walk_ends(table, offs, x)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 51))
        blocks, steps, walks = (int(v) for v in rng.integers(1, [5, 4, 40]))
        if rng.random() < 0.5:
            table = rng.integers(0, n, size=(blocks, n))
        else:  # permutations: cycles longer than one check interval
            table = np.array([rng.permutation(n) for _ in range(blocks)])
        offs = rng.integers(0, blocks, size=(steps, walks))
        _check_walk_ends(table, offs, rng.integers(0, n, size=walks))
    # rhos whose tail mu and cycle lam each span several checks: the path
    # buffer grows, and the walks of one call end at different checks
    for n in (300, 700, 1000):
        table, x = [], []
        for lam in (1, 1, 2, 17, 90, 150, 299):
            mu = int(rng.integers(0, min(300, n - lam) + 1))
            rho = rng.permutation(n)[:mu + lam]
            f = rng.integers(0, n, size=n)
            f[rho[:-1]] = rho[1:]
            f[rho[-1]] = rho[mu]
            table.append(f)
            x += [rho[0], rng.integers(0, n)]
        offs = np.repeat(np.arange(len(table)), 2)[None, :]
        _check_walk_ends(np.array(table), offs, np.array(x))


def test_block_table_rows_are_block_maps():
    # r = 2 uses 4-letter blocks and r = 3 two-letter ones; k runs through
    # every k mod b, k < b included, and the tail rows follow the blocks
    for r, b in ((2, 4), (3, 2)):
        A = random_automaton(13, r, seed=r)
        for k in range(1, 2 * b + 1):
            table, got = sync._block_table(A, k)
            table = table.reshape(-1, A.n)
            t = k % b
            assert got == b and table.dtype == np.int64
            words = list(itertools.product(range(r), repeat=b))
            if t:
                words += itertools.product(range(r), repeat=t)
            assert len(table) == len(words)
            for row, u in zip(table, words):
                assert (row == apply_word_all(A, Word(u))).all()
            codes = sync._lex_codes(0, min(r ** k, 100), r, k)
            offs = sync._block_offsets(codes, r, k, b, A.n)
            assert offs.shape == (-(-k // b), codes.size)
            for i, c in enumerate(codes.tolist()):
                f = sync._map(table.ravel(), offs[:, i], np.arange(A.n))
                assert (f == apply_word_all(A, Word(_digits(c, r, k)))).all()


def test_pick_tree_length():
    assert pick_tree_length(512) == 11
    assert pick_tree_length(2) == 2
    assert pick_tree_length(3) == 2
    # the cap keeps aggressive margins at 2 log2 n
    assert pick_tree_length(16, epsilon=1.5) == 8
    for n in (2, 5, 64, 1000):
        k = pick_tree_length(n)
        assert 1 <= k <= math.ceil(2 * math.log2(n))
        # any finite epsilon stays in range: (1 + 1e308) log2 n is inf
        assert pick_tree_length(n, 1e308) == pick_tree_length(n, 1.0)
        assert pick_tree_length(n, -1e308) == pick_tree_length(n, -1.0) == 1
    for epsilon in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError):
            pick_tree_length(64, epsilon)


def test_tree_sync_word_small():
    cert = tree_sync_word(A3)
    assert cert.method == "tree"
    assert cert.tree_word == Word("ab")
    assert cert.height == 1
    assert cert.sink == 0
    assert cert.verified
    assert cert.word == Word("ab")
    assert is_synchronizing(A3, cert.word) == cert.sink
    with pytest.raises(ValueError):
        tree_sync_word(Automaton([[0], [0]]))


def test_certificates_are_checked_without_assert(monkeypatch):
    # the verification must run as a check that raises, also under -O
    A = random_automaton(64, seed=0)
    w, H, root = find_tree_word(A, pick_tree_length(A.n))
    assert H >= 2
    monkeypatch.setattr(sync, "find_tree_word", lambda *a, **kw: (w, H - 1, root))
    with pytest.raises(RuntimeError):
        tree_sync_word(A)
    monkeypatch.setattr(sync, "apply_word_all", lambda A, word: np.arange(A.n))
    with pytest.raises(RuntimeError, match="^greedy word failed to reset$"):
        greedy_fallback(A3)


@pytest.mark.parametrize("H", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
def test_tree_certificates_at_powers_of_two(H, monkeypatch):
    # w^H is checked by squaring w's map, one bit of H at a time: 2^m sets
    # only its top bit and 2^m - 1 every bit below. On the chain a: i -> i-1
    # (b: i -> i-2), epsilon = -1 gives k = 1, so the tree word is "a", of
    # height n - 1 = H
    n = H + 1
    A = Automaton([[max(i - 1, 0) for i in range(n)], [max(i - 2, 0) for i in range(n)]])
    cert = tree_sync_word(A, epsilon=-1)
    assert (cert.tree_word.text, cert.height, cert.sink) == ("a", H, 0)
    assert cert.word == Word("a" * H) and cert.verified
    assert is_synchronizing(A, cert.word) == 0
    monkeypatch.setattr(sync, "find_tree_word", lambda *a, **kw: (Word("a"), H - 1, 0))
    with pytest.raises(RuntimeError):
        tree_sync_word(A, epsilon=-1)


def test_tree_sync_word_none_cases():
    ident = Automaton([[0, 1, 2, 3], [0, 1, 2, 3]])
    assert tree_sync_word(ident) is None
    assert tree_sync_word(ident, budget=5) is None


def test_certificate_json():
    cert = tree_sync_word(A3)
    doc = cert.to_json_dict()
    assert doc == {
        "method": "tree",
        "tree_word": "ab",
        "H": 1,
        "sink": 0,
        "word_len": 2,
        "verified": True,
    }
    assert cert.to_json_dict(emit_word=True)["word"] == "ab"
    greedy = greedy_fallback(A3)
    gdoc = greedy.to_json_dict(emit_word=True)
    assert gdoc == {
        "method": "greedy",
        "sink": 0,
        "word_len": 1,
        "verified": True,
        "word": "b",
    }


def test_exact_small_cases():
    assert shortest_sync_word_exact(A3) == Word("b")
    assert shortest_sync_word_exact(Automaton([[0], [0]])) == Word((0,))
    swap = Automaton([[1, 0], [1, 0]])
    assert shortest_sync_word_exact(swap) is None
    with pytest.raises(ValueError):
        shortest_sync_word_exact(random_automaton(21, 2, seed=0))


def test_greedy_single_state():
    cert = greedy_fallback(Automaton([[0], [0]]))
    assert cert.word == Word((0,)) and cert.sink == 0 and cert.verified


def test_greedy_none_iff_not_synchronizable():
    swap = Automaton([[1, 0], [1, 0]])
    assert not is_synchronizable(swap)
    assert greedy_fallback(swap) is None


def test_tree_search_and_greedy_leave_numpy_ma_unloaded():
    # np.unique would import numpy.ma, 1.25 MB resident that neither sync
    # path otherwise loads; a fresh interpreter, as other tests import it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys; from synchrotree.core import random_automaton; "
            "from synchrotree.sync import greedy_fallback, tree_sync_word; "
            "print(tree_sync_word(random_automaton(300, seed=0)).verified, "
            "greedy_fallback(random_automaton(40, seed=0)).verified, "
            "'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout == "True True False\n"


def _reference_pair_tables(A):
    # FIFO BFS over pairs in dicts keyed by p*n+q, p <= q
    n = A.n
    rows = A.rows
    pre = [[[] for _ in range(n)] for _ in range(A.r)]
    for l in range(A.r):
        for u in range(n):
            pre[l][rows[l][u]].append(u)
    dist = {v * n + v: 0 for v in range(n)}
    step = {}
    queue = [(v, v) for v in range(n)]
    head = 0
    while head < len(queue):
        p, q = queue[head]
        head += 1
        d = dist[p * n + q]
        for l in range(A.r):
            for pp in pre[l][p]:
                for qq in pre[l][q]:
                    a, b = (pp, qq) if pp <= qq else (qq, pp)
                    key = a * n + b
                    if key not in dist:
                        dist[key] = d + 1
                        step[key] = l
                        queue.append((a, b))
    return dist, step


def _reference_greedy(A):
    # (word, sink) by merging the smallest pair at the least distance
    n = A.n
    dist, step = _reference_pair_tables(A)
    if len(dist) < n * (n + 1) // 2:
        return None
    rows = A.rows
    current = set(range(n))
    letters = []
    while len(current) > 1:
        states = sorted(current)
        best = None
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                key = states[i] * n + states[j]
                if best is None or dist[key] < dist[best]:
                    best = key
        p, q = divmod(best, n)
        while p != q:
            l = step[p * n + q if p <= q else q * n + p]
            letters.append(l)
            current = {rows[l][s] for s in current}
            p, q = sorted((rows[l][p], rows[l][q]))
    return Word(letters), current.pop()


@st.composite
def _pair_automata(draw):
    # uniform, arbitrary or permutation letters; all-permutation automata
    # and ones with two closed parts are not synchronizable
    n = draw(st.integers(2, 40))
    r = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["uniform", "rows", "mixed"]))
    if kind == "uniform":
        return random_automaton(n, r, seed=draw(st.integers(0, 2**32)))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    if kind == "mixed":
        row = st.one_of(row, st.permutations(range(n)))
    return Automaton(draw(st.lists(row, min_size=r, max_size=r)))


@settings(max_examples=200, deadline=None)
@given(A=_pair_automata())
def test_pair_tables_and_greedy_match_dict_reference(A):
    ref_dist, ref_step = _reference_pair_tables(A)
    dist, step = sync._pair_merge_tables(A)
    reached = np.flatnonzero(dist >= 0)
    assert {int(k): int(dist[k]) for k in reached} == ref_dist
    assert {int(k): int(step[k]) for k in reached if dist[k] > 0} == ref_step
    assert is_synchronizable(A) == (len(ref_dist) == A.n * (A.n + 1) // 2)
    cert = greedy_fallback(A)
    got = None if cert is None else (cert.word, cert.sink)
    assert got == _reference_greedy(A)


# sha256 of dist.tobytes() + step.tobytes() and of the greedy word's text.
# At these sizes a BFS level has tens of thousands of candidates, so a
# first-discoverer bug shows here; the dict reference above is too slow.
_BENCH_SCALE_TABLES = [
    (300, 0, "f5c8ac36b21fa284c851ab45690ad5024fd4d1de272f07ea3feb15e04f3acd0e",
     "5ddc8d68fa319433bfc69fcf95a5d7684b034baffb27374872084840619dbe83", 72, 4),
    (600, 1, "9abed056e722b21b3a469d2a03eb8fc2df546b4a8a242fd0560cb5173d2519b6",
     "70d5b3b2e577ae105538580515841bc2faf4400b66281510b615ec6180a38547", 112, 496),
    (600, 2, "c28633b6d0dfee6bcd8fe36d04d50dc0793ce426a709eaca6e5616a66410dff3",
     "fc741b7cbfca21534b67a3e446dc46994859ce47a8a7007524859302d2f2d406", 99, 249),
]


@pytest.mark.parametrize("n, seed, tables, word, length, sink", _BENCH_SCALE_TABLES)
def test_pair_tables_and_greedy_frozen_at_bench_scale(n, seed, tables, word, length, sink):
    A = random_automaton(n, seed=seed)
    dist, step = sync._pair_merge_tables(A)
    assert dist.dtype == step.dtype == np.int32
    assert hashlib.sha256(dist.tobytes() + step.tobytes()).hexdigest() == tables
    cert = greedy_fallback(A)
    assert hashlib.sha256(cert.word.text.encode()).hexdigest() == word
    assert (len(cert.word), cert.sink) == (length, sink)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), r=st.integers(2, 3))
def test_certificates_reset_to_their_sink(data, n, r):
    A = Automaton(data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=r, max_size=r)))

    def sink_of(word):
        images = set(apply_word_all(A, word).tolist())
        return images.pop() if len(images) == 1 else None

    synchronizable = is_synchronizable(A)
    greedy = greedy_fallback(A)
    exact = shortest_sync_word_exact(A)
    assert (greedy is not None) == (exact is not None) == synchronizable
    certs = [greedy]
    if n >= 2:
        certs.append(tree_sync_word(A, budget=data.draw(st.integers(0, 100))))
    for cert in certs:
        if cert is not None:
            assert cert.verified
            assert sink_of(cert.word) == cert.sink
    if exact is not None:
        assert sink_of(exact) is not None
        assert len(exact) <= len(greedy.word)


def test_greedy_against_exact():
    """The greedy word resets whenever the exact search proves a reset
    exists, and can never be shorter than the optimum."""
    outcomes = {True: 0, False: 0}
    for i in range(300):
        seed = trial_seed(51, i)
        n = 3 + i % 6
        A = random_automaton(n, 2, seed=seed)
        exact = shortest_sync_word_exact(A)
        greedy = greedy_fallback(A)
        sync = is_synchronizable(A)
        outcomes[sync] += 1
        assert sync == (exact is not None) == (greedy is not None)
        if exact is None:
            continue
        assert is_synchronizing(A, exact) is not None
        assert is_synchronizing(A, greedy.word) == greedy.sink
        assert len(exact) <= len(greedy.word) < n ** 3
    assert outcomes[True] > 50 and outcomes[False] > 0


def test_tree_certificates_verify_midsize():
    for seed in (3, 4, 5):
        A = random_automaton(256, 2, seed=seed)
        cert = tree_sync_word(A)
        if cert is None:
            continue
        assert cert.verified
        assert is_synchronizing(A, cert.word) == cert.sink
        assert len(cert.word) == len(cert.tree_word) * cert.height
        n = 256
        assert len(cert.word) <= 10 * math.sqrt(n) * math.log2(n)


def test_exact_word_is_truly_shortest():
    # cross-check the subset search against plain breadth first search
    # over words for tiny instances
    for i in range(40):
        seed = trial_seed(52, i)
        n = 3 + i % 3
        A = random_automaton(n, 2, seed=seed)
        exact = shortest_sync_word_exact(A)
        best = None
        frontier = [()]
        depth = 0
        seen_images = set()
        while best is None and depth < 6:
            depth += 1
            nxt = []
            for prefix in frontier:
                for l in range(2):
                    word = prefix + (l,)
                    images = tuple(apply_word_all(A, Word(word)))
                    if len(set(images)) == 1:
                        best = word
                        break
                    if images not in seen_images:
                        seen_images.add(images)
                        nxt.append(word)
                if best:
                    break
            frontier = nxt
        if best is not None:
            assert exact is not None and len(exact) == len(best)
        elif exact is not None:
            assert len(exact) >= 6
