import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrotree.core import (
    Automaton,
    Word,
    are_conjugate,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    thread,
    trial_seed,
)
from synchrotree.exploration import (
    ExplorationTrace,
    InputSpec,
    ball,
    check_ball_growth,
    check_degree_sums,
    check_equi,
    check_following_counts,
    check_path_exceptions,
    check_trajectory_overlaps,
    check_typicality,
    classify,
    dump_lines,
    explore,
    hit_counts,
    longest_following_run,
    path_exception_count,
    thread_edge_runs,
)
from synchrotree.exploration import _cycle_survivors, _is_directed_path

A3 = Automaton([[1, 2, 0], [0, 0, 0]])
AB = Word("ab")


def _nc_word_set(k, d, rng):
    # distinct words, no two conjugate, as the walk inputs assume
    words = []
    guard = 0
    while len(words) < d:
        w = random_nc_word(k, 2, rng)
        if all(not are_conjugate(w, v) for v in words):
            words.append(w)
        guard += 1
        if guard > 200:
            words.append(words[-1] if words else w)
    return words


def _random_trace(seed, n_lo=15, n_hi=60, d_max=4, k_max=4):
    rng = rng_from_seed(seed)
    n = int(rng.integers(n_lo, n_hi))
    A = random_automaton(n, 2, seed=seed)
    k = int(rng.integers(3, k_max + 1))
    d = int(rng.integers(1, d_max + 1))
    words = _nc_word_set(k, d, rng)
    entries = []
    for w in words:
        entries.append((int(rng.integers(n)), int(rng.integers(k)), w))
    return A, explore(A, InputSpec(tuple(entries)))


def test_trace_frozen_small():
    tr = explore(A3, InputSpec(((0, 0, AB), (1, 1, AB))))
    assert tr.events == [(0, 0, 0), (1, 1, 0)]
    assert tr.boundaries == (0, 2, 2)
    assert tr.spans() == (2, 0)
    assert tr.closings == ((0, 0, 0), (1, 1, 0))
    assert tr.step_explores == [True, True]
    assert tr.step_hits == [False, True]
    assert tr.step_closes == [False, True]
    assert tr.final_time == 2
    assert tr.revealed == {(0, 0): (1, 0), (1, 1): (0, 1)}
    assert tr.revealed_map() == {(0, 0): 1, (1, 1): 0}
    assert classify(tr) == ["start", "exploring"]
    assert hit_counts(tr) == [0, 1]


def test_dump_lines_frozen():
    tr = explore(A3, InputSpec(((0, 0, AB), (1, 1, AB))))
    assert dump_lines(tr) == [
        {"t": 0, "x": 0, "y": 0, "z": "ab", "tag": "start"},
        {"t": 1, "x": 1, "y": 1, "z": "ab", "tag": "exploring"},
        {"t": 2, "x": 0, "y": 0, "z": "ab", "tag": "hitting"},
        {"t": 2, "x": 1, "y": 1, "z": "ab", "tag": "start"},
    ]


def test_single_entry_matches_thread():
    th = thread(A3, 2, 0, AB)
    tr = explore(A3, InputSpec(((2, 0, AB),)))
    assert tr.events == [(u, c, 0) for u, c in th.entries]
    assert tr.spans() == (th.cut_time,)
    assert tr.closings[0][:2] == th.entries[th.twin_time]


def test_ball_directions_and_prefixes():
    tr = explore(A3, InputSpec(((0, 0, AB),)))
    assert ball(tr, 0, 1, "in") == frozenset({0, 1})
    assert ball(tr, 0, 1, "out") == frozenset({0, 1})
    assert ball(tr, 0, 0, "both") == frozenset({0})
    # only the first edge is revealed before time 1
    assert ball(tr, 0, 1, "out", t=1) == frozenset({0, 1})
    assert ball(tr, 0, 1, "in", t=1) == frozenset({0})
    with pytest.raises(ValueError):
        ball(tr, 0, 1, "sideways")


def test_duplicate_entry_has_zero_span():
    tr = explore(A3, InputSpec(((0, 0, AB), (0, 0, AB))))
    assert tr.spans() == (2, 0)
    lines = dump_lines(tr)
    assert lines[-1]["tag"] == "start"
    assert lines[-1]["t"] == 2


def test_revealed_map_is_order_independent():
    for i in range(40):
        seed = trial_seed(41, i)
        rng = rng_from_seed(seed)
        n = int(rng.integers(8, 30))
        A = random_automaton(n, 2, seed=seed)
        k = int(rng.integers(2, 4))
        entries = []
        for _ in range(3):
            w = random_nc_word(k, 2, rng)
            entries.append((int(rng.integers(n)), int(rng.integers(k)), w))
        maps = set()
        for perm in itertools.permutations(entries):
            tr = explore(A, InputSpec(perm))
            maps.add(tuple(sorted(tr.revealed_map().items())))
        assert len(maps) == 1


def test_revealed_agrees_with_automaton():
    for i in range(30):
        _, tr = _random_trace(trial_seed(42, i))
        A = tr.automaton
        for (src, letter), dst in tr.revealed_map().items():
            assert A.rows[letter][src] == dst


def test_events_never_repeat_per_word():
    for i in range(30):
        _, tr = _random_trace(trial_seed(43, i))
        assert len(set(tr.events)) == len(tr.events)


def test_classify_structure():
    for i in range(30):
        _, tr = _random_trace(trial_seed(44, i))
        tags = classify(tr)
        assert len(tags) == tr.final_time
        for j in range(tr.d):
            a, b = tr.boundaries[j], tr.boundaries[j + 1]
            if a < b:
                assert tags[a] == "start"
        for t, tag in enumerate(tags):
            if tag == "hitting":
                assert tr.step_hits[t - 1]
            elif tag == "following":
                assert not tr.step_explores[t - 1]


def test_hit_counts_monotone():
    for i in range(20):
        _, tr = _random_trace(trial_seed(45, i))
        counts = hit_counts(tr)
        assert counts == sorted(counts)
        assert (counts[-1] if counts else 0) == sum(tr.step_hits)


def test_thread_edge_runs_split_steps():
    for i in range(20):
        _, tr = _random_trace(trial_seed(46, i))
        runs = thread_edge_runs(tr)
        flat = [e for run in runs for e in run]
        expect = list(zip(tr.step_src, tr.step_letter, tr.step_dst))
        assert flat == expect


def test_claim_checkers_hold_on_random_traces():
    """The per-prefix claims are combinatorial facts about any exposure
    walk, so every random trace must satisfy all of them."""
    for i in range(150):
        _, tr = _random_trace(trial_seed(47, i))
        assert check_equi(tr)
        assert check_degree_sums(tr)
        assert check_following_counts(tr)
        assert check_ball_growth(tr)
        assert check_trajectory_overlaps(tr)
        assert check_path_exceptions(tr)


def test_path_exception_count_small():
    # the two revealed edges close a directed 2-cycle, so both endpoints
    # fail the path condition
    tr = explore(A3, InputSpec(((0, 0, AB),)))
    assert path_exception_count(tr, radius=1) == 2
    assert longest_following_run(tr) == 0
    # a prefix of a pure chain has no exceptions at all
    n = 8
    succ = [min(i + 1, n - 1) for i in range(n)]
    tr = explore(Automaton([succ, succ]), InputSpec(((0, 0, AB),)))
    assert path_exception_count(tr, radius=2, t=3) == 0


def test_typicality_report_fields():
    A, tr = _random_trace(trial_seed(48, 3), n_lo=40, n_hi=41)
    rep = check_typicality(tr)
    assert rep.n == A.n and rep.k == tr.k and rep.d == tr.d
    assert rep.t_max == 5 * tr.k * (A.n ** 0.5)
    assert rep.h_max == 100 * (tr.d * tr.k) ** 2
    assert len(rep.entry_thread_lengths) == tr.d
    assert rep.hits_total == sum(tr.step_hits)
    assert rep.typical == (
        rep.e_len and rep.e_hit and rep.e_ball and rep.e_path and rep.e_foll
    )
    # n is far below the path bound here, so that check is vacuous
    assert rep.path_exceptions is None and rep.e_path


def test_typicality_flags_oversized_threads():
    # a chain of 128 states walks about n steps, past 5k sqrt(n)
    n = 128
    succ = [(i + 1) % n for i in range(n)]
    A = Automaton([succ, succ])
    tr = explore(A, InputSpec(((0, 0, Word("ab")),)))
    rep = check_typicality(tr)
    assert rep.entry_thread_lengths[0] > rep.t_max
    assert not rep.e_len
    assert not rep.typical


def test_typicality_ball_and_path_branches():
    # a is the cycle i -> i+1, b sends every state to 0
    n = 900
    A = Automaton([[(i + 1) % n for i in range(n)], [0] * n])
    # 599 entries point into 0, whose in-ball at radius 1 passes 404
    tr = explore(A, InputSpec(tuple((u, 0, Word("ba")) for u in range(599))))
    rep = check_typicality(tr, d=1, k=1)
    assert rep.ball_checked and not rep.e_ball
    # one thread around the whole cycle: every ball is a short path
    tr = explore(A, InputSpec(((0, 0, Word("a")),)))
    rep = check_typicality(tr, d=1, k=1, n=10 ** 7)
    assert rep.ball_checked and rep.e_ball
    assert rep.path_exceptions == 0 and rep.e_path


def test_input_spec_validation():
    with pytest.raises(ValueError):
        InputSpec(())
    with pytest.raises(ValueError):
        InputSpec(((0, 0, Word("ab")), (0, 0, Word("aab"))))
    with pytest.raises(ValueError):
        InputSpec(((0, 2, Word("ab")),))
    for u, r in ((0.9, 1.2), (0, 1.0), ("1", 0), (True, 0), (0, False)):
        with pytest.raises(ValueError):
            InputSpec(((u, r, Word("ab")),))
    assert InputSpec(((np.int64(1), 1, Word("ab")),)).entries == ((1, 1, Word("ab")),)
    spec = InputSpec(((5, 0, Word("ab")),))
    with pytest.raises(ValueError):
        explore(A3, spec)
    with pytest.raises(ValueError):
        explore(A3, InputSpec(((0, 0, Word((0, 2))),)))


def test_spec_properties():
    spec = InputSpec(((0, 0, Word("aab")), (1, 2, Word("abb"))))
    assert spec.d == 2
    assert spec.k == 3


def test_dump_lines_wide_alphabet():
    A = Automaton([[1, 0], [0, 1], [1, 1]])
    tr = explore(A, InputSpec(((0, 0, Word((0, 2))),)))
    lines = dump_lines(tr)
    assert all(line["z"] == "0,2" for line in lines)


# The revealed-graph walks as they stood before one BFS served them all,
# kept as the reference the property test below compares against.


def _reference_adjacency(trace, t=None):
    out_adj = {}
    in_adj = {}
    for (src, letter), (dst, first) in trace.revealed.items():
        if t is not None and first >= t:
            continue
        out_adj.setdefault(src, []).append(dst)
        in_adj.setdefault(dst, []).append(src)
    return out_adj, in_adj


def _reference_bfs(adj, u, radius):
    seen = {u}
    frontier = [u]
    for _ in range(radius):
        if not frontier:
            break
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _reference_ball(trace, u, radius, direction, t=None):
    out_adj, in_adj = _reference_adjacency(trace, t)
    if direction == "out":
        return frozenset(_reference_bfs(out_adj, u, radius))
    if direction == "in":
        return frozenset(_reference_bfs(in_adj, u, radius))
    return frozenset(_reference_bfs(out_adj, u, radius) | _reference_bfs(in_adj, u, radius))


def _reference_check_ball_growth(trace):
    k = trace.k
    hseq = hit_counts(trace)
    t = trace.final_time
    h = hseq[t - 1] if t > 0 else 0
    out_adj, in_adj = _reference_adjacency(trace, t)
    for u in set(out_adj) | set(in_adj):
        for adj in (out_adj, in_adj):
            seen = {u}
            frontier = [u]
            for radius in range(1, 2 * k + 1):
                nxt = []
                for v in frontier:
                    for w in adj.get(v, ()):
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
                if len(seen) > 2 * radius * (h + 1):
                    return False
                if not frontier:
                    break
    return True


def _reference_labeled_degrees(trace, t=None):
    out_deg = {}
    in_deg = {}
    for (src, letter), (dst, first) in trace.revealed.items():
        if t is not None and first >= t:
            continue
        out_deg[src] = out_deg.get(src, 0) + 1
        in_deg[dst] = in_deg.get(dst, 0) + 1
    return out_deg, in_deg


def _reference_path_exception_count(trace, radius=None, t=None):
    k = radius if radius is not None else trace.k
    out_adj, in_adj = _reference_adjacency(trace, t)
    out_deg, in_deg = _reference_labeled_degrees(trace, t)
    defects = {v for v, c in out_deg.items() if c >= 2}
    defects |= {v for v, c in in_deg.items() if c >= 2}
    defects |= _cycle_survivors(out_adj, in_adj)
    candidates = set()
    for v in defects:
        candidates |= _reference_bfs(out_adj, v, k)
        candidates |= _reference_bfs(in_adj, v, k)
    edges = []
    for (src, letter), (dst, first) in trace.revealed.items():
        if t is not None and first >= t:
            continue
        edges.append((src, dst))
    count = 0
    for u in candidates:
        verts = _reference_bfs(out_adj, u, k) | _reference_bfs(in_adj, u, k)
        induced = [(s, d) for s, d in edges if s in verts and d in verts]
        if not _is_directed_path(verts, induced):
            count += 1
    return count


def _reference_typicality_ball(trace, h_max):
    # (ball_checked, e_ball) as check_typicality decided them
    nverts = len({s for s, _ in trace.revealed} | {v for v, _ in trace.revealed.values()})
    if nverts <= 4 * (h_max + 1):
        return False, True
    out_adj, in_adj = _reference_adjacency(trace)
    for u in set(out_adj) | set(in_adj):
        seen_out = {u}
        seen_in = {u}
        fo, fi = [u], [u]
        radius = 0
        while fo or fi:
            radius += 1
            nxt = []
            for v in fo:
                for w in out_adj.get(v, ()):
                    if w not in seen_out:
                        seen_out.add(w)
                        nxt.append(w)
            fo = nxt
            nxt = []
            for v in fi:
                for w in in_adj.get(v, ()):
                    if w not in seen_in:
                        seen_in.add(w)
                        nxt.append(w)
            fi = nxt
            if len(seen_out | seen_in) > 4 * radius * (h_max + 1):
                return True, False
    return True, True


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(15, 200),
       k=st.integers(2, 6), d=st.integers(1, 4), data=st.data())
def test_revealed_graph_walks_match_reference(seed, n, k, d, data):
    rng = rng_from_seed(seed)
    A = random_automaton(n, 2, seed=seed)
    words = _nc_word_set(k, d, rng)
    entries = tuple((int(rng.integers(n)), int(rng.integers(k)), w) for w in words)
    tr = explore(A, InputSpec(entries))
    t = data.draw(st.one_of(st.none(), st.integers(0, tr.final_time)), label="t")
    radius = data.draw(st.integers(0, 2 * k + 1), label="radius")
    u = data.draw(st.integers(0, n - 1), label="u")
    for direction in ("in", "out", "both"):
        assert ball(tr, u, radius, direction, t) == _reference_ball(tr, u, radius, direction, t)
    assert path_exception_count(tr, radius, t) == _reference_path_exception_count(tr, radius, t)
    assert path_exception_count(tr, t=t) == _reference_path_exception_count(tr, t=t)
    assert check_ball_growth(tr) == _reference_check_ball_growth(tr)
    rep = check_typicality(tr, 1, 1, 10 ** 7)
    assert (rep.ball_checked, rep.e_ball) == _reference_typicality_ball(tr, 100)
    assert rep.path_exceptions == _reference_path_exception_count(tr)
    assert rep.e_path == (rep.path_exceptions <= 10 ** 5)
    # d = 0 drops h_max to 0, so the ball loop runs on these small traces
    rep = check_typicality(tr, 0, 1, 10 ** 7)
    assert (rep.ball_checked, rep.e_ball) == _reference_typicality_ball(tr, 0)
