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
    longest_following_run,
    path_exception_count,
    thread_edge_runs,
)

A3 = Automaton([[1, 2, 0], [0, 0, 0]])
AB = Word("ab")


def _nc_word_set(k, d, rng, r=2):
    # distinct words, no two conjugate, as the walk inputs assume
    words = []
    guard = 0
    while len(words) < d:
        w = random_nc_word(k, r, rng)
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
    # each thread closes on the step before the next boundary
    assert [t + 1 in tr.boundaries[1:] for t in range(tr.final_time)] == [False, True]
    assert tr.final_time == 2
    assert tr.revealed == {(0, 0): (1, 0), (1, 1): (0, 1)}
    assert tr.revealed_map() == {(0, 0): 1, (1, 1): 0}
    assert classify(tr) == ["start", "exploring"]
    assert list(itertools.accumulate(tr.step_hits)) == [0, 1]


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
    # states must be in range(n), radius and t whole numbers >= 0
    for u, radius, t, message in ((10 ** 9, 1, None, "state out of range"),
                                  (-3, 2, None, "state out of range"),
                                  (3, 0, None, "state out of range"),
                                  (True, 1, None, "states must be integers"),
                                  (0, 1.5, None, "radius and t must be integers"),
                                  (0, -1, None, "radius and t must be >= 0"),
                                  (0, 1, -1, "radius and t must be >= 0"),
                                  (0, 1, 1.0, "radius and t must be integers")):
        with pytest.raises(ValueError, match="^%s$" % message):
            ball(tr, u, radius, t=t)
    for radius, t, message in ((-1, None, "radius and t must be >= 0"),
                               (1.5, None, "radius and t must be integers"),
                               (None, -1, "radius and t must be >= 0"),
                               (None, 0.5, "radius and t must be integers"),
                               (False, None, "radius and t must be integers")):
        with pytest.raises(ValueError, match="^%s$" % message):
            path_exception_count(tr, radius, t)


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


def test_step_flags_match_visits():
    # a step explores when its labeled edge is new, and hits when it also
    # lands on a vertex that an earlier event visited
    for i in range(20):
        A, tr = _random_trace(trial_seed(45, i))
        seen_slots, visited = set(), set()
        for t, (x, y, wid) in enumerate(tr.events):
            visited.add(x)
            letter = tr.words[wid].letters[y]
            new = (x, letter) not in seen_slots
            seen_slots.add((x, letter))
            assert tr.step_explores[t] == new
            assert tr.step_hits[t] == (new and A.rows[letter][x] in visited)
        assert len(tr.step_hits) == len(tr.step_explores) == tr.final_time


def test_thread_edge_runs_split_steps():
    for i in range(20):
        A, tr = _random_trace(trial_seed(46, i))
        runs = thread_edge_runs(tr)
        assert [len(run) for run in runs] == list(tr.spans())
        flat = [e for run in runs for e in run]
        expect = []
        for x, y, wid in tr.events:
            letter = tr.words[wid].letters[y]
            expect.append((x, letter, A.rows[letter][x]))
        assert flat == expect
        # each edge ends where the thread's next event or closing starts
        for j, run in enumerate(runs):
            ends = [e[0] for e in run[1:]] + [tr.closings[j][0]]
            assert [e[2] for e in run] == ends[:len(run)]


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


def test_ball_growth_flags_a_fast_growing_in_ball():
    # a revealed map no exploration makes: with one hit the bound is 4r, and
    # state 0's in-ball holds 4 states at radius 1 but 9 at radius 2 = 2k
    preds = {0: (1, 2, 3), 1: (4, 5, 6), 2: (7, 8)}
    revealed = {(p, 0): (v, 0) for v, ps in preds.items() for p in ps}
    A = Automaton([[0] * 9, [0] * 9])
    spec = InputSpec(((0, 0, Word("a")),))
    tr = ExplorationTrace(A, spec, (Word("a"),), (0,), [(0, 0, 0)], (0, 1), [True], [True],
                          ((0, 0, 0),), revealed)
    assert ball(tr, 0, 1, "in") == frozenset(range(4))
    assert ball(tr, 0, 2, "in") == frozenset(range(9))
    assert not check_ball_growth(tr)
    assert not _reference_check_ball_growth(tr)


def _hand_trace(A, entries, events, boundaries, explores, hits):
    # a trace no exploration makes, for the claim checks to refuse; they
    # read no closings and no revealed map
    spec = InputSpec(entries)
    words = tuple(dict.fromkeys(w for _, _, w in entries))
    word_ids = tuple(words.index(w) for _, _, w in entries)
    return ExplorationTrace(A, spec, words, word_ids, events, boundaries,
                            explores, hits, (), {})


def test_equi_flags_an_uneven_word():
    # one thread, so d = 1, at congruence 0 twice and 1 never
    tr = _hand_trace(A3, ((0, 0, AB),), [(0, 0, 0), (1, 0, 0)], (0, 2),
                     [True, True], [False, False])
    assert not check_equi(tr)


def test_degree_sums_flag_a_third_out_edge():
    # state 0 leaves by a, b and c to three states: with one hit the bound
    # is 2, which the second out-edge meets and the third passes
    A = Automaton([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]])
    events = [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
    tr = _hand_trace(A, ((0, 0, Word("abc")),), events, (0, 3),
                     [True] * 3, [True, False, False])
    assert not check_degree_sums(tr)
    tr.step_hits[1] = True
    assert check_degree_sums(tr)


def test_following_counts_flag_a_follow_before_any_hit():
    # with no hit the bound is 0, which one following step passes
    tr = _hand_trace(A3, ((0, 0, AB),), [(0, 0, 0)], (0, 1), [False], [False])
    assert not check_following_counts(tr)


def test_trajectory_overlaps_flag_two_words_on_one_path():
    # ab from congruence 0 and ba from congruence 1 both read a then b,
    # so the two threads share k = 2 edges under different words
    A = Automaton([[1, 1], [0, 0]])
    events = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    tr = _hand_trace(A, ((0, 0, AB), (0, 1, Word("ba"))), events, (0, 2, 4),
                     [True] * 4, [False] * 4)
    assert thread_edge_runs(tr) == [[(0, 0, 1), (1, 1, 0)]] * 2
    assert not check_trajectory_overlaps(tr)


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
    # on the cycle i -> i+1 both letters take 0 to 1: at radius 1 that
    # doubled slot puts two parallel edges in the balls of 0 and 1, and
    # before the second letter's slot is revealed every ball is a path
    succ = [(i + 1) % 8 for i in range(8)]
    tr = explore(Automaton([succ, succ]), InputSpec(((0, 0, Word("a")), (0, 0, Word("b")))))
    assert tr.revealed_map(9)[(0, 1)] == tr.revealed_map(9)[(0, 0)] == 1
    assert path_exception_count(tr, radius=1, t=8) == 0
    assert path_exception_count(tr, radius=1, t=9) == 2
    assert _reference_path_exception_count(tr, 1, 9) == 2


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


@pytest.fixture(scope="module")
def automaton_4e6():
    return random_automaton(4 * 10**6, seed=0)


# (path_exceptions, hits_total) of one-entry traces at (d, k) = (1, 2)
_TRACES_4E6 = [(17, 4), (2, 1), (2, 1)]


@pytest.mark.parametrize("seed, expect", enumerate(_TRACES_4E6))
def test_typicality_ball_and_path_checks_run_at_scale(automaton_4e6, seed, expect):
    # h_max = 400 at (d, k) = (1, 2): a trace reveals more than 4(h_max + 1)
    # vertices, and n = 4e6 passes the path bound 10k h_max^2 = 3.2e6, so
    # both checks run on the traces of an automaton at this n
    A = automaton_4e6
    rng = rng_from_seed(seed)
    w = random_nc_word(2, 2, rng)
    tr = explore(A, InputSpec(((int(rng.integers(A.n)), int(rng.integers(2)), w),)))
    rep = check_typicality(tr, d=1, k=2)
    assert rep.ball_checked and rep.path_exceptions is not None
    assert (rep.path_exceptions, rep.hits_total) == expect
    assert rep.e_ball and rep.e_path and rep.typical


def test_input_spec_validation():
    with pytest.raises(ValueError, match="^need at least one entry$"):
        InputSpec(())
    with pytest.raises(ValueError, match="^all words must have the same length$"):
        InputSpec(((0, 0, Word("ab")), (0, 0, Word("aab"))))
    for r in (2, -1):
        with pytest.raises(ValueError, match="^congruence out of range$"):
            InputSpec(((0, r, Word("ab")),))
    for u, r in ((0.9, 1.2), (0, 1.0), ("1", 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="^entry state and congruence must be integers$"):
            InputSpec(((u, r, Word("ab")),))
    assert InputSpec(((np.int64(1), 1, Word("ab")),)).entries == ((1, 1, Word("ab")),)
    for u in (3, 5, -1):
        with pytest.raises(ValueError, match="^entry state out of range$"):
            explore(A3, InputSpec(((u, 0, Word("ab")),)))
    # entry words are checked against the alphabet as every word is, in core
    with pytest.raises(ValueError, match="^word uses letter outside the alphabet$"):
        explore(A3, InputSpec(((0, 0, Word((0, 2))),)))
    # checked before the lengths, so a word with no length gives the same
    # error, in any entry
    for word in ("ab", (0, 1), 5, None):
        with pytest.raises(ValueError, match="Word"):
            explore(A3, InputSpec(((0, 0, word),)))
        with pytest.raises(ValueError, match="Word"):
            InputSpec(((0, 0, Word("ab")), (1, 0, word)))


def test_spec_properties():
    spec = InputSpec(((0, 0, Word("aab")), (1, 2, Word("abb"))))
    assert spec.d == 2
    assert spec.k == 3


def test_dump_lines_wide_alphabet():
    A = Automaton([[1, 0], [0, 1], [1, 1]])
    tr = explore(A, InputSpec(((0, 0, Word((0, 2))),)))
    lines = dump_lines(tr)
    assert all(line["z"] == "ac" for line in lines)


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


def _reference_ball(adjacency, u, radius, direction):
    out_adj, in_adj = adjacency
    if direction == "out":
        return frozenset(_reference_bfs(out_adj, u, radius))
    if direction == "in":
        return frozenset(_reference_bfs(in_adj, u, radius))
    return frozenset(_reference_bfs(out_adj, u, radius) | _reference_bfs(in_adj, u, radius))


def _reference_check_ball_growth(trace):
    k = trace.k
    t = trace.final_time
    h = sum(trace.step_hits)
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


def _cycle_survivors(out_adj, in_adj):
    # peel vertices that cannot lie on a directed cycle
    verts = set(out_adj) | set(in_adj)
    out_count = {v: len(out_adj.get(v, ())) for v in verts}
    in_count = {v: len(in_adj.get(v, ())) for v in verts}
    queue = [v for v in verts if out_count[v] == 0 or in_count[v] == 0]
    dead = set()
    while queue:
        v = queue.pop()
        if v in dead:
            continue
        dead.add(v)
        for u in in_adj.get(v, ()):
            if u not in dead:
                out_count[u] -= 1
                if out_count[u] <= 0:
                    queue.append(u)
        for w in out_adj.get(v, ()):
            if w not in dead:
                in_count[w] -= 1
                if in_count[w] <= 0:
                    queue.append(w)
    return verts - dead


def _is_directed_path(vertices, edges):
    # a simple chain: one fewer edge than vertices, degrees at most one
    if len(edges) != len(vertices) - 1:
        return False
    ins = {}
    outs = {}
    for src, dst in edges:
        ins[dst] = ins.get(dst, 0) + 1
        outs[src] = outs.get(src, 0) + 1
        if ins[dst] > 1 or outs[src] > 1:
            return False
    starts = [v for v in vertices if v not in ins]
    if len(vertices) == 1:
        return True
    if len(starts) != 1:
        return False
    v = starts[0]
    chain = {v}
    nxt = {src: dst for src, dst in edges}
    while v in nxt:
        v = nxt[v]
        if v in chain:
            return False
        chain.add(v)
    return chain == set(vertices)


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
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(15, 200), r=st.integers(2, 3),
       k=st.integers(2, 6), d=st.integers(1, 4), data=st.data())
def test_revealed_graph_walks_match_reference(seed, n, r, k, d, data):
    rng = rng_from_seed(seed)
    A = random_automaton(n, r, seed=seed)
    words = _nc_word_set(k, d, rng, r)
    entries = tuple((int(rng.integers(n)), int(rng.integers(k)), w) for w in words)
    tr = explore(A, InputSpec(entries))
    t = data.draw(st.one_of(st.none(), st.integers(0, tr.final_time)), label="t")
    radius = data.draw(st.integers(0, 2 * k + 1), label="radius")
    # every vertex revealed by the whole trace, so also those t leaves out
    revealed = {v for (src, _), (dst, _) in tr.revealed.items() for v in (src, dst)}
    adjacency = _reference_adjacency(tr, t)
    for u in revealed:
        for ball_radius in range(2 * k + 2):
            for direction in ("in", "out", "both"):
                assert (ball(tr, u, ball_radius, direction, t)
                        == _reference_ball(adjacency, u, ball_radius, direction))
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
