"""Cycle minima, branch lower records, and collisions between them.

A labeling sigma is a permutation of the states, read as a priority order.
Record sets collect the distinguished vertices where the rewiring bijection
deletes and reattaches edges, read off the one-letter view's cycles
(_cycle_minima) or off the marked thread (_branch_records); the good events
rule out thread arrivals that would make those rewirings ambiguous. One
thread walk, _scan_collisions, finds the first such arrival: the one-word
events scan a single record set, and find_collision scans (i, h, j) triples
across two coordinates. The predicates build no CollisionWitness; only the
*_collision functions and joyal's checks do.
"""

import itertools
from dataclasses import dataclass

from .core import (
    _read_index,
    apply_word_all,
    are_conjugate,
    as_index,
    cycles,
    is_self_conjugate,
    is_w_tree,
    thread,
)


def _check_sigma(sigma, n):
    try:
        sigma = tuple(sigma)
    except TypeError:
        raise ValueError("sigma must hold integer labels") from None
    if set(map(type, sigma)) != {int}:  # one pass when all are plain ints
        sigma = tuple(as_index(x, "sigma labels") for x in sigma)
    # n distinct labels in range(n) are a permutation
    if len(sigma) != n or len(set(sigma)) != n or min(sigma) < 0 or max(sigma) >= n:
        raise ValueError("sigma must be a permutation of the states")
    return sigma


def _check_fields(self):
    # the labeled structures' one field check, by field name: each mark* is
    # read as a state and each sigma* as a permutation, in field order
    n = self.automaton.n
    for name, value in tuple(vars(self).items()):
        if name.startswith("mark"):
            object.__setattr__(self, name, _read_index(value, n, "mark"))
        elif name.startswith("sigma"):
            object.__setattr__(self, name, _check_sigma(value, n))


def random_labeling(n, rng):
    return tuple(rng.permutation(n).tolist())


@dataclass(frozen=True)
class Labeled:
    """An automaton with a priority labeling of its states."""

    automaton: object
    sigma: tuple

    __post_init__ = _check_fields


@dataclass(frozen=True)
class MarkedLabeled:
    """A labeled automaton with one marked state."""

    automaton: object
    mark: int
    sigma: tuple

    __post_init__ = _check_fields


@dataclass(frozen=True)
class DoubleMarked:
    """Two independent marks and labelings on one automaton."""

    automaton: object
    mark1: int
    mark2: int
    sigma1: tuple
    sigma2: tuple

    __post_init__ = _check_fields


@dataclass(frozen=True)
class DoubleLabeled:
    automaton: object
    sigma1: tuple
    sigma2: tuple

    __post_init__ = _check_fields


@dataclass(frozen=True)
class RecordSet:
    """count distinguished vertices plus one closing companion.

    kind "cycle": vertices are the per-cycle label minima sorted by
    decreasing label, then the predecessor of the last minimum on its own
    cycle; positions give each vertex's distance along its cycle from that
    cycle's minimum (so 0 for the minima themselves).

    kind "branch": vertices are the label lower records at congruence-0
    times on the marked thread's pre-periodic part, then the vertex where
    the thread closes; positions are the thread times.
    """

    kind: str
    vertices: tuple
    positions: tuple
    count: int


@dataclass(frozen=True)
class CollisionWitness:
    """One thread arrival that breaks a good event.

    The thread of (source vertex p, congruence r) under word h arrived at
    target vertex q of set j at congruence s. path lists the (vertex,
    congruence) pairs from the source up to and including the arrival.
    """

    ihj: tuple
    p: int
    q: int
    r: int
    s: int
    path: tuple

    def to_json_dict(self):
        return {
            "ihj": list(self.ihj),
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "len": len(self.path) - 1,
        }


def cycle_minima(x, word):
    """Label minima of the cycles of the one-letter view, one per cycle,
    sorted by decreasing label, plus the predecessor of the last one."""
    return _cycle_minima(cycles(apply_word_all(x.automaton, word)), x.sigma)


def _cycle_minima(cycs, sigma):
    # cycle_minima read off cycs, the one-letter view's cycles
    mins = []
    for cyc in cycs:
        v = min(cyc, key=sigma.__getitem__)
        mins.append((sigma[v], v, cyc))
    mins.sort(key=lambda m: -m[0])
    vertices = [m[1] for m in mins]
    positions = [0] * len(mins)
    last_cycle = mins[-1][2]
    i = last_cycle.index(vertices[-1])
    vertices.append(last_cycle[(i - 1) % len(last_cycle)])
    positions.append((len(last_cycle) - 1) % len(last_cycle))
    return RecordSet("cycle", tuple(vertices), tuple(positions), len(mins))


def branch_records(y, word):
    """Strictly decreasing label records at congruence-0 times along the
    marked thread before it closes, plus the closing vertex. Callers that
    already walked the thread read it off with _branch_records."""
    return _branch_records(thread(y.automaton, y.mark, 0, word), y.sigma, len(word))


def _branch_records(th, sigma, k):
    # branch_records read off th, the marked thread under a k-letter word
    vertices = []
    positions = []
    best = None
    for i in range(th.twin_time // k + 1):
        v = th.entries[k * i][0]
        if best is None or sigma[v] < best:
            best = sigma[v]
            vertices.append(v)
            positions.append(k * i)
    count = len(vertices)
    vertices.append(th.entries[th.twin_time][0])
    positions.append(th.twin_time)
    return RecordSet("branch", tuple(vertices), tuple(positions), count)


def _indexed(vertices):
    # first 1-based index for each distinct vertex; duplicates walk once
    out = {}
    for i, v in enumerate(vertices):
        if v not in out:
            out[v] = i + 1
    return out


def _scan_collisions(A, word, source_index, targets):
    """The first arrival of the source threads, walked under word, on the
    targets, (ihj, target index, skip_zero) in scan order, or None.

    First is by target, then source index, congruence and time. An arrival
    (ihj, p, q, v, r, s, time) is the thread of source v (index p) from
    congruence r reaching target index q at congruence s after time steps.
    The start pair is no arrival, nor with skip_zero a congruence-0 return.

    Each thread is walked once for all targets. A target that can no
    longer supply the first arrival is no longer checked, and a thread
    stops on a pair that an earlier thread left clean: that pair and all
    pairs after it are no arrival on any target still checked.
    """
    k = len(word)
    rows = A.rows
    letters = word.letters
    marks = {}  # vertex -> [(target number, index in the target, skip_zero)]
    for m, (_, index, skip_zero) in enumerate(targets):
        for u, q in index.items():
            marks.setdefault(u, []).append((m, q, skip_zero))
    best = None  # the first arrival so far on target number live
    live = len(targets)  # targets from number live on are no longer checked
    clean = set()
    for v, p in sorted(source_index.items(), key=lambda kv: kv[1]):
        for r in range(k):
            start = v * k + r
            if start in clean:
                continue
            own = {start}
            u, c, time = v, r, 0
            while True:
                u = rows[letters[c]][u]
                c += 1
                if c == k:
                    c = 0
                key = u * k + c
                if key in own or key in clean:
                    break
                own.add(key)
                time += 1
                hits = marks.get(u)
                if hits is None:
                    continue
                for m, q, skip_zero in hits:
                    if m < live and not (skip_zero and c == 0):
                        best = (targets[m][0], p, q, v, r, c, time)
                        if m == 0:
                            return best
                        live = m
            # the start pair was never checked as an arrival: keep it out of
            # clean, and the whole thread too if it closed on the start and
            # the start is an arrival
            if key != start:
                own.discard(start)
            elif any(m < live and not (skip_zero and r == 0)
                     for m, _, skip_zero in marks.get(v, ())):
                continue
            clean |= own
    return best


def _witness(A, words, arrival):
    # the arrival as a CollisionWitness, its path the thread's first time+1
    # entries under the word h of its triple (i, h, j): the scan stops a
    # thread at its first repeated pair, so an arrival lies before the cut
    if arrival is None:
        return None
    ihj, p, q, v, r, s, time = arrival
    path = thread(A, v, r, words[ihj[1] - 1]).entries[:time + 1]
    return CollisionWitness(ihj, p, q, r, s, path)


def _arrival_on(A, word, vertices):
    # the first arrival of the threads from a record set on that set; a
    # pure function, so labelings with one record set can share it
    idx = _indexed(vertices)
    return _scan_collisions(A, word, idx, [((1, 1, 1), idx, True)])


def cycle_collision(x, word):
    """The first arrival that makes x cycle-bad, as a CollisionWitness, or None."""
    A = x.automaton
    return _witness(A, (word,), _arrival_on(A, word, cycle_minima(x, word).vertices))


def branch_collision(y, word):
    """The first arrival that makes y branch-bad, as a CollisionWitness, or None."""
    A = y.automaton
    return _witness(A, (word,), _arrival_on(A, word, branch_records(y, word).vertices))


def is_cycle_good(x, word):
    """No cycle-minimum thread ever arrives at a cycle minimum off
    congruence 0."""
    return _arrival_on(x.automaton, word, cycle_minima(x, word).vertices) is None


def is_branch_good(y, word):
    """No branch-record thread ever arrives at a branch record off
    congruence 0."""
    return _arrival_on(y.automaton, word, branch_records(y, word).vertices) is None


def is_good_marked_tree(y, word):
    """Tree under the word, thread of the mark closing at congruence 0,
    and branch-good: the image set of the cycle-folding map."""
    return _good_marked_tree(y.automaton, y.mark, y.sigma, word)


def _good_marked_tree(A, mark, sigma, word):
    # is_good_marked_tree on a checked mark and labeling
    if not is_w_tree(A, word):
        return False
    th = thread(A, mark, 0, word)
    if th.cut_time % len(word) != 0:
        return False
    return _arrival_on(A, word, _branch_records(th, sigma, len(word)).vertices) is None


def _check_word_pair(w1, w2):
    if len(w1) != len(w2):
        raise ValueError("the two words must have equal length")
    if is_self_conjugate(w1) or is_self_conjugate(w2):
        raise ValueError("words must not be self-conjugate")
    if are_conjugate(w1, w2):
        raise ValueError("words must not be conjugate")


def _first_arrival(x, w1, w2, which):
    # find_collision's scan, giving the arrival as _scan_collisions does
    _check_word_pair(w1, w2)
    A = x.automaton
    words = {1: w1, 2: w2}
    if isinstance(x, DoubleLabeled):
        records = {i: _cycle_minima(cycles(apply_word_all(A, words[i])), s)
                   for i, s in ((1, x.sigma1), (2, x.sigma2))}
    else:
        records = {i: _branch_records(thread(A, v, 0, words[i]), s, len(words[i]))
                   for i, v, s in ((1, x.mark1, x.sigma1), (2, x.mark2, x.sigma2))}
    return _arrival_among(A, words, records, which)


def _arrival_among(A, words, records, which):
    # _first_arrival's scan on given record sets: for each (i, h, j) in which,
    # the threads from records[i] walked under words[h] arriving on records[j]
    idx = {i: _indexed(records[i].vertices) for i in (1, 2)}
    # consecutive triples with the same source and word share one walk set
    for (i, h), group in itertools.groupby(which, key=lambda ihj: ihj[:2]):
        targets = [(ihj, idx[ihj[2]], ihj[2] == h) for ihj in group]
        arrival = _scan_collisions(A, words[h], idx[i], targets)
        if arrival is not None:
            return arrival
    return None


def find_collision(x, w1, w2, which):
    """The first witness for the given (i, h, j) triples on a
    two-coordinate configuration, or None: threads start at coordinate
    i's records, walk under word h, and arrivals on coordinate j's records
    count unless j == h and the arrival congruence is 0. The records are
    the branch records of a DoubleMarked and the cycle minima of a
    DoubleLabeled. Each entry of which must be a tuple in ALL_TRIPLES.

    Scan order is the given triple order, then source index, then
    congruence, then time, so the first witness is deterministic.
    """
    which = tuple(which)
    if any(ihj not in ALL_TRIPLES for ihj in which):
        raise ValueError("which must hold (i, h, j) triples of 1s and 2s")
    return _witness(x.automaton, (w1, w2), _first_arrival(x, w1, w2, which))


ALL_TRIPLES = tuple((i, h, j) for i in (1, 2) for h in (1, 2) for j in (1, 2))

# triples whose absence lets coordinate 1 unfold first, then coordinate 2
FIRST_THEN_SECOND = ((1, 1, 1), (2, 2, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1))
# and the mirror set for unfolding coordinate 2 first
SECOND_THEN_FIRST = ((1, 1, 1), (2, 2, 2), (2, 1, 2), (2, 1, 1), (1, 1, 2))


def has_minima_collision(A, sigma1, sigma2, w1, w2):
    """Cycle-minima analog of find_collision over all eight triples.

    True when some minima thread of either coordinate, walked under either
    word, arrives on a recorded minimum apart from the unavoidable
    same-word congruence-0 returns.
    """
    x = DoubleLabeled(A, sigma1, sigma2)
    return _first_arrival(x, w1, w2, ALL_TRIPLES) is not None
