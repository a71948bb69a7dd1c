"""Sequential thread exposure over a batch of inputs, with the bookkeeping
needed to audit its combinatorial claims.

Each input (state, congruence, word) walks its thread, exposing one labeled
edge per time step, and closes as soon as the next (vertex, congruence,
word) triple has been seen before. A step is exploring when its labeled
edge was never traversed earlier, following otherwise; an exploring step
whose head vertex was already visited is a hit. The revealed partial
automaton collects every traversed (state, letter) assignment, closing
steps included, which keeps it independent of the input order.

The ball claims read one kernel: it numbers the revealed vertices once and
grows every vertex's in- and out-ball together as integer bitmasks, one
radius at a time.
"""

import math
from dataclasses import dataclass
from itertools import islice
from operator import or_

from .core import Word, _check_word, _read_count, _read_index, as_index, thread


@dataclass(frozen=True)
class InputSpec:
    """The ordered inputs of one exploration; words must share one length."""

    entries: tuple

    def __post_init__(self):
        what = "entry state and congruence"
        entries = tuple((as_index(u, what), as_index(r, what), w)
                        for u, r, w in self.entries)
        if not entries:
            raise ValueError("need at least one entry")
        if not all(isinstance(w, Word) for _, _, w in entries):
            raise ValueError("entry words must be Word objects")
        k = len(entries[0][2])
        for u, r, w in entries:
            if len(w) != k:
                raise ValueError("all words must have the same length")
            _read_index(r, k, "congruence")
        object.__setattr__(self, "entries", entries)

    @property
    def d(self):
        return len(self.entries)

    @property
    def k(self):
        return len(self.entries[0][2])


class ExplorationTrace:
    """Everything one exploration run exposed, in order.

    events[t] is the (vertex, congruence, word id) triple visited at time t,
    and the step from it traverses the labeled edge it reads in the
    automaton; step_explores and step_hits flag the steps. boundaries[j] is
    the start time of thread j, with boundaries[d] the final time, so thread
    j closes on step boundaries[j + 1] - 1 when it took any.
    """

    def __init__(self, automaton, spec, words, word_ids, events, boundaries,
                 step_explores, step_hits, closings, revealed):
        self.automaton = automaton
        self.spec = spec
        self.words = words
        self.word_ids = word_ids
        self.events = events
        self.boundaries = boundaries
        self.step_explores = step_explores
        self.step_hits = step_hits
        self.closings = closings
        self.revealed = revealed

    @property
    def n(self):
        return self.automaton.n

    @property
    def k(self):
        return self.spec.k

    @property
    def d(self):
        return self.spec.d

    @property
    def final_time(self):
        return len(self.events)

    def spans(self):
        b = self.boundaries
        return tuple(b[j + 1] - b[j] for j in range(self.d))

    def revealed_map(self, t=None):
        """Labeled edges exposed by the first t steps, as slot -> target."""
        if t is None or t >= self.final_time:
            return {slot: dst for slot, (dst, _) in self.revealed.items()}
        return {
            slot: dst
            for slot, (dst, first) in self.revealed.items()
            if first < t
        }


def explore(A, spec):
    """Run the exposure walk for every entry of the spec, in order."""
    k = spec.k
    words = []
    word_index = {}
    entry_ids = []
    for u, r, w in spec.entries:
        _read_index(u, A.n, "entry state")
        _check_word(A, w)
        if w not in word_index:
            word_index[w] = len(words)
            words.append(w)
        entry_ids.append((u, r, word_index[w]))
    nwords = len(words)
    rows = A.rows
    events = []
    eset = set()
    revealed = {}
    step_explores = []
    step_hits = []
    visited = bytearray(A.n)
    boundaries = [0]
    closings = []
    for u, r, wid in entry_ids:
        letters = words[wid].letters
        x, y = u, r
        key = (x * k + y) * nwords + wid
        while key not in eset:
            eset.add(key)
            events.append((x, y, wid))
            visited[x] = 1
            letter = letters[y]
            slot = (x, letter)
            known = revealed.get(slot)
            if known is None:
                dst = rows[letter][x]
                revealed[slot] = (dst, len(events) - 1)
                step_explores.append(True)
                step_hits.append(visited[dst] == 1)
            else:
                dst = known[0]
                step_explores.append(False)
                step_hits.append(False)
            x = dst
            y += 1
            if y == k:
                y = 0
            key = (x * k + y) * nwords + wid
        closings.append((x, y, wid))
        boundaries.append(len(events))
    return ExplorationTrace(
        A, spec, tuple(words), tuple(wid for _, _, wid in entry_ids),
        events, tuple(boundaries), step_explores, step_hits, tuple(closings),
        revealed,
    )


def classify(trace):
    """Per-time tags for the visited events: start, exploring, following,
    or hitting, the latter three describing the arriving step."""
    starts = set()
    for j in range(trace.d):
        if trace.boundaries[j] < trace.boundaries[j + 1]:
            starts.add(trace.boundaries[j])
    return [
        "start" if t in starts else _arrival_tag(trace, t)
        for t in range(trace.final_time)
    ]


def _arrival_tag(trace, t):
    # the tag of the step that arrives at time t
    if trace.step_hits[t - 1]:
        return "hitting"
    return "exploring" if trace.step_explores[t - 1] else "following"


def _revealed_graph(trace, t=None):
    # the revealed vertices at prefix t, numbered in order of appearance, and
    # one (src, dst) pair of numbers per labeled slot, so doubled slots repeat
    if t is not None:
        _read_count(t, "radius and t")
    number = {}
    edges = [(number.setdefault(src, len(number)), number.setdefault(dst, len(number)))
             for (src, _), dst in trace.revealed_map(t).items()]
    return list(number), edges


def _balls(size, edges):
    """Every vertex's out- and in-ball as bitmasks over the vertex numbers,
    one radius at a time from 0: (out, in) lists where bit v of out[u] is
    set when v is within the radius of u along the edges.

    All balls grow together by ball_r(u) = {u} | the union of ball_{r-1}(v)
    over v adjacent to u, one pass over the edges per radius, and the walk
    stops once no ball grows. It holds the current and the next radius's
    masks only: per direction, V ints of V bits for V revealed vertices.
    """
    out = ins = [1 << i for i in range(size)]
    while True:
        yield out, ins
        nxt_out, nxt_in = out[:], ins[:]
        for src, dst in edges:
            nxt_out[src] |= out[dst]
            nxt_in[dst] |= ins[src]
        # a ball grows at radius r exactly when some shortest path has
        # length r, so the in-balls stop growing when the out-balls do
        if nxt_out == out:
            return
        out, ins = nxt_out, nxt_in


def _balls_at(size, edges, radius):
    # the (out, in) masks at the radius, which stay put once the balls stop
    for _, masks in zip(range(radius + 1), _balls(size, edges)):
        pass
    return masks


def _bits(mask):
    # the positions of the set bits, lowest first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ball(trace, u, radius, direction="both", t=None):
    """Vertices within the radius of u in the revealed graph at prefix t.

    direction "out" follows edges forward, "in" backward, "both" unions.
    u must be a state, radius and t whole numbers >= 0. A call grows all V
    revealed vertices' balls to return u's, so it costs about V one-vertex
    walks, and a sweep of calls over every vertex about V^2.
    """
    if direction not in ("in", "out", "both"):
        raise ValueError("direction must be in, out, or both")
    u = _read_index(u, trace.n, "state")
    radius = _read_count(radius, "radius and t")
    verts, edges = _revealed_graph(trace, t)
    if u not in verts:
        return frozenset({u})
    i = verts.index(u)
    out, ins = _balls_at(len(verts), edges, radius)
    mask = {"out": out[i], "in": ins[i], "both": out[i] | ins[i]}[direction]
    return frozenset(verts[j] for j in _bits(mask))


def check_equi(trace):
    """Congruence-class occupancy stays within d per word, every prefix."""
    k = trace.k
    d = trace.d
    counts = [[0] * k for _ in trace.words]
    for x, y, wid in trace.events:
        row = counts[wid]
        row[y] += 1
        if max(row) - min(row) > d:
            return False
    return True


def _step_edges(trace, start=0, stop=None):
    # the labeled edge (src, letter, dst) of each step from start to stop
    rows = trace.automaton.rows
    for x, y, wid in islice(trace.events, start, stop):
        letter = trace.words[wid].letters[y]
        yield x, letter, rows[letter][x]


def check_degree_sums(trace):
    """Both branching-degree sums stay at or below twice the hits, every
    prefix; only exploring steps add edges."""
    n = trace.n
    indeg = [0] * n
    outdeg = [0] * n
    in_sum = 0
    out_sum = 0
    h = 0
    steps = zip(_step_edges(trace), trace.step_explores, trace.step_hits)
    for (src, _, dst), explores, hit in steps:
        if explores:
            outdeg[src] += 1
            if outdeg[src] == 2:
                out_sum += 2
            elif outdeg[src] > 2:
                out_sum += 1
            indeg[dst] += 1
            if indeg[dst] == 2:
                in_sum += 2
            elif indeg[dst] > 2:
                in_sum += 1
        h += hit
        if in_sum > 2 * h or out_sum > 2 * h:
            return False
    return True


def check_following_counts(trace):
    """Following times up to each prefix stay at or below 4dk^2 h_t^2."""
    d = trace.d
    k = trace.k
    h = 0
    f = 0
    for t in range(trace.final_time):
        h += trace.step_hits[t]
        f += not trace.step_explores[t]
        if f > 4 * d * k * k * h * h:
            return False
    return True


def check_ball_growth(trace):
    """In- and out-balls grow at most like 2*l*(h + 1).

    Checks every revealed vertex at the final prefix, over radii 1..2k.
    """
    per_radius = 2 * (sum(trace.step_hits) + 1)
    verts, edges = _revealed_graph(trace)
    radii = islice(_balls(len(verts), edges), 1, 2 * trace.k + 1)
    return all(max(map(int.bit_count, out + ins)) <= per_radius * r
               for r, (out, ins) in enumerate(radii, 1))


def _is_path(mask, outs, ins):
    # the ball is weakly connected through its centre, so it is a directed
    # path exactly when no induced degree passes one, counting doubled
    # slots, and it has one edge fewer than vertices
    edges = 0
    for v in _bits(mask):
        out_deg = 0
        for w in outs[v]:
            out_deg += mask >> w & 1
        in_deg = 0
        for w in ins[v]:
            in_deg += mask >> w & 1
        if out_deg > 1 or in_deg > 1:
            return False
        edges += out_deg
    return edges == mask.bit_count() - 1


def path_exception_count(trace, radius=None, t=None):
    """How many revealed vertices have a combined ball, the union of the
    out- and in-ball at the radius (k by default), that is not a directed
    path at prefix t; radius and t must be whole numbers >= 0."""
    radius = trace.k if radius is None else _read_count(radius, "radius and t")
    verts, edges = _revealed_graph(trace, t)
    outs = [[] for _ in verts]
    ins = [[] for _ in verts]
    for src, dst in edges:
        outs[src].append(dst)
        ins[dst].append(src)
    out_balls, in_balls = _balls_at(len(verts), edges, radius)
    return sum(not _is_path(o | i, outs, ins) for o, i in zip(out_balls, in_balls))


def check_path_exceptions(trace):
    """At the final prefix, ball-not-a-path vertices stay at or below
    10k h^2 for the trace's own hit count."""
    h = sum(trace.step_hits)
    return path_exception_count(trace) <= 10 * trace.k * h * h


def thread_edge_runs(trace):
    """Per thread, the labeled edge sequence it traversed."""
    b = trace.boundaries
    return [list(_step_edges(trace, b[j], b[j + 1])) for j in range(trace.d)]


def check_trajectory_overlaps(trace):
    """Any k consecutive labeled edges shared by two thread trajectories
    force the same word and aligned congruences."""
    k = trace.k
    runs = thread_edge_runs(trace)
    seen = {}
    for j, run in enumerate(runs):
        wid = trace.word_ids[j]
        r = trace.spec.entries[j][1]
        for a in range(len(run) - k + 1):
            window = tuple(run[a:a + k])
            phase = (r + a) % k
            prior = seen.get(window)
            if prior is None:
                seen[window] = (wid, phase)
            elif prior != (wid, phase):
                return False
    return True


@dataclass(frozen=True)
class TypicalityReport:
    """The typical-event audit of one trace, with the constants used."""

    n: int
    k: int
    d: int
    t_max: float
    h_max: float
    entry_thread_lengths: tuple
    hits_total: int
    longest_following_run: int
    path_exceptions: object
    ball_checked: bool
    e_len: bool
    e_hit: bool
    e_ball: bool
    e_path: bool
    e_foll: bool

    @property
    def typical(self):
        return self.e_len and self.e_hit and self.e_ball and self.e_path and self.e_foll


def longest_following_run(trace):
    best = 0
    run = 0
    for flag in trace.step_explores:
        if flag:
            run = 0
        else:
            run += 1
            if run > best:
                best = run
    return best


def check_typicality(trace, d=None, k=None, n=None):
    """Audit one trace against the typical-event bounds.

    t_max = 5k sqrt(n) caps each entry's standalone thread length; h_max =
    100(dk)^2 caps hits; balls must stay under 4*l*(h_max+1); at most
    10k h_max^2 vertices may have a non-path ball; no following run may
    pass 4dk^2 h_max^2. Ball and path checks short-circuit when the bound
    already exceeds everything the trace revealed.
    """
    d = trace.d if d is None else d
    k = trace.k if k is None else k
    n = trace.n if n is None else n
    t_max = 5 * k * (n ** 0.5)
    h_max = 100 * (d * k) ** 2
    A = trace.automaton
    lengths = tuple(
        thread(A, u, r, w).cut_time for u, r, w in trace.spec.entries
    )
    e_len = all(L <= t_max for L in lengths)
    hits = sum(trace.step_hits)
    e_hit = hits <= h_max
    verts, edges = _revealed_graph(trace)
    per_radius = 4 * (h_max + 1)
    ball_checked = len(verts) > per_radius
    # no ball outgrows the bound from the radius where it reaches V
    radii = islice(_balls(len(verts), edges), 1, math.ceil(len(verts) / per_radius))
    e_ball = not ball_checked or all(
        max(map(int.bit_count, map(or_, out, ins))) <= per_radius * r
        for r, (out, ins) in enumerate(radii, 1)
    )
    path_bound = 10 * k * h_max * h_max
    if n <= path_bound:
        exceptions = None
        e_path = True
    else:
        exceptions = path_exception_count(trace)
        e_path = exceptions <= path_bound
    run = longest_following_run(trace)
    e_foll = run <= 4 * d * k * k * h_max * h_max
    return TypicalityReport(
        n=n, k=k, d=d, t_max=t_max, h_max=h_max,
        entry_thread_lengths=lengths, hits_total=hits,
        longest_following_run=run, path_exceptions=exceptions,
        ball_checked=ball_checked, e_len=e_len, e_hit=e_hit,
        e_ball=e_ball, e_path=e_path, e_foll=e_foll,
    )


def dump_lines(trace):
    """One dict per visited triple plus each thread's closing arrival,
    ready for JSON lines output."""
    tags = classify(trace)
    out = []

    def line(t, triple, tag):
        x, y, wid = triple
        out.append({"t": t, "x": x, "y": y,
                    "z": trace.words[wid].text, "tag": tag})

    for j in range(trace.d):
        a, b = trace.boundaries[j], trace.boundaries[j + 1]
        for t in range(a, b):
            line(t, trace.events[t], tags[t])
        # an empty thread closes on its own start triple
        line(b, trace.closings[j], "start" if a == b else _arrival_tag(trace, b))
    return out
