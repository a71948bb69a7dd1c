"""Sequential thread exposure over a batch of inputs, with the bookkeeping
needed to audit its combinatorial claims.

Each input (state, congruence, word) walks its thread, exposing one labeled
edge per time step, and closes as soon as the next (vertex, congruence,
word) triple has been seen before. A step is exploring when its labeled
edge was never traversed earlier, following otherwise; an exploring step
whose head vertex was already visited is a hit. The revealed partial
automaton collects every traversed (state, letter) assignment, closing
steps included, which keeps it independent of the input order.
"""

import operator
from dataclasses import dataclass
from itertools import zip_longest

from .core import format_word, thread


def _as_int(x):
    # bool is an int subclass, but true is no state or congruence
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("entry state and congruence must be integers")


@dataclass(frozen=True)
class InputSpec:
    """The ordered inputs of one exploration; words must share one length."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((_as_int(u), _as_int(r), w) for u, r, w in self.entries)
        if not entries:
            raise ValueError("need at least one entry")
        k = len(entries[0][2])
        for u, r, w in entries:
            if len(w) != k:
                raise ValueError("all words must have the same length")
            if not 0 <= r < k:
                raise ValueError("congruence out of range")
        object.__setattr__(self, "entries", entries)

    @property
    def d(self):
        return len(self.entries)

    @property
    def k(self):
        return len(self.entries[0][2])


class ExplorationTrace:
    """Everything one exploration run exposed, in order.

    events[t] is the (vertex, congruence, word id) triple visited at time t;
    steps are stored as parallel lists over the same times. boundaries[j] is
    the start time of thread j, with boundaries[d] the final time.
    """

    def __init__(self, automaton, spec, words, word_ids, events, boundaries,
                 step_src, step_letter, step_dst, step_explores, step_hits,
                 step_closes, closings, revealed):
        self.automaton = automaton
        self.spec = spec
        self.words = words
        self.word_ids = word_ids
        self.events = events
        self.boundaries = boundaries
        self.step_src = step_src
        self.step_letter = step_letter
        self.step_dst = step_dst
        self.step_explores = step_explores
        self.step_hits = step_hits
        self.step_closes = step_closes
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
        if not 0 <= u < A.n:
            raise ValueError("entry state out of range")
        if max(w.letters) >= A.r:
            raise ValueError("entry word uses letter outside the alphabet")
        if w not in word_index:
            word_index[w] = len(words)
            words.append(w)
        entry_ids.append((u, r, word_index[w]))
    nwords = len(words)
    rows = A.rows
    events = []
    eset = set()
    revealed = {}
    step_src = []
    step_letter = []
    step_dst = []
    step_explores = []
    step_hits = []
    step_closes = []
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
            step_src.append(x)
            step_letter.append(letter)
            step_dst.append(dst)
            step_closes.append(False)
            x = dst
            y += 1
            if y == k:
                y = 0
            key = (x * k + y) * nwords + wid
        if boundaries[-1] < len(events):
            step_closes[-1] = True
        closings.append((x, y, wid))
        boundaries.append(len(events))
    return ExplorationTrace(
        A, spec, tuple(words), tuple(wid for _, _, wid in entry_ids),
        events, tuple(boundaries), step_src, step_letter, step_dst,
        step_explores, step_hits, step_closes, tuple(closings), revealed,
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


def hit_counts(trace):
    """Cumulative hits h_t, one entry per time step, inclusive."""
    out = []
    h = 0
    for flag in trace.step_hits:
        h += flag
        out.append(h)
    return out


def _adjacency(trace, t=None):
    # one list entry per labeled slot, so len(out_adj[v]) is v's out-degree
    out_adj = {}
    in_adj = {}
    for (src, _), dst in trace.revealed_map(t).items():
        out_adj.setdefault(src, []).append(dst)
        in_adj.setdefault(dst, []).append(src)
    return out_adj, in_adj


def _bfs(adj, u, radius=None):
    """The vertices within the radius of u, or all it reaches when radius
    is None, and levels[r - 1], the vertices first reached at radius r."""
    seen = {u}
    levels = []
    frontier = [u]
    while frontier and (radius is None or len(levels) < radius):
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        levels.append(nxt)
        frontier = nxt
    return seen, levels


def _ball_both(out_adj, in_adj, u, radius):
    return _bfs(out_adj, u, radius)[0] | _bfs(in_adj, u, radius)[0]


def ball(trace, u, radius, direction="both", t=None):
    """Vertices within the radius of u in the revealed graph at prefix t.

    direction "out" follows edges forward, "in" backward, "both" unions.
    """
    out_adj, in_adj = _adjacency(trace, t)
    if direction == "out":
        return frozenset(_bfs(out_adj, u, radius)[0])
    if direction == "in":
        return frozenset(_bfs(in_adj, u, radius)[0])
    if direction == "both":
        return frozenset(_ball_both(out_adj, in_adj, u, radius))
    raise ValueError("direction must be in, out, or both")


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


def check_degree_sums(trace):
    """Both branching-degree sums stay at or below twice the hits, every
    prefix; only exploring steps add edges."""
    n = trace.n
    indeg = [0] * n
    outdeg = [0] * n
    in_sum = 0
    out_sum = 0
    h = 0
    for t in range(trace.final_time):
        if trace.step_explores[t]:
            src = trace.step_src[t]
            dst = trace.step_dst[t]
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
        h += trace.step_hits[t]
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
    out_adj, in_adj = _adjacency(trace)
    for u in out_adj.keys() | in_adj.keys():
        for adj in (out_adj, in_adj):
            size = 1
            for r, level in enumerate(_bfs(adj, u, 2 * trace.k)[1], 1):
                size += len(level)
                if size > per_radius * r:
                    return False
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


def path_exception_count(trace, radius=None, t=None):
    """Vertices whose combined ball is not a directed path.

    Only vertices near a branching vertex, a merging vertex, or a cycle can
    fail, so the scan visits the balls of those defects first.
    """
    k = radius if radius is not None else trace.k
    out_adj, in_adj = _adjacency(trace, t)
    defects = {v for v, ws in out_adj.items() if len(ws) >= 2}
    defects |= {v for v, us in in_adj.items() if len(us) >= 2}
    defects |= _cycle_survivors(out_adj, in_adj)
    # the candidates are the defects' ball vertices; each ball is walked once
    balls = {v: _ball_both(out_adj, in_adj, v, k) for v in defects}
    for u in set().union(*balls.values()) - balls.keys():
        balls[u] = _ball_both(out_adj, in_adj, u, k)
    count = 0
    for verts in balls.values():
        induced = [(s, d) for s in verts for d in out_adj.get(s, ()) if d in verts]
        if not _is_directed_path(verts, induced):
            count += 1
    return count


def check_path_exceptions(trace):
    """At the final prefix, ball-not-a-path vertices stay at or below
    10k h^2 for the trace's own hit count."""
    h = hit_counts(trace)[-1] if trace.final_time else 0
    return path_exception_count(trace) <= 10 * trace.k * h * h


def thread_edge_runs(trace):
    """Per thread, the labeled edge sequence it traversed."""
    runs = []
    for j in range(trace.d):
        a, b = trace.boundaries[j], trace.boundaries[j + 1]
        runs.append(
            [
                (trace.step_src[t], trace.step_letter[t], trace.step_dst[t])
                for t in range(a, b)
            ]
        )
    return runs


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


def _union_within(out_adj, in_adj, u, per_radius):
    # the union of u's out- and in-ball holds at most per_radius * r
    # vertices at every radius r
    union = {u}
    levels = zip_longest(_bfs(out_adj, u)[1], _bfs(in_adj, u)[1], fillvalue=())
    for r, (out_level, in_level) in enumerate(levels, 1):
        union.update(out_level, in_level)
        if len(union) > per_radius * r:
            return False
    return True


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
    out_adj, in_adj = _adjacency(trace)
    verts = out_adj.keys() | in_adj.keys()
    ball_checked = len(verts) > 4 * (h_max + 1)
    e_ball = not ball_checked or all(
        _union_within(out_adj, in_adj, u, 4 * (h_max + 1)) for u in verts
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
    r = trace.automaton.r
    out = []

    def line(t, triple, tag):
        x, y, wid = triple
        out.append({"t": t, "x": x, "y": y,
                    "z": format_word(trace.words[wid], r), "tag": tag})

    for j in range(trace.d):
        a, b = trace.boundaries[j], trace.boundaries[j + 1]
        for t in range(a, b):
            line(t, trace.events[t], tags[t])
        # an empty thread closes on its own start triple
        line(b, trace.closings[j], "start" if a == b else _arrival_tag(trace, b))
    return out
