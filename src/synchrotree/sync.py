"""Synchronizing words via repeated tree words, plus exact and polynomial
oracles to validate them.

The fast route: find a word w whose one-letter view is a loop-rooted tree,
measure its height H, and emit w^H, which drags every state into the root.
The rotations of a tree word are tree words, so the search scans only the
least word of each rotation class, in batches of 1024 to 4096 indices, and
maps a hit's other rotations once the scan passes them. A word is held as
its base-r index and mapped by one gather per b-letter block, b = 4 on two
letters, the blocks read off the index. A tree's one cycle is a fixed
point, so the search first walks single states under a batch's words in
lockstep, each to its first repeated state, and drops each word whose walk
proves another cycle. Only the words left, and a hit's rotations, get a
full map; the tree test and the height come from core's functional-graph
kernel, loop_root and height. The oracles: a power-set BFS for exact
shortest words on tiny automata, a pair-merging check for
synchronizability, and a cubic greedy fallback (Eppstein 1990). The last
two share one table of shortest merging words per state pair, held in flat
numpy arrays of size n*n.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Automaton,
    Word,
    _sorted_unique,
    _read_count,
    apply_word_all,
    height,
    is_finite_number,
    loop_root,
)


@dataclass(frozen=True)
class SyncCertificate:
    """A synchronizing word together with how it was obtained.

    verified is set only after the word was re-applied to every state and
    collapsed them to sink.
    """

    word: Word
    sink: int
    method: str
    tree_word: Word = None
    height: int = None
    verified: bool = False

    def to_json_dict(self, emit_word=False):
        doc = {"method": self.method}
        if self.tree_word is not None:
            doc["tree_word"] = self.tree_word.text
        if self.height is not None:
            doc["H"] = self.height
        doc["sink"] = self.sink
        doc["word_len"] = len(self.word)
        doc["verified"] = self.verified
        if emit_word:
            doc["word"] = self.word.text
        return doc


def _certificate(A, word, times, method, **fields):
    """The verified certificate for word repeated times, else RuntimeError.

    word's map comes from apply_word_all, so that the check does not rest
    on a search's own tables, and is raised to the power times by
    squaring, about 2*log2(times) gathers.
    """
    f = apply_word_all(A, word)
    images = np.arange(A.n, dtype=np.int64)
    for bit in range(times.bit_length()):
        if bit:
            f = f[f]
        if times >> bit & 1:
            images = f[images]
    sink = int(images[0])
    if not (images == sink).all():
        raise RuntimeError("%s word failed to reset" % method)
    return SyncCertificate(word=word.repeat(times), sink=sink, method=method,
                           verified=True, **fields)


def is_synchronizing(A, word):
    """The common image state if the word resets A, else None."""
    images = apply_word_all(A, word)
    first = int(images[0])
    if (images == first).all():
        return first
    return None


_FIRST_BATCH = 1024
_MAX_BATCH = 4096
_STARTS = 16  # stage-2 start states per word
_CHECK = 16  # walk steps between the checks for walks that have ended


def _lex_codes(first, count, r, k):
    """The indices first, ..., first+count-1 of the words of length k in
    lexicographic order, a word's index being its base-r number: int64
    while r**k < 2**63, Python ints in an object array beyond."""
    dtype = np.int64 if r ** k < 2 ** 63 else object
    return np.arange(first, first + count, dtype=dtype)


def _word(c, r, k):
    """The word of length k whose index is c."""
    return Word([c // r ** i % r for i in range(k - 1, -1, -1)])


def _rotate(c, r, k, d):
    """The index of the word of index c, or of each in an array, with its
    first d letters moved to its end."""
    return c % r ** (k - d) * r ** d + c // r ** (k - d)


def _rotation_classes(codes, r, k):
    """(least, periodic) for the words whose indices are codes: whether
    each is strictly less than each of its proper rotations, and whether it
    equals one of them, being a power of a shorter word; a word equal to a
    rotation equals one by a divisor of k.
    """
    least = np.ones(codes.size, dtype=bool)
    periodic = np.zeros(codes.size, dtype=bool)
    for d in range(1, k):
        rot = _rotate(codes, r, k, d)
        least &= codes < rot
        if k % d == 0:
            periodic |= codes == rot
    return least, periodic


def _word_batches(r, k, budget):
    """The scan of the first budget non-self-conjugate words of length k,
    in lexicographic order, in batches of 1024, 2048 and then 4096 words.

    Yields (end, codes) per batch: the index the scan has reached, and the
    indices of the batch's words that are strictly less than each of their
    proper rotations, one per conjugacy class. Every non-self-conjugate
    word counts against budget.
    """
    total = r ** k
    left = math.inf if budget is None else budget
    size = _FIRST_BATCH
    first = 0
    while first < total and left > 0:
        count = min(size, left, total - first)
        codes = _lex_codes(first, count, r, k)
        first += count
        least, periodic = _rotation_classes(codes, r, k)
        left -= count - np.count_nonzero(periodic)
        size = min(2 * size, _MAX_BATCH)
        yield first, codes[least]


def _block_table(A, k):
    """(table, b): the maps of the b-letter blocks, then those of the
    t-letter tails, t = k mod b, each in lexicographic order, as a flat
    int64 array of (r**b + r**t)*n entries (r**b*n when t = 0). b is the
    largest length with r**b <= 16, at least 2. A row is one gather, made
    in place: letter c then block v maps by v's map after c's, and for
    c = 0 it takes v's row, so c counts down.
    """
    n, r = A.n, A.r
    b = 4 if r == 2 else 2
    t = k % b
    table = np.empty((r ** b + (r ** t if t else 0), n), dtype=np.int64)
    table[0] = np.arange(n)
    for j in range(b):
        if j == t:  # rows below r**t hold the tails
            table[r ** b:] = table[:len(table) - r ** b]
        for c in range(r - 1, -1, -1):
            for i in range(r ** j):
                table[c * r ** j + i] = table[i][A.delta[c]]
    return table.ravel(), b


def _block_offsets(codes, r, k, b, n):
    """Offsets into the flat block table of the blocks of the words of
    indices codes, tail last, as a (ceil(k/b), B) array (one column for an
    int index): each block is a run of b base-r digits of the index."""
    t = k % b
    rows = [codes // r ** (k - j - b) % r ** b for j in range(0, k - t, b)]
    if t:
        rows.append(codes % r ** t + r ** b)
    return np.array(rows, dtype=np.int64) * n


def _map(table, offs, x):
    """x mapped by the words whose block offsets are the rows of offs."""
    for o in offs:
        x = table[o + x]
    return x


def _walk_ends(table, offs, x):
    """Many walks in lockstep, each to its first repeated state.

    Walk i starts at x[i] and steps by the word with block offsets
    offs[:, i]. path holds the live walks' states, one row per step. Every
    _CHECK steps the walks whose state repeats an earlier one, so lies on
    their cycle, are dropped. Returns (end, fixed): each walk's last state,
    on its cycle, and whether it is fixed, which it is when it equals the
    state a step before.
    """
    end = np.empty(x.size, dtype=np.int64)
    fixed = np.empty(x.size, dtype=bool)
    live = np.arange(x.size)
    path = np.empty((4 * _CHECK, x.size), dtype=np.int64)
    path[0] = x
    s = 0
    while live.size:
        if s + _CHECK >= len(path):
            path = np.concatenate((path, np.empty_like(path)))
        for s in range(s + 1, s + _CHECK + 1):
            x = path[s] = _map(table, offs, x)
        stop = (path[:s] == x).any(axis=0)
        if stop.any():
            end[live[stop]] = x[stop]
            fixed[live[stop]] = path[s - 1, stop] == x[stop]
            keep = ~stop
            live, x, offs, path = live[keep], x[keep], offs[:, keep], path[:, keep]
    return end, fixed


def _tree_words(A, k, batches):
    """(word, height, root) for the tree words of the scan, in order.

    Maps X and Y of a finite set give XY and YX the same cycle type on
    their periodic points, so a rotation of a tree word is a tree word and
    the batches hold only the least word of each class, by index. A word
    map is ceil(k/b) gathers through _block_table, 4 at k = 16 on two
    letters. A loop-rooted tree has one cycle, a fixed point, so each
    rejection below is a proof. Stage 1 walks state 0 under every word to a
    repeated state and drops the words whose walk ends on a longer cycle;
    stage 2 walks _STARTS spread states under each survivor the same way and
    drops it unless each walk ends on stage 1's fixed point. Only the words
    left get a full map, tested by loop_root. The indices of a hit's other
    rotations wait in a heap until the scan passes them, then take the same
    map, test and height.
    """
    n, r = A.n, A.r
    table, b = _block_table(A, k)
    starts = _sorted_unique(np.linspace(0, n - 1, _STARTS).astype(np.int64))
    pending = []  # indices of hit rotations the scan has not passed

    def tree(c):
        # (word, height, root) for the word of index c, or None
        f = _map(table, _block_offsets(c, r, k, b, n), np.arange(n))
        root = loop_root(f)
        if root is None:
            return None
        return _word(c, r, k), height(f), root

    def rotations_below(c):
        while pending and pending[0] < c:
            d = heapq.heappop(pending)
            hit = tree(d)
            if hit is None:
                raise RuntimeError("a rotation of a tree word is not a tree: %s"
                                   % _word(d, r, k).text)
            yield hit

    for scanned, codes in batches:
        offs = _block_offsets(codes, r, k, b, n)
        end, fixed = _walk_ends(table, offs, np.zeros(codes.size, dtype=np.int64))
        fixed = np.flatnonzero(fixed)
        roots = np.repeat(end[fixed], starts.size)
        end, _ = _walk_ends(table, np.repeat(offs[:, fixed], starts.size, axis=1),
                            np.tile(starts, fixed.size))
        for i in fixed[(end == roots).reshape(-1, starts.size).all(axis=1)]:
            c = int(codes[i])
            hit = tree(c)
            if hit is not None:
                yield from rotations_below(c)
                yield hit
                for d in range(1, k):
                    heapq.heappush(pending, _rotate(c, r, k, d))
        yield from rotations_below(scanned)


def iter_tree_words(A, k, budget=None):
    """(word, height, root) for every word of length k whose one-letter
    view is a loop-rooted tree, among the non-self-conjugate words in
    lexicographic order; budget, a whole number >= 0, caps the words scanned.
    """
    if k < 1:
        raise ValueError("word length must be positive")
    if budget is not None:
        budget = _read_count(budget, "budget")
    return _tree_words(A, k, _word_batches(A.r, k, budget))


def find_tree_word(A, k, budget=None):
    """The first item of iter_tree_words, (word, height, root), or None."""
    return next(iter_tree_words(A, k, budget), None)


def pick_tree_length(n, epsilon=0.2):
    """Word length for the tree search: ceil((1+epsilon) log2 n), floored
    at 1 and capped at ceil(2 log2 n). Clamping epsilon to [-1, 1] first
    gives the same k and keeps the product finite."""
    if not is_finite_number(epsilon):
        raise ValueError("epsilon must be finite, got %r" % (epsilon,))
    k = math.ceil((1 + min(max(epsilon, -1), 1)) * math.log2(n))
    return max(1, min(k, math.ceil(2 * math.log2(n))))


def tree_sync_word(A, epsilon=0.2, budget=None):
    """Synchronize by repeating a tree word height-many times.

    Returns a verified certificate, or None when no tree word of the
    picked length exists within the budget; no automatic fallback.
    """
    if A.n < 2:
        raise ValueError("need at least two states")
    k = pick_tree_length(A.n, epsilon)
    found = find_tree_word(A, k, budget)
    if found is None:
        return None
    w, H, _ = found
    # the sink is read off the checked images; it is the search's root,
    # w's one fixed point
    return _certificate(A, w, H, "tree", tree_word=w, height=H)


def _pair_merge_tables(A):
    """Shortest merge data for unordered state pairs.

    Returns (dist, step), int32 arrays of size n*n indexed by p*n+q with
    p <= q, -1 where unreached; step holds the first letter of one
    shortest merging word. BFS runs backward from the diagonal over
    preimages one level at a time. Each level lists its candidates in
    FIFO order (parent's queue position, letter, preimage pair) and keeps
    each pair's first discoverer, found with no sort by a scatter-min of
    candidate positions, so the tables match a plain FIFO queue.
    """
    n, r = A.n, A.r
    # block s*r + l lists the preimages of state s under letter l, ascending
    into = (A.delta * r + np.arange(r)[:, None]).ravel()
    pre = np.argsort(into, kind="stable") % n
    cnt = np.bincount(into, minlength=n * r)
    first = np.cumsum(cnt) - cnt
    dist = np.full(n * n, -1, dtype=np.int32)
    step = np.full(n * n, -1, dtype=np.int32)
    unseen = np.iinfo(np.int32).max
    seen = np.full(n * n, unseen, dtype=np.int32)
    level = np.arange(n, dtype=np.int64) * (n + 1)
    dist[level] = 0
    d = 0
    while level.size:
        p, q = np.divmod(level, n)
        bp = (p[:, None] * r + np.arange(r)).ravel()  # one block per (queue position, letter)
        bq = (q[:, None] * r + np.arange(r)).ravel()
        size = cnt[bp] * cnt[bq]
        keep = np.flatnonzero(size)
        bp, bq, size = bp[keep], bq[keep], size[keep]
        blk = np.repeat(np.arange(size.size), size)
        off = np.arange(blk.size) - np.repeat(np.cumsum(size) - size, size)
        i, j = np.divmod(off, cnt[bq][blk])
        pp = pre[first[bp][blk] + i]
        qq = pre[first[bq][blk] + j]
        key = np.minimum(pp, qq) * n + np.maximum(pp, qq)
        fresh = np.flatnonzero(dist[key] < 0)
        key = key[fresh]
        pos = np.arange(key.size, dtype=np.int32)
        np.minimum.at(seen, key, pos)
        found = np.flatnonzero(seen[key] == pos)  # first discoverers, in order
        seen[key] = unseen
        d += 1
        level = key[found]
        dist[level] = d
        step[level] = bp[blk[fresh[found]]] % r
    return dist, step


def is_synchronizable(A):
    """True iff every state pair can be merged by some word."""
    dist, _ = _pair_merge_tables(A)
    return np.count_nonzero(dist >= 0) == A.n * (A.n + 1) // 2


def greedy_fallback(A):
    """Merge the image set one pair at a time, shortest pair word first.

    Ties go to the smallest pair (p, q). Total length stays under n^3.
    Returns a verified certificate, or None exactly when the automaton is
    not synchronizable.
    """
    n = A.n
    dist, step = _pair_merge_tables(A)
    if np.count_nonzero(dist >= 0) < n * (n + 1) // 2:
        return None
    dist = dist.reshape(n, n)
    rows = A.rows
    current = np.arange(n)
    letters = []
    while current.size > 1:
        # current is sorted, so its pairs p < q are the positive entries
        sub = dist[np.ix_(current, current)]
        i, j = divmod(int(np.where(sub > 0, sub, n * n).argmin()), current.size)
        p, q = int(current[i]), int(current[j])
        while p != q:
            l = int(step[p * n + q])
            letters.append(l)
            current = _sorted_unique(A.delta[l][current])
            p, q = sorted((rows[l][p], rows[l][q]))
    # one state needs no merge, and one letter resets it: empty words are
    # not representable
    cert = _certificate(A, Word(letters or [0]), 1, "greedy")
    if current.tolist() != [cert.sink]:
        raise RuntimeError("greedy word failed to reset")
    return cert


def shortest_sync_word_exact(A):
    """Shortest synchronizing word by BFS over image subsets.

    Guarded at 20 states; the frontier is the set of masks reachable from
    the full state set. Returns None when no singleton is reachable.
    """
    n = A.n
    if n > 20:
        raise ValueError("state powerset search capped at 20 states")
    if n == 1:
        # empty words are not representable; one letter resets one state
        return Word((0,))
    bits = [[1 << A.rows[l][i] for i in range(n)] for l in range(A.r)]
    full = (1 << n) - 1
    parent = {full: None}
    queue = [full]
    head = 0
    while head < len(queue):
        mask = queue[head]
        head += 1
        for l in range(A.r):
            img = 0
            m = mask
            blk = bits[l]
            while m:
                low = m & -m
                img |= blk[low.bit_length() - 1]
                m ^= low
            if img not in parent:
                parent[img] = (mask, l)
                if img & (img - 1) == 0:
                    letters = []
                    cur = img
                    while parent[cur] is not None:
                        prev, letter = parent[cur]
                        letters.append(letter)
                        cur = prev
                    return Word(reversed(letters))
                queue.append(img)
    return None


def cerny_automaton(n):
    """The classical slow-synchronizing fixture: a cycles, b collapses the
    top state onto 0."""
    if n < 2:
        raise ValueError("need at least two states")
    a = [(i + 1) % n for i in range(n)]
    b = list(range(n))
    b[n - 1] = 0
    return Automaton([a, b])
