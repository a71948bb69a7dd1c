"""Deterministic automata, word threads, and one-letter views.

States are 0-indexed ints. A word over an r-letter alphabet is a tuple of
letter indices; for r=2 the letters print as 'a' and 'b'. Applying a word
reads it left to right: the image of u under "ab" is b(a(u)).
"""

import itertools
import math
import numbers
import operator
import re
import string

import numpy as np

FORMAT_TAG = "synchrotree-automaton-v1"
MASK64 = (1 << 64) - 1


class SchemaError(ValueError):
    """Raised when serialized input does not match the expected schema."""


def splitmix64(x):
    """One avalanche round of splitmix64, a stable 64-bit integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def rng_from_seed(seed):
    """A PCG64 generator; one seed gives one stream on every platform."""
    return np.random.Generator(np.random.PCG64(int(seed) & MASK64))


def trial_seed(seed, trial):
    """Stream seed for one trial: the master seed xor a hash of the index."""
    return (int(seed) ^ splitmix64(int(trial))) & MASK64


_INDEX = re.compile(r"0|[1-9][0-9]*")


def _text_to_letters(text):
    # letters 'a'..'z', or canonical decimal indices joined by commas, which
    # Word.text writes once a letter passes 'z'; "10" is the single letter 10
    if text.isalpha():
        try:
            return tuple(string.ascii_lowercase.index(ch) for ch in text)
        except ValueError:
            pass
    else:
        parts = text.split(",")
        if all(_INDEX.fullmatch(part) for part in parts):
            return tuple(int(part) for part in parts)
    raise ValueError("unreadable word text %r" % text)


def as_index(x, what):
    """x as an int, for ints and numpy integers; ValueError naming what
    otherwise. bool is an int subclass, but true is no letter or state."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("%s must be integers" % what)


def _read_index(x, n, noun):
    """x as an int in range(n), the package's one reader of states, marks and
    congruences: "states must be integers" or "state out of range"."""
    if type(x) is not int:  # a plain int skips a call: thread reads two per walk
        x = as_index(x, noun + "s")
    if not 0 <= x < n:
        raise ValueError("%s out of range" % noun)
    return x


def _read_count(x, what):
    """x as an int >= 0, the package's one reader of counts: "budget must
    be integers" or "budget must be >= 0"."""
    x = as_index(x, what)
    if x < 0:
        raise ValueError("%s must be >= 0" % what)
    return x


def is_finite_number(x):
    """True for a finite real number other than a bool. An int past float
    range is refused, where math.isfinite raises OverflowError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class Word:
    """An immutable sequence of letter indices, at least one letter long."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        if isinstance(letters, str):
            letters = _text_to_letters(letters)
        letters = tuple(as_index(l, "letter indices") for l in letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        if any(l < 0 for l in letters):
            raise ValueError("letter indices must be nonnegative")
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%r)" % (self.text,)

    @property
    def text(self):
        if max(self.letters) < len(string.ascii_lowercase):
            return "".join(string.ascii_lowercase[l] for l in self.letters)
        return ",".join(str(l) for l in self.letters)

    def rotate(self, m):
        """The word read from position m onward, wrapping around."""
        m %= len(self.letters)
        return Word(self.letters[m:] + self.letters[:m])

    def repeat(self, times):
        return Word(self.letters * _read_count(times, "times"))


def _proper_divisors(k):
    return [d for d in range(1, k) if k % d == 0]


def is_self_conjugate(word):
    """True when some nontrivial rotation reproduces the word (a Word or a
    tuple of letters).

    Equivalent to being a power of a strictly shorter word, so only
    rotations by proper divisors of the length need checking.
    """
    letters = tuple(word)
    return any(letters[d:] + letters[:d] == letters
               for d in _proper_divisors(len(letters)))


def are_conjugate(w1, w2):
    """True when the two words differ by a rotation."""
    if len(w1) != len(w2):
        return False
    a, b = tuple(w1), tuple(w2)
    return any(a[m:] + a[:m] == b for m in range(len(a)))


def enumerate_nc_words(k, r=2):
    """All non-self-conjugate words of length k, in lexicographic order."""
    if k < 1:
        raise ValueError("word length must be positive")
    for letters in itertools.product(range(r), repeat=k):
        w = Word(letters)
        if not is_self_conjugate(w):
            yield w


def _mobius(d):
    mu = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if d > 1 else mu


def count_nc_words(k, r=2):
    """How many words enumerate_nc_words(k, r) yields, without enumerating:
    by the necklace formula there are sum over d | k of mobius(d) * r^(k/d)
    words of length k that are no power of a shorter word."""
    if k < 1:
        raise ValueError("word length must be positive")
    return sum(_mobius(d) * r ** (k // d) for d in range(1, k + 1) if k % d == 0)


def random_nc_word(k, r, rng):
    """Uniform draw from the non-self-conjugate words of length k."""
    if r < 2 and k > 1:  # on one letter every longer word is a power
        raise ValueError("no non-self-conjugate word of length %d on %d letter" % (k, r))
    while True:
        w = Word(rng.integers(0, r, size=k).tolist())
        if not is_self_conjugate(w):
            return w


def _int64_copy(arr, n, what, rows):
    """The fresh array arr as read-only int64 in range(n); floats, bools
    and strings are refused rather than truncated, with ValueError. rows
    are the sequences arr was built from, or () for an array; numpy turns a
    bool among ints into 0 or 1, so their entries are scanned for one."""
    types = map(type, itertools.chain.from_iterable(rows))
    if arr.dtype.kind not in "iu" or not {bool, np.bool_}.isdisjoint(types):
        raise ValueError("%s must be an integer" % what)
    arr = arr.astype(np.int64, copy=False)
    if arr.view(np.uint64).max() >= n:  # one reduction: negatives wrap past n
        raise ValueError("%s out of range" % what)
    arr.setflags(write=False)
    return arr


class Automaton:
    """A complete deterministic transition table over an r-letter alphabet.

    delta[letter][state] is the successor state. No initial or accepting
    states are distinguished. Instances are treated as immutable; rewiring
    always builds a new table.
    """

    __slots__ = ("n", "r", "delta", "_rows", "_hash")

    def __init__(self, delta):
        arr = np.array(delta)
        if arr.ndim != 2:
            raise ValueError("delta must be a 2d table, one row per letter")
        r, n = arr.shape
        if n < 1:
            raise ValueError("need at least one state")
        if r < 2:
            raise ValueError("need at least two letters")
        rows = () if isinstance(delta, np.ndarray) else delta
        arr = _int64_copy(arr, n, "transition target", rows)
        self.delta = arr
        self.n = n
        self.r = r
        self._rows = None
        self._hash = None

    @property
    def rows(self):
        """delta as a tuple of tuples of ints, built on first use: the
        scalar walks index it, the numpy paths never need it."""
        if self._rows is None:
            self._rows = tuple(map(tuple, self.delta.tolist()))
        return self._rows

    def __reduce__(self):
        # rebuilt through __init__, so the copy's delta is read-only too
        return (Automaton, (self.delta,))

    def __eq__(self, other):
        return (
            isinstance(other, Automaton)
            and self.n == other.n
            and self.r == other.r
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.r, self.rows))
        return self._hash

    def __repr__(self):
        return "Automaton(n=%d, r=%d)" % (self.n, self.r)

    def to_json_dict(self):
        return {
            "format": FORMAT_TAG,
            "n": self.n,
            "alphabet": self.r,
            "delta": [list(row) for row in self.rows],
        }


def automaton_from_json(doc):
    """Validate a parsed JSON document and build the automaton.

    Raises SchemaError naming the offending field.
    """
    if not isinstance(doc, dict):
        raise SchemaError("automaton document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise SchemaError("format: expected %r" % FORMAT_TAG)
    # type(x) is int, because JSON true/false load as bool, an int subclass
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise SchemaError("n: expected a positive integer")
    r = doc.get("alphabet")
    if type(r) is not int or r < 2:
        raise SchemaError("alphabet: expected an integer of at least 2")
    delta = doc.get("delta")
    if not isinstance(delta, list) or len(delta) != r:
        raise SchemaError("delta: expected %d rows" % r)
    for i, row in enumerate(delta):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError("delta[%d]: expected %d entries" % (i, n))
        if set(map(type, row)) != {int}:
            j = next(j for j, x in enumerate(row) if type(x) is not int)
            raise SchemaError("delta[%d][%d]: expected an integer state" % (i, j))
    try:
        # an array, as every entry is an int; the range check is left to fail
        return Automaton(np.array(delta, dtype=np.int64))
    except (ValueError, OverflowError):
        i, j = next((i, j) for i, row in enumerate(delta)
                    for j, x in enumerate(row) if not 0 <= x < n)
        raise SchemaError("delta[%d][%d]: state out of range" % (i, j)) from None


def random_automaton(n, r=2, seed=0):
    """Uniform automaton: every transition target drawn independently.

    seed is an int, drawn from as rng_from_seed(seed), or a
    numpy.random.Generator that is drawn from in place.
    """
    if n < 1:
        raise ValueError("need at least one state")
    if r < 2:
        raise ValueError("need at least two letters")
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    return Automaton(rng.integers(0, n, size=(r, n), dtype=np.int64))


def _check_word(A, word):
    if max(word.letters) >= A.r:
        raise ValueError("word uses letter outside the alphabet")


def apply_word(A, state, word):
    """The image of one state under the word, read left to right."""
    _check_word(A, word)
    state = _read_index(state, A.n, "state")
    rows = A.rows
    for l in word.letters:
        state = rows[l][state]
    return state


def apply_word_all(A, word):
    """Images of every state under the word: the successor array of A's
    one-letter view under word, which the functional-graph kernel takes:
    a fresh int64 copy of the first letter's row, gathered through the rest."""
    _check_word(A, word)
    states = A.delta[word.letters[0]].copy()
    for l in word.letters[1:]:
        states = A.delta[l][states]
    return states


one_letter_view = apply_word_all  # the view's name for its successor array


class Thread:
    """The walk of a (state, congruence) pair under rotating letters.

    entries[t] is the (vertex, congruence) pair at time t, for times
    0..cut_time-1; the pair reached at cut_time repeats the one seen at
    twin_time. period counts whole word applications in the loop.
    """

    __slots__ = ("start", "word", "entries", "cut_time", "twin_time")

    def __init__(self, start, word, entries, cut_time, twin_time):
        self.start = start
        self.word = word
        self.entries = entries
        self.cut_time = cut_time
        self.twin_time = twin_time

    @property
    def period(self):
        return (self.cut_time - self.twin_time) // len(self.word)

    @property
    def is_cyclic(self):
        return self.twin_time == 0

    def __repr__(self):
        return "Thread(start=%r, cut_time=%d, twin_time=%d)" % (
            self.start,
            self.cut_time,
            self.twin_time,
        )


def thread(A, u, r, word):
    """Walk letters word[r], word[r+1], ... from u, cutting at the first
    repeated (vertex, congruence) pair.

    The congruence advances mod k each step, so cut_time - twin_time is
    always a multiple of k.
    """
    _check_word(A, word)
    k = len(word)
    u = _read_index(u, A.n, "state")
    r = _read_index(r, k, "congruence")
    rows = A.rows
    letters = word.letters
    seen = {}
    entries = []
    v, c = u, r
    key = v * k + c
    t = 0
    while key not in seen:
        seen[key] = t
        entries.append((v, c))
        v = rows[letters[c]][v]
        c += 1
        if c == k:
            c = 0
        key = v * k + c
        t += 1
    return Thread((u, r), word, tuple(entries), t, seen[key])


def _successors(succ):
    """succ as int64, once checked to be a successor array: a non-empty 1-d
    numpy integer array with entries in range(n), else ValueError. An int64
    array is neither copied nor changed; other integer dtypes are converted."""
    if not (isinstance(succ, np.ndarray) and succ.ndim == 1 and succ.size
            and succ.dtype.kind in "iu"):
        raise ValueError("successors must be a non-empty 1-d numpy integer array")
    succ = succ.astype(np.int64, copy=False)
    if succ.view(np.uint64).max() >= succ.size:  # negatives wrap past n
        raise ValueError("successor out of range")
    return succ


def cycles(succ):
    """All cycles of the map v -> succ[v], each listed in successor order.
    succ is a successor array, as apply_word_all returns."""
    succ = _successors(succ).tolist()
    n = len(succ)
    walk = [-1] * n  # the start of the walk that first reached each vertex
    out = []
    for s in range(n):
        if walk[s] >= 0:
            continue
        v = s
        while walk[v] < 0:
            walk[v] = s
            v = succ[v]
        if walk[v] == s:
            # this walk closed on itself, entering its cycle at v
            cyc = [v]
            u = succ[v]
            while u != v:
                cyc.append(u)
                u = succ[u]
            out.append(tuple(cyc))
    return tuple(out)


def cyclic_points(succ):
    """Vertices lying on some cycle of the map v -> succ[v]."""
    return frozenset(v for cyc in cycles(succ) for v in cyc)


def _sorted_unique(a):
    # np.unique(a) for a 1-d a, by hand: np.unique is slower and loads numpy.ma
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def height(succ):
    """Length of the longest vertex-repetition-free chain of transitions
    of the map v -> succ[v], for a successor array succ.

    Per start vertex the chain is forced, so this is distance-to-cycle plus
    cycle length minus one, maximized over vertices. For a loop-rooted tree
    it is the maximum distance to the root.
    """
    succ = _successors(succ)
    n = succ.size
    # strip in-degree-0 vertices round by round: one stripped in round t
    # heads a chain of t vertices, and the vertices never stripped are cyclic
    indeg = np.bincount(succ, minlength=n)
    rank = (indeg == 0).astype(np.int64)
    # round 1 strips most vertices, so recount the in-degrees of the rest
    inner = np.flatnonzero(indeg)
    indeg = np.bincount(succ[inner], minlength=n)
    front = inner[indeg[inner] == 0]
    t = 1
    while front.size:
        t += 1
        rank[front] = t
        heads = succ[front]
        np.subtract.at(indeg, heads, 1)
        front = _sorted_unique(heads[indeg[heads] == 0])
    # cycle lengths by pointer doubling with min labels, on the cyclic points
    cyc = np.flatnonzero(rank == 0)
    pos = np.zeros(n, dtype=np.int64)
    pos[cyc] = np.arange(cyc.size)
    jump = pos[succ[cyc]]
    label = np.arange(cyc.size)
    for _ in range(cyc.size.bit_length()):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    clen = np.zeros(n, dtype=np.int64)
    clen[cyc] = np.bincount(label)[label]
    # a tail vertex entering a cycle of length L scores rank + L - 1 and a
    # cyclic one L - 1; other tail vertices score less than the one below
    return int((rank + clen[succ]).max()) - 1


def loop_root(succ):
    """The root when the map v -> succ[v], for a successor array succ, is
    a loop-rooted tree, else None.

    A tree has exactly one fixed point r, which rejects most maps with one
    comparison. Then count the states g = succ^(2^m) sends to r while
    squaring g: a state at distance d > 2^m from r has a path state at a
    distance in (2^m, 2^(m+1)], so a count that stops growing means r's
    basin is not everything.
    """
    succ = _successors(succ)
    fixed = np.flatnonzero(succ == np.arange(succ.size))
    if fixed.size != 1:
        return None
    r = int(fixed[0])
    n = succ.size
    g = succ
    hit = np.count_nonzero(g == r)
    while hit < n:
        g = g[g]
        grown = np.count_nonzero(g == r)
        if grown == hit:
            return None
        hit = grown
    return r


def is_w_tree(A, word):
    """True when the one-letter view has a single cyclic point."""
    return loop_root(apply_word_all(A, word)) is not None


def tree_root(A, word):
    """The unique cyclic point of a w-tree."""
    root = loop_root(apply_word_all(A, word))
    if root is None:
        raise ValueError("not a tree under this word")
    return root


def shift(A, v, word):
    """cut_time mod k for the thread of (v, 0); defined on w-trees only."""
    if not is_w_tree(A, word):
        raise ValueError("shift is defined only on trees")
    return thread(A, v, 0, word).cut_time % len(word)
