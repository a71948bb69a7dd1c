"""Folding the cycles of a one-letter view into a marked tree, and back.

The forward map deletes the edge closing each cycle at its label minimum
and chains the cycles together in decreasing label order, leaving a tree
whose marked thread retraces the chain. The inverse reads the branch lower
records of the marked thread and re-closes the cycles. Each direction's
plan rewires a rows tuple; only the public maps build a new automaton.
"""

from dataclasses import dataclass

from .core import Automaton, is_w_tree, thread
from .records import (
    DoubleLabeled,
    FIRST_THEN_SECOND,
    Labeled,
    MarkedLabeled,
    SECOND_THEN_FIRST,
    _arrival_among,
    _arrival_on,
    _branch_records,
    _check_word_pair,
    _witness,
    cycle_minima,
)


class CollisionError(ValueError):
    """A good-event precondition failed; carries the witness arrival."""

    def __init__(self, witness):
        super().__init__(
            "collision: thread of source %d under word %d reaches target %d "
            "at congruence %d" % (witness.p, witness.ihj[1], witness.q, witness.s)
        )
        self.witness = witness


@dataclass(frozen=True)
class RewiringPlan:
    """The edge substitutions one direction of the bijection performs.

    edges holds (source, letter, old_target, new_target) rows; sources and
    letters form distinct slots, so applying them in any order agrees, and
    a repeated slot or an old target the table does not hold is a ValueError.
    direction uses the wire names "phi" (fold) and "psi" (unfold).
    """

    direction: str
    edges: tuple

    def apply(self, A):
        return Automaton(self.rewire(A.rows))

    def rewire(self, rows):
        """rows, as Automaton.rows holds them, with the edges substituted."""
        rows = [list(row) for row in rows]
        slots = set()
        for src, letter, old, new in self.edges:
            if (src, letter) in slots:
                raise ValueError("duplicate slot in plan")
            slots.add((src, letter))
            if rows[letter][src] != old:
                raise ValueError("plan does not match the automaton")
            rows[letter][src] = new
        return tuple(map(tuple, rows))

    def inverse(self):
        flipped = tuple((s, l, new, old) for s, l, old, new in self.edges)
        return RewiringPlan("psi" if self.direction == "phi" else "phi", flipped)

    def to_json_dict(self):
        return {
            "dir": self.direction,
            "edges": [
                {"src": s, "letter": l, "old": o, "new": t}
                for s, l, o, t in self.edges
            ],
        }


def fold_cycles(x, word):
    """Rewire each cycle's closing edge onto the next minimum, marking the
    highest-label minimum; defined on cycle-good configurations.

    Returns the marked tree and the plan. A violated good event raises
    CollisionError with the offending arrival.
    """
    A = x.automaton
    rs = cycle_minima(x, word)
    witness = _witness(A, (word,), _arrival_on(A, word, rs.vertices))
    if witness is not None:
        raise CollisionError(witness)
    plan = _fold(A, rs, word)
    return MarkedLabeled(plan.apply(A), rs.vertices[0], x.sigma), plan


def _fold(A, records, word):
    # fold_cycles' plan on the cycle minima records, unchecked
    k = len(word)
    beta = records.vertices
    edges = []
    for p in range(records.count):
        th = thread(A, beta[p], 0, word)
        if not th.is_cyclic:
            raise RuntimeError("thread from a cycle minimum is not cyclic")
        alpha = th.entries[-1][0]
        edges.append((alpha, word.letters[k - 1], beta[p], beta[p + 1]))
    return RewiringPlan("phi", tuple(edges))


def unfold_branch(y, word):
    """Re-cut the marked thread at its branch records, restoring one cycle
    per record; inverse of fold_cycles on its image, which the input is
    checked to lie in.

    Each record's first congruence-0 arrival edge moves back one record;
    the thread's closing edge moves onto the last record.
    """
    A = y.automaton
    if not is_w_tree(A, word):
        raise ValueError("not a tree under the word")
    th = thread(A, y.mark, 0, word)
    if th.cut_time % len(word) != 0:
        raise ValueError("marked thread closes off congruence 0")
    rs = _branch_records(th, y.sigma, len(word))
    witness = _witness(A, (word,), _arrival_on(A, word, rs.vertices))
    if witness is not None:
        raise CollisionError(witness)
    plan = _unfold(th, rs, word)
    return Labeled(plan.apply(A), y.sigma), plan


def _unfold(th, records, word):
    # unfold_branch's plan along th, the marked thread, unchecked
    k = len(word)
    b = records.vertices
    edges = []
    for pp in range(1, records.count + 1):
        pos = records.positions[pp] if pp < records.count else th.cut_time
        src = th.entries[pos - 1][0]
        letter = word.letters[(pos - 1) % k]
        edges.append((src, letter, b[pp], b[pp - 1]))
    return RewiringPlan("psi", tuple(edges))


def unfold_pair(x, w1, w2, order=(1, 2)):
    """Unfold both coordinates of a doubly-marked configuration, first the
    named one; legal when the corresponding collision triples are empty.

    One walk of each marked thread gives its checks and branch records; the
    coordinate unfolded first is rewired along that same walk. The
    coordinate unfolded second must keep its records: its branch records on
    the input equal its cycle minima on the output, or RuntimeError is raised.
    """
    order = tuple(order) if hasattr(order, "__iter__") else None
    if order not in ((1, 2), (2, 1)):
        raise ValueError("order must be (1, 2) or (2, 1)")
    A = x.automaton
    marks = {1: x.mark1, 2: x.mark2}
    sigmas = {1: x.sigma1, 2: x.sigma2}
    words = {1: w1, 2: w2}
    first, second = order
    threads, records = {}, {}
    for i in (1, 2):
        if not is_w_tree(A, words[i]):
            raise ValueError("coordinate %d is not a tree under its word" % i)
        th = threads[i] = thread(A, marks[i], 0, words[i])
        if th.cut_time % len(words[i]) != 0:
            raise ValueError("coordinate %d closes off congruence 0" % i)
        records[i] = _branch_records(th, sigmas[i], len(words[i]))
    _check_word_pair(w1, w2)
    triples = FIRST_THEN_SECOND if order == (1, 2) else SECOND_THEN_FIRST
    witness = _witness(A, (w1, w2), _arrival_among(A, words, records, triples))
    if witness is not None:
        raise CollisionError(witness)
    # the checks above cover the first coordinate's own, on this same input
    plan_a = _unfold(threads[first], records[first], words[first])
    y2, plan_b = unfold_branch(
        MarkedLabeled(plan_a.apply(A), marks[second], sigmas[second]), words[second]
    )
    out = DoubleLabeled(y2.automaton, x.sigma1, x.sigma2)
    before = records[second]
    after = cycle_minima(Labeled(out.automaton, sigmas[second]), words[second])
    if before.count != after.count or before.vertices != after.vertices:
        raise RuntimeError("second coordinate records drifted while unfolding")
    return out, (plan_a, plan_b)
