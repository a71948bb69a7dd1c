"""The four benchmark workloads.

A workload builds its inputs from the bench seed, runs one timed library
call per op, and checks every output itself. In the traced run it also
replays each op's inner public calls inside spans, on the same inputs and
seeds, and fails the op if the replay disagrees with it. Only public
functions of synchrotree are called; the traced replay additionally counts
calls through the public names in COUNTED by rebinding them in the modules
that call them, and restores them afterwards.

Each workload lists its per-layer metrics as (name, value, unit). A `_ms`
metric is a total over one pass of the fixed input set, comparable with
wall_s; a `_us` metric is a mean per call.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
from itertools import permutations, product

import numpy as np

from synchrotree import cli, core, exploration, joyal, lab, records
from synchrotree import (
    Automaton,
    ExperimentConfig,
    InputSpec,
    Labeled,
    MarkedLabeled,
    Word,
    apply_word_all,
    are_conjugate,
    enumerate_nc_words,
    exp_bijection_audit,
    explore,
    find_tree_word,
    fold_cycles,
    greedy_fallback,
    has_minima_collision,
    height,
    is_cycle_good,
    is_good_marked_tree,
    is_synchronizable,
    is_synchronizing,
    is_w_tree,
    one_letter_view,
    pick_tree_length,
    random_automaton,
    random_nc_word,
    save_automaton,
    unfold_branch,
)
from synchrotree.core import rng_from_seed, trial_seed
from synchrotree.exploration import (
    check_ball_growth,
    check_degree_sums,
    check_equi,
    check_following_counts,
    check_path_exceptions,
    check_trajectory_overlaps,
)
from synchrotree.lab import recompute_aggregates, resolve_k

COUNTED = (
    (core, "cycles", "core.cycles"),
    (records, "cycles", "core.cycles"),
    (core, "thread", "core.thread"),
    (records, "thread", "core.thread"),
    (joyal, "thread", "core.thread"),
    (exploration, "thread", "core.thread"),
    (records, "cycle_minima", "records.cycle_minima"),
    (joyal, "cycle_minima", "records.cycle_minima"),
)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _total_ms(tracer, name):
    return tracer.totals(name)[1] / 1e6


def _mean_us(tracer, name):
    count, total, _ = tracer.totals(name)
    return total / count / 1e3 if count else 0.0


def _counted_metrics(tracer):
    # the calls COUNTED tallies during replays
    cycles_calls, cycles_ns = tracer.call_totals("core.cycles")
    thread_calls, thread_ns = tracer.call_totals("core.thread")
    return [
        ("core.cycles_ms", cycles_ns / 1e6, "ms"),
        ("core.cycles_calls", cycles_calls, "count"),
        ("core.thread_us", thread_ns / thread_calls / 1e3 if thread_calls else 0.0, "us"),
        ("records.cycle_minima_calls", tracer.call_totals("records.cycle_minima")[0], "count"),
    ]


def relabel(A, perm):
    """A with state u renamed perm[u]; isomorphic, so every search over
    words examines the same candidates and finds the same word."""
    delta = np.empty_like(A.delta)
    delta[:, perm] = perm[A.delta]
    return Automaton(delta)


def nc_rank(word):
    """1-based position of word in enumerate_nc_words: the number of
    candidates an exhaustive search examines to reach it."""
    for rank, w in enumerate(enumerate_nc_words(len(word)), 1):
        if w == word:
            return rank
    raise ValueError("word is self-conjugate")


class Workload:
    """Inputs, ops, checks and replays of one workload.

    pins holds this workload's entry of pins.json; all_seeds applies to
    every bench seed, and a key named after a seed applies to that seed.
    """

    name = None
    # (module, attribute, span name): calls spanned inside the traced op
    OP_SPANS = ()

    def __init__(self, seed, pins):
        self.seed = seed
        self.pins = pins.get("all_seeds"), pins.get(str(seed))

    def setup(self, workdir):
        """The op inputs, built from the seed; files go under workdir."""
        raise NotImplementedError

    def op_name(self, item):
        raise NotImplementedError

    def op(self, item, tracer=None):
        """The timed call. It spans its own inner calls only where the
        bench makes them itself."""
        raise NotImplementedError

    def check(self, item, output):
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def replay(self, item, output, tracer):
        return None

    def pinned(self, item, output):
        """The exact result of the op, as recorded in the results file."""
        return None

    def reset_len(self, output):
        return None

    def layer_metrics(self, tracer):
        raise NotImplementedError


class ResetLarge(Workload):
    """`synchrotree sync` on six uniform 2-letter automata at n = 10^4.

    The automata are random_automaton(10^4, seed=s) for s = 0..5, the ROADMAP
    baseline, relabeled by a permutation drawn from the bench seed. The
    candidate count per automaton is heavy-tailed (376 to 3396), so fresh
    automata per seed would move wall_s far more than any bound; relabeling
    changes every input byte and memory access while the work stays exact.
    """

    name = "reset_large"
    N = 10**4
    SHAPES = range(6)
    EPSILON = 0.2
    BUDGET = 8192  # above every shape's candidate count, so no bound bites
    OP_SPANS = (
        (cli, "automaton_from_json", "core.load"),
        (cli, "tree_sync_word", "sync.tree_sync_word"),
    )

    def __init__(self, seed, pins):
        super().__init__(seed, pins)
        self.candidates = []
        self.heights = []

    def setup(self, workdir):
        items = []
        for shape in self.SHAPES:
            perm = rng_from_seed(trial_seed(self.seed, shape)).permutation(self.N)
            A = relabel(random_automaton(self.N, seed=shape), perm)
            path = os.path.join(workdir, "reset_large_%d.json" % shape)
            save_automaton(A, path)
            items.append((shape, A, perm, path))
        return items

    def op_name(self, item):
        return "cli.main"

    def op(self, item, tracer=None):
        path = item[3]
        argv = ["sync", "--in", path, "--emit-word", "--epsilon", str(self.EPSILON),
                "--budget", str(self.BUDGET)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, item, output):
        shape, A, perm, _ = item
        code, text = output
        if code != 0:
            return "exit code %d" % code
        doc = json.loads(text)
        word = Word(doc["word"])
        if len(word) != len(doc["tree_word"]) * doc["H"]:
            return "word is not the tree word repeated H times"
        if not (apply_word_all(A, word) == doc["sink"]).all():
            return "word does not reset every state to the reported sink"
        pin = self.pins[0][shape]
        expected = (pin["tree_word"], pin["H"], int(perm[pin["root"]]))
        if (doc["tree_word"], doc["H"], doc["sink"]) != expected:
            return "result differs from the pinned one"
        return None

    def pinned(self, item, output):
        shape, _, perm, _ = item
        doc = json.loads(output[1])
        root = int(np.argsort(perm)[doc["sink"]])
        return {"tree_word": doc["tree_word"], "H": doc["H"], "root": root}

    def reset_len(self, output):
        return json.loads(output[1])["word_len"]

    def replay(self, item, output, tracer):
        A = item[1]
        doc = json.loads(output[1])
        k = pick_tree_length(A.n, self.EPSILON)
        with tracer.span("sync.search"):
            found = find_tree_word(A, k, budget=self.BUDGET)
        w, H, _ = found
        with tracer.span("sync.repeat"):
            word = w.repeat(H)
        with tracer.span("sync.verify"):
            sink = is_synchronizing(A, word)
        self.candidates.append(nc_rank(w))
        self.heights.append(H)
        if (w.text, H, sink) != (doc["tree_word"], doc["H"], doc["sink"]):
            return "replay disagrees with the op"
        return None

    def layer_metrics(self, tracer):
        search_ms = _total_ms(tracer, "sync.search")
        candidates = sum(self.candidates)
        return [
            ("sync.search_ms", search_ms, "ms"),
            ("sync.candidates", candidates, "count"),
            ("sync.candidate_us", 1e3 * search_ms / candidates if candidates else 0.0, "us"),
            ("sync.hit_ratio", len(self.candidates) / candidates if candidates else 0.0, "ratio"),
            ("sync.verify_ms", _total_ms(tracer, "sync.verify"), "ms"),
            ("sync.height", statistics.median(self.heights) if self.heights else 0, "count"),
            ("core.load_ms", _total_ms(tracer, "core.load"), "ms"),
            ("cli.overhead_ms", tracer.totals("cli.main")[2] / 1e6, "ms"),
        ]


class ResetGreedy(Workload):
    """greedy_fallback on uniform automata, one at n = 300 and four at 600.

    Its O(n^2) pair tables run in Python dicts, with no numpy gathers. The
    automata are random_automaton(n, seed=i) for i = 0..4, relabeled by a
    permutation drawn from the bench seed, as in reset_large: the time per
    op varies by +-15% between fresh automata but by a few percent between
    relabelings. Four ops of five are at n = 600, so op_p50_ms lies among
    them; scaled to the reference host, the n = 600 ops also spread less
    from run to run than the n = 300 ones.
    """

    name = "reset_greedy"
    SIZES = (300, 600, 600, 600, 600)

    def setup(self, workdir):
        items = []
        for i, n in enumerate(self.SIZES):
            perm = rng_from_seed(trial_seed(self.seed, i)).permutation(n)
            items.append((i, relabel(random_automaton(n, seed=i), perm)))
        return items

    def op_name(self, item):
        return "sync.greedy"

    def op(self, item, tracer=None):
        return greedy_fallback(item[1])

    def check(self, item, output):
        i, A = item
        if output is None or not output.verified:
            return "no verified certificate"
        if not (apply_word_all(A, output.word) == output.sink).all():
            return "word does not reset every state to the reported sink"
        if self.pins[1] is not None and output.word.text != self.pins[1][i]:
            return "word differs from the pinned one"
        return None

    def pinned(self, item, output):
        return output.word.text

    def reset_len(self, output):
        return len(output.word)

    def replay(self, item, output, tracer):
        A = item[1]
        with tracer.span("sync.pair_tables"):
            synchronizable = is_synchronizable(A)
        with tracer.span("sync.verify"):
            sink = is_synchronizing(A, output.word)
        if not synchronizable or sink != output.sink:
            return "replay disagrees with the op"
        return None

    def layer_metrics(self, tracer):
        return [
            ("sync.greedy_ms", _total_ms(tracer, "sync.greedy"), "ms"),
            ("sync.pair_tables_ms", _total_ms(tracer, "sync.pair_tables"), "ms"),
            ("sync.verify_ms", _total_ms(tracer, "sync.verify"), "ms"),
        ]


def _nc_word_pair(k):
    first = None
    for w in enumerate_nc_words(k):
        if first is None:
            first = w
        elif not are_conjugate(first, w):
            return first, w
    raise ValueError("no mutually non-conjugate word pair at this length")


def _uniform(rng, n):
    return Automaton(rng.integers(0, n, size=(2, n)))


def _sigma(rng, n):
    return tuple(int(v) for v in rng.permutation(n))


# lab's trial bodies are private; these replay them through the same public
# calls and the same RNG stream, and return the row the trial wrote

def _goodness_row(n, k, trial, seed, tracer):
    rng = rng_from_seed(seed)
    w1, w2 = _nc_word_pair(k)
    A = _uniform(rng, n)
    sigma1 = _sigma(rng, n)
    sigma2 = _sigma(rng, n)
    with tracer.span("records.is_cycle_good"):
        cycle_bad = not is_cycle_good(Labeled(A, sigma1), w1)
    with tracer.span("records.has_minima_collision"):
        collision = has_minima_collision(A, sigma1, sigma2, w1, w2)
    return (n, trial, k, int(cycle_bad), int(collision))


def _moment_row(n, k, trial, seed, tracer):
    rng = rng_from_seed(seed)
    A = _uniform(rng, n)
    v = int(rng.integers(0, n))
    sigma = _sigma(rng, n)
    w = random_nc_word(k, A.r, rng)
    with tracer.span("records.is_good_marked_tree"):
        hit = is_good_marked_tree(MarkedLabeled(A, v, sigma), w)
    return (n, trial, int(hit))


def _height_row(n, k, trial, seed, tracer):
    rng = rng_from_seed(seed)
    A = _uniform(rng, n)
    w = Word(rng.integers(0, A.r, size=k).tolist())
    view = one_letter_view(A, w)
    with tracer.span("core.height"):
        h = height(view)
    return (n, trial, k, h, int(h > 5 * math.sqrt(n)))


class LabTrials(Workload):
    """Serial lab experiments over a fixed block of trials each, writing
    their CSV and sidecar. Every trial draws a fresh seed from the bench
    seed, and the cost per trial barely depends on it."""

    name = "lab_trials"
    OP_SPANS = ((lab, "write_record_csv", "lab.write"),)
    # (experiment, sizes, k rule, trials, replayed trial body)
    EXPERIMENTS = (
        ("goodness", (100, 400, 1600), ("log2", 0.2), 60, _goodness_row),
        ("moment_estimate", (128,), ("explicit", 8), 1500, _moment_row),
        ("height", (10**4,), ("ln", 1.0), 12, _height_row),
    )

    def __init__(self, seed, pins):
        super().__init__(seed, pins)
        self.digests = {}
        self.csv_bytes = 0
        self.trial_spans = []

    def setup(self, workdir):
        items = []
        for j, (name, sizes, rule, trials, _) in enumerate(self.EXPERIMENTS):
            cfg = ExperimentConfig(
                experiment=name, sizes=sizes, trials=trials,
                seed=trial_seed(self.seed, j), k_rule=rule,
                out=os.path.join(workdir, name + ".csv"),
            )
            items.append((j, cfg))
        return items

    def op_name(self, item):
        return "lab.run"

    def op(self, item, tracer=None):
        return lab.run(item[1])

    def check(self, item, output):
        j, cfg = item
        if recompute_aggregates(output) != output.aggregates:
            return "aggregates do not match the rows"
        with open(cfg.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digests.setdefault(j, digest) != digest:
            return "CSV bytes changed between passes"
        if self.pins[1] is not None and digest != self.pins[1][cfg.experiment]:
            return "CSV differs from the pinned one"
        return None

    def pinned(self, item, output):
        return self.digests[item[0]]

    def replay(self, item, output, tracer):
        j, cfg = item
        body = self.EXPERIMENTS[j][4]
        index = 0
        for n in cfg.sizes:
            k = resolve_k(cfg.k_rule, n)
            name = "lab.trial.%s.n%d" % (cfg.experiment, n)
            if name not in self.trial_spans:
                self.trial_spans.append(name)
            for trial in range(cfg.trials):
                with tracer.span(name):
                    row = body(n, k, trial, trial_seed(cfg.seed, index), tracer)
                if row != output.rows[index]:
                    return "replayed trial %d disagrees with its row" % index
                index += 1
        self.csv_bytes += os.path.getsize(cfg.out)
        return None

    def layer_metrics(self, tracer):
        trials_ms = sum(_total_ms(tracer, name) for name in self.trial_spans)
        out = [("core.height_ms", _total_ms(tracer, "core.height"), "ms")]
        out += _counted_metrics(tracer)
        out += [
            ("records.is_cycle_good_ms", _total_ms(tracer, "records.is_cycle_good"), "ms"),
            ("records.has_minima_collision_ms",
             _total_ms(tracer, "records.has_minima_collision"), "ms"),
            ("records.is_good_marked_tree_us", _mean_us(tracer, "records.is_good_marked_tree"), "us"),
        ]
        for name in self.trial_spans:
            out.append((name.replace("lab.trial.", "lab.trial_us."), _mean_us(tracer, name), "us"))
        out += [
            ("lab.overhead_ms", _total_ms(tracer, "lab.run") - trials_ms, "ms"),
            ("lab.write_ms", _total_ms(tracer, "lab.write"), "ms"),
            ("lab.csv_bytes", self.csv_bytes, "B"),
        ]
        return out


CLAIMS = (
    ("check_equi", check_equi),
    ("check_degree_sums", check_degree_sums),
    ("check_following_counts", check_following_counts),
    ("check_ball_growth", check_ball_growth),
    ("check_trajectory_overlaps", check_trajectory_overlaps),
    ("check_path_exceptions", check_path_exceptions),
)


def _audit_pair(A, sigmas, w, tracer):
    # the inner loop of lab's bijection audit, through the same public calls
    cgood = bgood = trips = fails = 0
    for sigma in sigmas:
        x = Labeled(A, sigma)
        with tracer.span("records.is_cycle_good"):
            good = is_cycle_good(x, w)
        if not good:
            continue
        cgood += 1
        trips += 1
        try:
            with tracer.span("joyal.fold"):
                y, _ = fold_cycles(x, w)
            with tracer.span("joyal.unfold"):
                back, _ = unfold_branch(y, w)
            if back != x or not is_good_marked_tree(y, w):
                fails += 1
        except ValueError:
            fails += 1
    if is_w_tree(A, w):
        for mark in range(A.n):
            for sigma in sigmas:
                y = MarkedLabeled(A, mark, sigma)
                with tracer.span("records.is_good_marked_tree"):
                    good = is_good_marked_tree(y, w)
                if not good:
                    continue
                bgood += 1
                trips += 1
                try:
                    with tracer.span("joyal.unfold"):
                        x, _ = unfold_branch(y, w)
                    with tracer.span("joyal.fold"):
                        forward, _ = fold_cycles(x, w)
                    if forward != y:
                        fails += 1
                except ValueError:
                    fails += 1
    return cgood, bgood, trips, fails


class Audit(Workload):
    """The exhaustive bijection audit at n, k <= 3 plus exploration traces.

    The traces follow acceptance criterion 8 on a fixed grid of shapes; the
    bench seed draws each trace's automaton, words and entries. Drawing
    them is set-up, because it costs more than exploring.
    """

    name = "audit"
    # d never exceeds the conjugacy classes of nc words of length k, so
    # drawing the words always ends before criterion 8's guard does
    GRID = tuple((n, k, d) for n in (30, 100, 200)
                 for k, d in ((2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 4)))
    TRACES_PER_SHAPE = 24

    def __init__(self, seed, pins):
        super().__init__(seed, pins)
        self.round_trips = 0
        self.failures = 0
        self.steps = 0
        self.hits = 0

    def setup(self, workdir):
        # first, so that a second run of it still fits in a 25 s run
        items = [("bijection_audit", None)]
        shapes = [s for s in self.GRID for _ in range(self.TRACES_PER_SHAPE)]
        for i, (n, k, d) in enumerate(shapes):
            seed = trial_seed(self.seed, i)
            rng = rng_from_seed(seed)
            A = random_automaton(n, 2, seed=seed)
            words = []
            guard = 0
            while len(words) < d and guard < 300:
                w = random_nc_word(k, 2, rng)
                if all(not are_conjugate(w, v) for v in words):
                    words.append(w)
                guard += 1
            entries = tuple((int(rng.integers(n)), int(rng.integers(k)), w) for w in words)
            items.append(("trace", (A, InputSpec(entries))))
        return items

    def op_name(self, item):
        return "lab.exp_bijection_audit" if item[0] == "bijection_audit" else "exploration.trace"

    def op(self, item, tracer=None):
        kind, data = item
        if kind == "bijection_audit":
            return exp_bijection_audit(3, 3)
        with _span(tracer, "exploration.explore"):
            trace = explore(*data)
        verdicts = []
        for name, claim in CLAIMS:
            with _span(tracer, "exploration." + name):
                verdicts.append(claim(trace))
        if tracer is not None:
            self.steps += trace.final_time
            self.hits += sum(trace.step_hits)
        return verdicts

    def check(self, item, output):
        if item[0] == "trace":
            failed = [name for (name, _), ok in zip(CLAIMS, output) if not ok]
            return "claims failed: %s" % ", ".join(failed) if failed else None
        agg = output.aggregates
        if agg["total_failures"] != 0 or agg.get("commute_failures") != 0:
            return "round trips failed"
        if agg["cardinalities_match"] is not True:
            return "cardinalities do not match"
        if recompute_aggregates(output) != agg:
            return "aggregates do not match the rows"
        pin = self.pins[0]
        if (agg["total_round_trips"], agg["commute_checked"]) != (
                pin["total_round_trips"], pin["commute_checked"]):
            return "aggregates differ from the pinned ones"
        return None

    def pinned(self, item, output):
        if item[0] == "trace":
            return None
        agg = output.aggregates
        return {"total_round_trips": agg["total_round_trips"],
                "commute_checked": agg["commute_checked"]}

    def replay(self, item, output, tracer):
        if item[0] == "trace":
            return None
        rows = iter(output.rows)
        for n in (2, 3):
            sigmas = list(permutations(range(n)))
            autos = [Automaton([t[:n], t[n:]]) for t in product(range(n), repeat=2 * n)]
            for k in (1, 2, 3):
                for w in enumerate_nc_words(k):
                    totals = [0, 0, 0, 0]
                    for A in autos:
                        for i, x in enumerate(_audit_pair(A, sigmas, w, tracer)):
                            totals[i] += x
                    self.round_trips += totals[2]
                    self.failures += totals[3]
                    if (n, k, w.text) + tuple(totals) != next(rows):
                        return "replayed audit row (%d, %d, %s) disagrees" % (n, k, w.text)
        return None

    def layer_metrics(self, tracer):
        return _counted_metrics(tracer) + [
            ("joyal.fold_us", _mean_us(tracer, "joyal.fold"), "us"),
            ("joyal.unfold_us", _mean_us(tracer, "joyal.unfold"), "us"),
            ("joyal.round_trips", self.round_trips, "count"),
            ("joyal.failures", self.failures, "count"),
            ("exploration.explore_us", _mean_us(tracer, "exploration.explore"), "us"),
            ("exploration.steps", self.steps, "count"),
            ("exploration.hits", self.hits, "count"),
            ("exploration.ball_growth_ms", _total_ms(tracer, "exploration.check_ball_growth"), "ms"),
            ("exploration.path_exceptions_ms",
             _total_ms(tracer, "exploration.check_path_exceptions"), "ms"),
        ]


WORKLOADS = {w.name: w for w in (ResetLarge, ResetGreedy, LabTrials, Audit)}
