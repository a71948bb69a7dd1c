"""Seeded Monte Carlo experiments over random automata, with CSV output.

Every experiment is driven by an ExperimentConfig and produces an
ExperimentRecord holding one row per trial plus aggregates recomputable
from the rows. Trials derive their own seeds from the master seed, so
serial and parallel runs write byte-identical CSVs.
"""

import csv
import functools
import json
import math
import numbers
import os
import statistics
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import permutations, product

from .core import (
    Automaton,
    Word,
    apply_word_all,
    automaton_from_json,
    count_nc_words,
    cycles,
    enumerate_nc_words,
    are_conjugate,
    as_index,
    is_w_tree,
    height,
    is_finite_number,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    thread,
    trial_seed,
)
from .records import (
    ALL_TRIPLES,
    DoubleMarked,
    _arrival_among,
    _arrival_on,
    _branch_records,
    _cycle_minima,
    _first_arrival,
    _good_marked_tree,
    random_labeling,
)
from .joyal import _fold, _unfold, unfold_pair
from .sync import pick_tree_length, tree_sync_word


# a k_rule's JSON key for its value, per rule type
_RULE_KEYS = {"explicit": "value", "log2": "epsilon", "ln": "factor"}


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: sizes, trial count, seeding, and the k rule.

    k_rule is ("explicit", k), ("log2", epsilon) for ceil((1+eps) log2 n)
    clamped to [1, ceil(2 log2 n)], or ("ln", factor) for
    ceil(factor ln n); scaling takes only a log2 rule, whose epsilon is the
    tree search's. word is only used by tree_probability.
    """

    experiment: str
    sizes: tuple
    trials: int = 100
    seed: int = 0
    k_rule: tuple = ("log2", 0.2)
    budget: int = None
    word: str = None
    out: str = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment: %s" % (self.experiment,))
        if not all(_is_whole(n) and n >= 1 for n in self.sizes):
            raise ValueError("sizes: expected whole numbers >= 1")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if not self.sizes or len(set(self.sizes)) < len(self.sizes):
            raise ValueError("sizes: expected at least one size, none repeated")
        for key in ("word", "out"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ValueError("%s: expected null or a string" % key)
        if not (_is_whole(self.trials) and self.trials >= 1):
            raise ValueError("trials: expected a whole number >= 1")
        object.__setattr__(self, "trials", int(self.trials))
        if not _is_whole(self.seed):
            raise ValueError("seed: expected a whole number")
        object.__setattr__(self, "seed", int(self.seed))
        if self.budget is not None:
            if not (_is_whole(self.budget) and self.budget >= 0):
                raise ValueError("budget: expected null or a whole number >= 0")
            object.__setattr__(self, "budget", int(self.budget))
        rule = tuple(self.k_rule)
        if rule[0] not in ("explicit", "log2", "ln") or len(rule) != 2:
            raise ValueError("k_rule: expected (explicit|log2|ln, value)")
        if not is_finite_number(rule[1]):
            raise ValueError("k_rule: value must be a finite number")
        value = float(rule[1])
        if rule[0] == "explicit" and not (value.is_integer() and value >= 1):
            raise ValueError("k_rule: explicit k must be a whole number >= 1")
        if self.experiment == "scaling" and rule[0] != "log2":
            raise ValueError("k_rule: scaling needs a log2 rule, the tree search's epsilon")
        object.__setattr__(self, "k_rule", (rule[0], value))

    def to_json_dict(self):
        kind, value = self.k_rule
        return {
            "experiment": self.experiment,
            "sizes": list(self.sizes),
            "trials": self.trials,
            "seed": self.seed,
            "k_rule": {"type": kind, _RULE_KEYS[kind]: value},
            "budget": self.budget,
            "word": self.word,
            "out": self.out,
        }


def _is_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_whole(x):
    # ints skip float(), which overflows past 1e308
    return _is_number(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def config_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("config: expected an object")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ValueError("%s: unknown key" % (key,))
    if "experiment" not in doc:
        raise ValueError("experiment: missing")
    if "sizes" not in doc or not isinstance(doc["sizes"], list):
        raise ValueError("sizes: expected a list")
    args = dict(doc)
    kr = args.pop("k_rule", None)
    if kr is not None:
        if not isinstance(kr, dict) or "type" not in kr:
            raise ValueError("k_rule: expected an object with a type")
        key = _RULE_KEYS.get(kr["type"]) if isinstance(kr["type"], str) else None
        if key is None:
            raise ValueError("k_rule.type: expected explicit, log2, or ln")
        for name in kr:
            if name not in ("type", key):
                raise ValueError("k_rule.%s: unknown key" % (name,))
        if key not in kr:
            raise ValueError("k_rule.%s: missing" % key)
        args["k_rule"] = (kr["type"], kr[key])
    return ExperimentConfig(**args)


def resolve_k(rule, n):
    kind, value = rule
    if kind == "log2":
        return pick_tree_length(n, value)
    k = value if kind == "explicit" else value * math.log(n)
    if not (math.isfinite(k) and k <= sys.maxsize):
        raise ValueError("k_rule: %s %r gives no k up to %d at n = %d"
                         % (_RULE_KEYS[kind], value, sys.maxsize, n))
    return max(1, math.ceil(k))


@dataclass(frozen=True)
class ExperimentRecord:
    config: ExperimentConfig
    columns: tuple
    rows: tuple
    aggregates: dict


def save_automaton(A, path):
    with open(path, "w") as f:
        json.dump(A.to_json_dict(), f, indent=1)
        f.write("\n")


def load_automaton(path):
    with open(path) as f:
        return automaton_from_json(json.load(f))


# one trial's measured columns, from the automaton _job drew and the rest of
# its stream; module level so process pools can pick them up. Trials read
# records off their own draws: random_labeling's are valid by contract

_word_of = functools.cache(Word)  # one immutable Word per text, not per trial


def _row_tree_probability(cfg, A, k, rng):
    return (int(is_w_tree(A, _word_of(cfg.word))),)


def _row_moment_estimate(cfg, A, k, rng):
    v = int(rng.integers(0, A.n))
    sigma = random_labeling(A.n, rng)
    w = random_nc_word(k, A.r, rng)
    return (int(_good_marked_tree(A, v, sigma, w)),)


def _row_scaling(cfg, A, k, rng):
    cert = tree_sync_word(A, epsilon=cfg.k_rule[1], budget=cfg.budget)
    if cert is None:
        return (0, k, None, None)
    if not cert.verified:
        raise RuntimeError("tree certificate was not verified")
    return (1, k, cert.height, len(cert.word))


@functools.cache  # one pair of immutable words per k, not one per trial
def _nc_word_pair(k):
    """The first two lexicographic non-self-conjugate words of length k
    that are not conjugates of each other."""
    first = None
    for w in enumerate_nc_words(k):
        if first is None:
            first = w
        elif not are_conjugate(first, w):
            return first, w
    raise ValueError("no mutually non-conjugate word pair at this length")


def _row_goodness(cfg, A, k, rng):
    w1, w2 = _nc_word_pair(k)
    minima1 = _cycle_minima(cycles(apply_word_all(A, w1)), random_labeling(A.n, rng))
    # triple (1, 1, 1) decides cycle_bad; a cycle-bad trial never draws sigma2
    if _arrival_on(A, w1, minima1.vertices) is not None:
        return (k, 1, 1)
    minima2 = _cycle_minima(cycles(apply_word_all(A, w2)), random_labeling(A.n, rng))
    arrival = _arrival_among(A, {1: w1, 2: w2}, {1: minima1, 2: minima2}, ALL_TRIPLES[1:])
    return (k, 0, int(arrival is not None))


def _row_height(cfg, A, k, rng):
    w = Word(rng.integers(0, A.r, size=k).tolist())
    h = height(apply_word_all(A, w))
    return (k, h, int(h > 5 * math.sqrt(A.n)))


def _freq(values):
    return sum(values) / len(values)


def _binom_se(p, trials):
    return math.sqrt(max(p * (1 - p), 0.0) / trials)


def _per_n(cfg, rows):
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    return [(n, groups[n]) for n in cfg.sizes]


def _agg_tree_probability(cfg, rows):
    p = _freq([r[2] for r in rows])
    return {"p_hat": p, "stderr": _binom_se(p, len(rows))}


def _agg_moment_estimate(cfg, rows):
    per = []
    for n, grp in _per_n(cfg, rows):
        k = resolve_k(cfg.k_rule, n)
        a_k = count_nc_words(k)
        p = _freq([r[2] for r in grp])
        se = _binom_se(p, len(grp))
        per.append(
            {
                "n": n,
                "k": k,
                "a_k": a_k,
                "p_hat": p,
                "estimate": n * a_k * p,
                "estimate_stderr": n * a_k * se,
                "target": float(2 ** k),
            }
        )
    return {"per_n": per}


def _fit_slope(points):
    # least squares slope of y on x
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def _agg_scaling(cfg, rows):
    per = []
    points = []
    bound_ok = True
    for n, grp in _per_n(cfg, rows):
        lens = [r[5] for r in grp if r[2]]
        rate = _freq([r[2] for r in grp])
        med = statistics.median(lens) if lens else None
        per.append({"n": n, "success_rate": rate, "median_len": med})
        if med:
            points.append((math.log(n), math.log(med)))
        for L in lens:
            if L > 10 * math.sqrt(n) * math.log2(n):
                bound_ok = False
    slope = _fit_slope(points) if len(points) >= 2 else None
    return {"per_n": per, "slope": slope, "bound_factor": 10.0,
            "bound_ok": bound_ok}


def _agg_goodness(cfg, rows):
    per = []
    for n, grp in _per_n(cfg, rows):
        per.append(
            {
                "n": n,
                "k": grp[0][2],
                "cycle_bad_freq": _freq([r[3] for r in grp]),
                "minima_collision_freq": _freq([r[4] for r in grp]),
            }
        )
    def dec(key):
        return all(per[i][key] > per[i + 1][key] for i in range(len(per) - 1))

    return {
        "per_n": per,
        "cycle_bad_decreasing": dec("cycle_bad_freq"),
        "minima_collision_decreasing": dec("minima_collision_freq"),
    }


def _agg_height(cfg, rows):
    per = []
    for n, grp in _per_n(cfg, rows):
        per.append(
            {
                "n": n,
                "bound": 5 * math.sqrt(n),
                "max_height": max(r[3] for r in grp),
                "exceedances": sum(r[4] for r in grp),
            }
        )
    return {"per_n": per, "exceedances": sum(p["exceedances"] for p in per)}


_Experiment = namedtuple("_Experiment", "columns row aggregate")

# the CSV columns, one trial's row and the aggregates over the rows; the
# audit is exhaustive, not per trial, and _run_bijection_audit runs it
EXPERIMENTS = {
    "tree_probability": _Experiment(
        ("n", "trial", "is_tree"), _row_tree_probability, _agg_tree_probability,
    ),
    "moment_estimate": _Experiment(
        ("n", "trial", "hit"), _row_moment_estimate, _agg_moment_estimate,
    ),
    "scaling": _Experiment(
        ("n", "trial", "success", "k", "height", "word_len"), _row_scaling,
        _agg_scaling,
    ),
    "goodness": _Experiment(
        ("n", "trial", "k", "cycle_bad", "minima_collision"), _row_goodness,
        _agg_goodness,
    ),
    "height": _Experiment(
        ("n", "trial", "k", "height", "exceeds"), _row_height, _agg_height,
    ),
    "bijection_audit": _Experiment(
        ("n", "k", "word", "cycle_good", "good_trees", "round_trips",
         "failures"),
        None, None,
    ),
}


def _job(args):
    """One trial's row: the automaton is the first draw from the trial's
    seed, and the row reads the rest of the stream after it."""
    cfg, n, k, trial, seed = args
    rng = rng_from_seed(seed)
    A = random_automaton(n, seed=rng)
    return (n, trial) + EXPERIMENTS[cfg.experiment].row(cfg, A, k, rng)


def run(config, workers=None):
    """Execute the experiment and return its record.

    workers >= 1 caps a process pool of at most one process per job and CPU;
    the rows, aggregates, and any files written are identical either way.
    With config.out set, the rows land in a CSV and the config in a
    .config.json sidecar.
    """
    if workers is not None and as_index(workers, "workers") < 1:
        raise ValueError("workers must be at least 1, got %d" % workers)
    # the audit included: with one state it would check nothing and pass
    if any(n < 2 for n in config.sizes):
        raise ValueError("sizes: experiments need at least two states")
    if config.experiment == "bijection_audit":
        rows, aggregates = _run_bijection_audit(config)
    else:
        if config.experiment == "tree_probability" and not config.word:
            raise ValueError("word: required for tree_probability")
        jobs = []
        for si, n in enumerate(config.sizes):
            k = resolve_k(config.k_rule, n)
            for trial in range(config.trials):
                index = si * config.trials + trial
                jobs.append((config, n, k, trial, trial_seed(config.seed, index)))
        # a fork pool starts all its processes at once, so never more than
        # there are jobs to share or CPUs to run them
        workers = min(workers or 1, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            # imported here, so that serial runs and plain imports of the
            # package do not load multiprocessing (2 MB of resident memory)
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_job, jobs, chunksize=64))
        else:
            rows = [_job(args) for args in jobs]
        aggregates = EXPERIMENTS[config.experiment].aggregate(config, rows)
    record = ExperimentRecord(
        config=config, columns=EXPERIMENTS[config.experiment].columns,
        rows=tuple(rows), aggregates=aggregates,
    )
    if config.out:
        write_record_csv(record, config.out)
    return record


def recompute_aggregates(record):
    """Aggregates rebuilt from the rows alone; must match the stored ones."""
    cfg = record.config
    if cfg.experiment == "bijection_audit":
        return _audit_aggregates(record.rows, record.aggregates)
    return EXPERIMENTS[cfg.experiment].aggregate(cfg, record.rows)


def write_record_csv(record, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\r\n")
        writer.writerow(record.columns)
        # rows hold ints, None (a failed trial, written "") and word text
        writer.writerows(record.rows)
    sidecar = os.path.splitext(path)[0] + ".config.json"
    with open(sidecar, "w") as f:
        json.dump(record.config.to_json_dict(), f, indent=1, sort_keys=True)
        f.write("\n")


# exhaustive bijection audit; sizes are hard capped so this stays exact

def _all_automata(n):
    return [Automaton([t[:n], t[n:]]) for t in product(range(n), repeat=2 * n)]


def _audit_block(autos, sigmas, w):
    """Round trips both ways under w over autos, every automaton on its
    states, and every labeling: (cycle_good, good_trees, round_trips,
    failures), and the good marked trees as keys.

    Each cycle-good x is folded and each good marked tree y unfolded once,
    without entry checks, and no map builds an automaton: an image's key is
    read off its plan's rewired rows, as (their position in autos, labeling)
    for x and (position, mark, labeling) for y, or is None where the plan
    raised ValueError. As the inputs are exhaustive, x's trip holds when
    fold(x) is a stored good tree that unfolds to x, and y's trip when
    unfold(y) is a stored cycle-good x that folds to y; rows not in autos
    have no position, and their trips fail.

    One cycles call per automaton gives every labeling's minima and the
    tree test, as a loop-rooted tree is one cycle, of length 1. Each mark's
    thread is walked once, and record sets met twice on one automaton
    share one collision scan.
    """
    position = {A.rows: i for i, A in enumerate(autos)}
    k = len(w)
    folds, unfolds = {}, {}
    for i, A in enumerate(autos):
        cycs = cycles(apply_word_all(A, w))
        scans = {}  # record vertices -> first arrival on them, or None
        for sigma in sigmas:
            rs = _cycle_minima(cycs, sigma)
            if rs.vertices not in scans:
                scans[rs.vertices] = _arrival_on(A, w, rs.vertices)
            if scans[rs.vertices] is not None:
                continue
            try:
                rows = _fold(A, rs, w).rewire(A.rows)
                folds[i, sigma] = (position.get(rows), rs.vertices[0], sigma)
            except ValueError:
                folds[i, sigma] = None
        if len(cycs) != 1 or len(cycs[0]) != 1:
            continue
        for mark in range(A.n):
            th = thread(A, mark, 0, w)
            if th.cut_time % k != 0:
                continue
            for sigma in sigmas:
                rs = _branch_records(th, sigma, k)
                if rs.vertices not in scans:
                    scans[rs.vertices] = _arrival_on(A, w, rs.vertices)
                if scans[rs.vertices] is not None:
                    continue
                try:
                    rows = _unfold(th, rs, w).rewire(A.rows)
                    unfolds[i, mark, sigma] = (position.get(rows), sigma)
                except ValueError:
                    unfolds[i, mark, sigma] = None
    fails = sum(y is None or unfolds.get(y) != x for x, y in folds.items())
    fails += sum(x is None or folds.get(x) != y for y, x in unfolds.items())
    totals = (len(folds), len(unfolds), len(folds) + len(unfolds), fails)
    return totals, list(unfolds)


def _commutation_audit(autos, w1, w2, trees1, trees2):
    """Unfold in both orders on every collision-free doubly marked pair of
    trees; the results must coincide.

    trees1 and trees2 are the good marked trees under w1 and w2, as the
    keys _audit_block returns for autos, and every pair of them on one
    automaton is scanned for collisions. At n = 3 under aab and abb every
    such pair collides, so the audit checks no pair: commute_checked is 0
    and commute_failures == 0 holds vacuously. The pair property test in
    tests/test_joyal.py checks commutation on collision-free pairs at
    n = 1000-3000, where they are no longer rare.
    """
    checked = failures = 0
    second = {}
    for i, v, sigma in trees2:
        second.setdefault(i, []).append((v, sigma))
    for i, v1, sigma1 in trees1:
        for v2, sigma2 in second.get(i, ()):
            x = DoubleMarked(autos[i], v1, v2, sigma1, sigma2)
            if _first_arrival(x, w1, w2, ALL_TRIPLES) is not None:
                continue
            y12, _ = unfold_pair(x, w1, w2, order=(1, 2))
            y21, _ = unfold_pair(x, w1, w2, order=(2, 1))
            checked += 1
            if y12 != y21:
                failures += 1
    return checked, failures


def _audit_aggregates(rows, previous):
    agg = {
        "total_round_trips": sum(r[5] for r in rows),
        "total_failures": sum(r[6] for r in rows),
        "cardinalities_match": all(r[3] == r[4] for r in rows),
    }
    for key in ("commute_checked", "commute_failures"):
        if key in previous:
            agg[key] = previous[key]
    return agg


def _run_bijection_audit(config):
    n_max = max(config.sizes)
    k_max = resolve_k(config.k_rule, n_max)
    if n_max > 3 or k_max > 3:
        raise ValueError("audit is exhaustive; capped at n=3, k=3")
    rows = []
    trees = {}  # the n = 3 good marked trees the commutation audit pairs
    for n in range(2, n_max + 1):
        sigmas = list(permutations(range(n)))
        autos = _all_automata(n)
        for k in range(1, k_max + 1):
            for w in enumerate_nc_words(k):
                totals, good = _audit_block(autos, sigmas, w)
                rows.append((n, k, w.text) + totals)
                if n == 3 and w.text in ("aab", "abb"):
                    trees[w.text] = good
    aggregates = _audit_aggregates(rows, {})
    if n_max >= 3 and k_max >= 3:
        # autos holds the n = 3 automata, the last size audited
        checked, failures = _commutation_audit(
            autos, Word("aab"), Word("abb"), trees["aab"], trees["abb"])
        aggregates["commute_checked"] = checked
        aggregates["commute_failures"] = failures
    return rows, aggregates


# spec-level entry points with explicit arguments

def exp_tree_probability(n, k, w, trials, seed=0, workers=None):
    """Frequency of the tree event for one fixed word."""
    word = w if isinstance(w, str) else w.text
    if len(Word(word)) != k:
        raise ValueError("word length disagrees with k")
    cfg = ExperimentConfig(
        experiment="tree_probability", sizes=(n,), trials=trials, seed=seed,
        k_rule=("explicit", k), word=word,
    )
    return run(cfg, workers=workers)


def exp_moment_estimate(n, k, trials, seed=0, workers=None):
    """Estimate of the mean count of good marked tree triples, scaled.

    Sampling (A, v, sigma, w) uniformly is exact in expectation: the mean
    count over automata, divided by n!, equals n times the number of
    admissible words times the probability of the good-marked-tree event
    at a uniform sample point.

    The fold/unfold bijection between cycle-good labeled automata and good
    marked trees makes E[estimate] = a_k * P(cycle-good) at every n, for
    uniform (A, sigma, w); this is at most a_k. The reported target 2^k is
    the value as n -> infinity, where P(cycle-good) -> 1 and a_k ~ 2^k. At
    n = 128, k = 8 the expectation is still near 10, not 256.
    """
    cfg = ExperimentConfig(
        experiment="moment_estimate", sizes=(n,), trials=trials, seed=seed,
        k_rule=("explicit", k),
    )
    return run(cfg, workers=workers)


def exp_scaling(sizes, epsilon=0.2, trials=100, seed=0, budget=None, workers=None):
    """Length distribution of the tree-method word across sizes, with a
    fitted log-log slope of the median."""
    cfg = ExperimentConfig(
        experiment="scaling", sizes=tuple(sizes), trials=trials, seed=seed,
        k_rule=("log2", epsilon), budget=budget,
    )
    return run(cfg, workers=workers)


def exp_goodness(sizes, k_rule=("log2", 0.2), trials=1000, seed=0, workers=None):
    """Failure frequencies of the cycle-good event and of the cross-word
    minima collision, across sizes."""
    cfg = ExperimentConfig(
        experiment="goodness", sizes=tuple(sizes), trials=trials, seed=seed,
        k_rule=k_rule,
    )
    return run(cfg, workers=workers)


def exp_height(n, k=None, samples=50, seed=0, workers=None):
    """Height survey of one-letter views of random words."""
    rule = ("explicit", k) if k is not None else ("ln", 1.0)
    cfg = ExperimentConfig(
        experiment="height", sizes=(n,), trials=samples, seed=seed,
        k_rule=rule,
    )
    return run(cfg, workers=workers)


def exp_bijection_audit(n_max=3, k_max=3):
    """Exhaustive fold/unfold verification on every tiny instance: each
    cycle-good labeled automaton is folded once and each good marked tree
    unfolded once, and a round trip holds when the two images match up."""
    cfg = ExperimentConfig(
        experiment="bijection_audit", sizes=(n_max,), trials=1,
        k_rule=("explicit", k_max),
    )
    return run(cfg)
