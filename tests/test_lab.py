import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrotree import core, lab, records
from synchrotree.core import (
    Automaton,
    Word,
    count_nc_words,
    enumerate_nc_words,
    is_w_tree,
    random_automaton,
    random_nc_word,
    rng_from_seed,
    trial_seed,
)
from synchrotree.lab import (
    ExperimentConfig,
    ExperimentRecord,
    config_from_json,
    exp_bijection_audit,
    exp_goodness,
    exp_height,
    exp_moment_estimate,
    exp_scaling,
    exp_tree_probability,
    load_automaton,
    recompute_aggregates,
    resolve_k,
    run,
    save_automaton,
)
from synchrotree.joyal import RewiringPlan, fold_cycles, unfold_branch
from synchrotree.records import (
    DoubleMarked,
    Labeled,
    MarkedLabeled,
    has_minima_collision,
    is_branch_good,
    is_cycle_good,
    is_good_marked_tree,
    random_labeling,
)
from synchrotree.sync import SyncCertificate, pick_tree_length, tree_sync_word


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        experiment="goodness",
        sizes=(20, 40),
        trials=30,
        seed=5,
        k_rule=("explicit", 3),
    )
    doc = cfg.to_json_dict()
    assert doc["k_rule"] == {"type": "explicit", "value": 3.0}
    assert config_from_json(doc) == cfg
    for rule in (("log2", 0.2), ("ln", 1.0)):
        cfg = ExperimentConfig(experiment="height", sizes=(10,), k_rule=rule)
        assert config_from_json(cfg.to_json_dict()) == cfg


def test_config_validation_messages():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="nope", sizes=(4,))
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(experiment="goodness", sizes=(4,), trials=0)
    with pytest.raises(ValueError, match="sizes"):
        ExperimentConfig(experiment="goodness", sizes=(0,))
    with pytest.raises(ValueError, match="k_rule"):
        ExperimentConfig(experiment="goodness", sizes=(4,), k_rule=("sqrt", 1))
    with pytest.raises(ValueError, match="expected an object"):
        config_from_json([])
    with pytest.raises(ValueError, match="experiment"):
        config_from_json({"sizes": [4]})
    with pytest.raises(ValueError, match="sizes"):
        config_from_json({"experiment": "goodness", "sizes": 4})
    with pytest.raises(ValueError, match="k_rule"):
        config_from_json(
            {"experiment": "goodness", "sizes": [4], "k_rule": {"epsilon": 1}}
        )
    with pytest.raises(ValueError, match="k_rule.factor"):
        config_from_json(
            {"experiment": "goodness", "sizes": [4], "k_rule": {"type": "ln"}}
        )
    # a k_rule holds its type and that type's value key, nothing else
    with pytest.raises(ValueError, match="^k_rule.value: unknown key$"):
        config_from_json({"experiment": "goodness", "sizes": [4],
                          "k_rule": {"type": "ln", "factor": 1.0, "value": 9}})
    for value in (0, -1, 2.5, float("nan"), None, "three"):
        with pytest.raises(ValueError, match="k_rule"):
            ExperimentConfig(
                experiment="goodness", sizes=(4,), k_rule=("explicit", value)
            )
    for rule in (("log2", float("inf")), ("ln", float("-inf"))):
        with pytest.raises(ValueError, match="k_rule"):
            ExperimentConfig(experiment="goodness", sizes=(4,), k_rule=rule)
    for value in ("5", 2.5, 0, True, None, float("nan")):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(experiment="height", sizes=(8,), trials=value)
    assert ExperimentConfig(experiment="height", sizes=(8,), trials=5.0).trials == 5
    for value in ("x", None, True, float("inf")):
        with pytest.raises(ValueError, match="k_rule"):
            ExperimentConfig(experiment="scaling", sizes=(8,), k_rule=("log2", value))
    # scaling's k is the search's length, which only a log2 rule gives
    for rule in (("explicit", 5), ("ln", 1.0)):
        with pytest.raises(ValueError, match="k_rule"):
            ExperimentConfig(experiment="scaling", sizes=(8,), k_rule=rule)
    with pytest.raises(ValueError, match="epsilon: unknown key"):
        config_from_json({"experiment": "scaling", "sizes": [8], "epsilon": 0.2})
    with pytest.raises(ValueError, match="trial: unknown key"):
        config_from_json({"experiment": "height", "sizes": [8], "trial": 5})


def test_resolve_k():
    assert resolve_k(("explicit", 8), 1000) == 8
    assert resolve_k(("explicit", 0), 1000) == 1
    assert resolve_k(("log2", 0.2), 512) == 11
    assert resolve_k(("ln", 1.0), 10000) == math.ceil(math.log(10000))
    assert resolve_k(("explicit", sys.maxsize), 8) == sys.maxsize
    assert resolve_k(("ln", -1e300), 8) == 1
    for rule, n in ((("ln", 1e308), 8), (("ln", -1e308), 8), (("ln", 1e308), 2),
                    (("explicit", 1e300), 8),
                    (("explicit", sys.maxsize + 1), 8)):
        with pytest.raises(ValueError, match="k_rule"):
            resolve_k(rule, n)


def _goodness_cfg(out=None):
    return ExperimentConfig(
        experiment="goodness",
        sizes=(20, 40),
        trials=30,
        seed=5,
        k_rule=("explicit", 3),
        out=out,
    )


def _tiny_cfg(experiment, out):
    if experiment == "goodness":
        return _goodness_cfg(out)
    word = "aab" if experiment == "tree_probability" else None
    # scaling searches at its rule's length, which only a log2 rule gives
    rule = ("log2", 0.2) if experiment == "scaling" else ("explicit", 3)
    # 80 jobs, so the pool hands out two chunks of 64
    return ExperimentConfig(experiment=experiment, sizes=(8, 12), trials=40, seed=5,
                            k_rule=rule, word=word, out=out)


@pytest.mark.parametrize(
    "experiment", [name for name, e in lab.EXPERIMENTS.items() if e.row is not None])
def test_run_deterministic_and_parallel_identical(tmp_path, experiment):
    p1 = str(tmp_path / "one.csv")
    p2 = str(tmp_path / "two.csv")
    p3 = str(tmp_path / "three.csv")
    r1 = run(_tiny_cfg(experiment, p1))
    r2 = run(_tiny_cfg(experiment, p2))
    r3 = run(_tiny_cfg(experiment, p3), workers=2)
    assert r1.rows == r2.rows == r3.rows
    assert r1.aggregates == r3.aggregates
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read() == open(p3, "rb").read()
    assert b"\r\n" in b1


def test_run_caps_the_pool_at_jobs_and_cpus(monkeypatch):
    # the stub records each pool's size and runs the jobs in this process,
    # so no test starts a large pool
    import concurrent.futures

    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    serial = run(_goodness_cfg()).rows  # 60 jobs
    for cpus, workers in ((4, 100000), (1000, 100000), (1000, 8), (None, 100000), (1000, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run(_goodness_cfg(), workers=workers).rows == serial
    assert sizes == [4, 60, 8]


@pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, True, "2"])
def test_run_refuses_workers_below_one_or_not_whole(workers):
    with pytest.raises(ValueError, match="workers"):
        run(_goodness_cfg(), workers=workers)


def test_csv_format_and_sidecar(tmp_path):
    path = str(tmp_path / "rows.csv")
    cfg = _goodness_cfg(path)
    record = run(cfg)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        assert tuple(header) == record.columns == (
            "n", "trial", "k", "cycle_bad", "minima_collision"
        )
        body = list(reader)
    assert len(body) == len(record.rows) == 60
    assert body[0] == [str(x) for x in record.rows[0]]
    sidecar = str(tmp_path / "rows.config.json")
    with open(sidecar) as f:
        assert config_from_json(json.load(f)) == cfg


def test_none_cells_render_empty(tmp_path):
    # failed scaling trials leave height and word_len blank
    path = str(tmp_path / "scale.csv")
    cfg = ExperimentConfig(
        experiment="scaling", sizes=(12,), trials=25, seed=2,
        k_rule=("log2", 0.2), out=path,
    )
    record = run(cfg)
    fails = [r for r in record.rows if not r[2]]
    if fails:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            rows = list(reader)
        blank = [r for r in rows if r[2] == "0"]
        assert blank and all(r[4] == "" and r[5] == "" for r in blank)


def test_recompute_aggregates_matches():
    record = run(_goodness_cfg())
    assert recompute_aggregates(record) == record.aggregates
    audit = exp_bijection_audit(2, 2)
    assert recompute_aggregates(audit) == audit.aggregates


def test_rows_reproducible_from_seeds():
    cfg = _goodness_cfg()
    record = run(cfg)
    for si, n in enumerate(cfg.sizes):
        for trial in (0, 7):
            index = si * cfg.trials + trial
            row = lab._job((cfg, n, 3, trial, trial_seed(cfg.seed, index)))
            assert row == record.rows[index]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 120),
    k=st.sampled_from([1, 3, 4, 5, 6]),
    seed=st.integers(0, 2**64 - 1),
)
def test_goodness_row_flags_are_the_two_events(n, k, seed):
    # one scan fills both flags; each must be its own event
    cfg = ExperimentConfig(
        experiment="goodness", sizes=(n,), k_rule=("explicit", k)
    )
    row = lab._job((cfg, n, k, 0, seed))
    rng = rng_from_seed(seed)
    w1, w2 = lab._nc_word_pair(k)
    A = Automaton(rng.integers(0, n, size=(2, n)))
    sigma1 = random_labeling(n, rng)
    sigma2 = random_labeling(n, rng)
    assert row == (
        n, 0, k,
        int(not is_cycle_good(Labeled(A, sigma1), w1)),
        int(has_minima_collision(A, sigma1, sigma2, w1, w2)),
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    k=st.sampled_from([1, 2, 3, 4, 6]),
    seed=st.integers(0, 2**64 - 1),
)
def test_moment_row_hit_is_the_good_marked_tree_event(n, k, seed):
    cfg = ExperimentConfig(
        experiment="moment_estimate", sizes=(n,), k_rule=("explicit", k)
    )
    row = lab._job((cfg, n, k, 0, seed))
    rng = rng_from_seed(seed)
    A = random_automaton(n, seed=rng)
    v = int(rng.integers(0, n))
    sigma = random_labeling(n, rng)
    w = random_nc_word(k, A.r, rng)
    assert row == (n, 0, int(is_good_marked_tree(MarkedLabeled(A, v, sigma), w)))


def test_trials_compute_only_what_their_row_reads(monkeypatch):
    # a cycle-bad goodness trial stops at triple (1, 1, 1): one labeling
    # and one cycles call, against two for a cycle-good trial; no trial
    # checks the labelings it drew
    calls = {"cycles": 0, "random_labeling": 0, "_check_sigma": 0}
    for module, name in ((lab, "cycles"), (records, "cycles"),
                         (lab, "random_labeling"), (records, "_check_sigma")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    rows = run(_goodness_cfg()).rows
    bad = sum(r[3] for r in rows)
    assert 0 < bad < len(rows)
    per_trial = 2 * len(rows) - bad
    assert calls == {"cycles": per_trial, "random_labeling": per_trial, "_check_sigma": 0}
    run(ExperimentConfig(experiment="moment_estimate", sizes=(12,), trials=50,
                         k_rule=("explicit", 3)))
    assert calls["random_labeling"] == per_trial + 50
    assert calls["_check_sigma"] == 0


# sha256 of each config's CSV: the rows, RNG streams and CSV bytes that a
# change to the trial bodies must keep
_FROZEN_CSVS = (
    (ExperimentConfig(experiment="goodness", sizes=(100, 400), trials=40,
                      k_rule=("log2", 0.2)),
     "9d6bd87ae3ac0d17afdcb59ac28aa4d2e6541f617d9ce0abe38f9c61173bd127"),
    (ExperimentConfig(experiment="moment_estimate", sizes=(12,), trials=400,
                      k_rule=("explicit", 3)),
     "a2933cf4345f259e3d743c6c1f26a583753d13b11e40e6ee004ac6251d530a03"),
)


@pytest.mark.parametrize("cfg, digest", _FROZEN_CSVS,
                         ids=[cfg.experiment for cfg, _ in _FROZEN_CSVS])
def test_csv_bytes_frozen(tmp_path, cfg, digest):
    path = str(tmp_path / "rows.csv")
    record = run(dataclasses.replace(cfg, out=path))
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest
    # both branches ran: cycle-good goodness trials scanned their second
    # coordinate, and the moment trials found good marked trees
    if cfg.experiment == "goodness":
        assert 0 < sum(r[3] for r in record.rows) < len(record.rows)
    else:
        assert sum(r[2] for r in record.rows) > 0


def test_tree_probability_parses_its_word_once():
    # one parse; every row reads the cached Word, and run reads none
    lab._word_of.cache_clear()
    run(ExperimentConfig(experiment="tree_probability", sizes=(6, 8), trials=20,
                         word="aab", k_rule=("explicit", 3)))
    info = lab._word_of.cache_info()
    assert (info.misses, info.hits) == (1, 40 - 1)


def test_single_trial_runs():
    record = run(
        ExperimentConfig(
            experiment="tree_probability", sizes=(6,), trials=1, word="ab",
            k_rule=("explicit", 2),
        )
    )
    assert record.aggregates["p_hat"] in (0.0, 1.0)
    assert record.aggregates["stderr"] == 0.0


def test_run_validation():
    with pytest.raises(ValueError, match="word"):
        run(ExperimentConfig(experiment="tree_probability", sizes=(6,)))
    with pytest.raises(ValueError, match="at least two"):
        run(ExperimentConfig(experiment="goodness", sizes=(1,)))
    with pytest.raises(ValueError, match="length disagrees"):
        exp_tree_probability(10, 3, "ab", trials=2)
    # ab and ba, the only words of length 2, are conjugates
    with pytest.raises(ValueError, match="no mutually non-conjugate word pair"):
        exp_goodness(sizes=(8,), k_rule=("explicit", 2), trials=1)


def test_tree_probability_band():
    n, k = 100, 8
    record = exp_tree_probability(n, k, "aaaaaaab", trials=2000, seed=0)
    p = record.aggregates["p_hat"]
    assert 0.2 * k / n < p < 5 * k / n
    assert record.aggregates["stderr"] < 0.01


def test_one_state_automaton_is_always_a_tree():
    # the smallest instance the tree event can see; the lab refuses to
    # sample it, so pin the fact directly
    A = Automaton([[0], [0]])
    assert is_w_tree(A, Word("a"))
    assert is_w_tree(A, Word("ab"))


def test_moment_estimate_arithmetic():
    n, k, trials = 24, 3, 300
    record = exp_moment_estimate(n, k, trials, seed=1)
    (per,) = record.aggregates["per_n"]
    hits = sum(r[2] for r in record.rows)
    a_k = count_nc_words(k)
    assert per["n"] == n and per["k"] == k
    assert per["a_k"] == a_k == 6
    assert per["p_hat"] == pytest.approx(hits / trials)
    assert per["estimate"] == pytest.approx(n * a_k * hits / trials)
    assert per["target"] == float(2 ** k)


def test_goodness_one_letter_words_never_cycle_bad():
    record = exp_goodness(sizes=(30,), k_rule=("explicit", 1), trials=200, seed=0)
    (per,) = record.aggregates["per_n"]
    assert per["cycle_bad_freq"] == 0.0
    assert 0.0 <= per["minima_collision_freq"] <= 1.0


def test_scaling_small_sizes():
    record = exp_scaling((32, 64), trials=40, seed=0)
    agg = record.aggregates
    assert [p["n"] for p in agg["per_n"]] == [32, 64]
    for per in agg["per_n"]:
        assert 0.0 <= per["success_rate"] <= 1.0
    for row in record.rows:
        if row[2]:
            n, _, _, k, height, word_len = row
            assert word_len == k * height
            assert word_len <= 10 * math.sqrt(n) * math.log2(n)
    assert agg["bound_ok"]
    assert agg["bound_factor"] == 10.0
    if all(p["median_len"] for p in agg["per_n"]):
        assert agg["slope"] is not None
    # a budget of 0 examines no candidate, so every trial fails, and a
    # config file's budget is the same one
    record = exp_scaling((64,), trials=3, seed=0, budget=0)
    assert record.rows == tuple((64, t, 0, 8, None, None) for t in range(3))
    assert record.aggregates["per_n"][0]["success_rate"] == 0.0
    cfg = config_from_json({"experiment": "scaling", "sizes": [64], "trials": 3,
                            "budget": 0})
    assert run(cfg) == record


def test_scaling_k_column_is_the_searched_length(monkeypatch):
    # epsilon = 1 searches at k = 17 at n = 300, not the default rule's 10
    searched = []

    def recording(A, **kw):
        cert = tree_sync_word(A, **kw)
        searched.append(cert and len(cert.tree_word))
        return cert

    monkeypatch.setattr(lab, "tree_sync_word", recording)
    record = exp_scaling((300,), epsilon=1.0, trials=6, seed=3)
    assert pick_tree_length(300, 1.0) == 17
    assert [row[3] for row in record.rows] == [17] * 6
    for row, k in zip(record.rows, searched):
        assert row[2] == (k is not None)
        if row[2]:
            assert k == row[3] and row[5] == row[3] * row[4]
    assert record.config.to_json_dict()["k_rule"] == {"type": "log2", "epsilon": 1.0}


def test_scaling_rows_check_certificates_without_assert(monkeypatch):
    # an unverified certificate must raise, also under -O
    def unverified(A, **kw):
        return SyncCertificate(word=Word("a"), sink=0, method="tree")

    monkeypatch.setattr(lab, "tree_sync_word", unverified)
    with pytest.raises(RuntimeError, match="not verified"):
        exp_scaling((8,), trials=1, seed=0)


def test_height_rows_and_aggregates():
    n = 64
    record = exp_height(n, k=3, samples=30, seed=4)
    assert len(record.rows) == 30
    bound = 5 * math.sqrt(n)
    for row in record.rows:
        assert row[4] == int(row[3] > bound)
    agg = record.aggregates
    assert agg["exceedances"] == sum(r[4] for r in record.rows)
    (per,) = agg["per_n"]
    assert per["max_height"] == max(r[3] for r in record.rows)
    assert per["bound"] == bound


def test_bijection_audit_small():
    record = exp_bijection_audit(2, 2)
    agg = record.aggregates
    assert agg["total_failures"] == 0
    assert agg["cardinalities_match"]
    assert "commute_checked" not in agg
    assert record.columns == (
        "n", "k", "word", "cycle_good", "good_trees", "round_trips", "failures",
    )
    # n=2 with words a, b, ab, ba
    assert [(r[0], r[1], r[2]) for r in record.rows] == [
        (2, 1, "a"), (2, 1, "b"), (2, 2, "ab"), (2, 2, "ba"),
    ]
    for row in record.rows:
        assert row[3] == row[4]
        # both directions are driven once per member
        assert row[5] == row[3] + row[4]
        assert row[6] == 0
    with pytest.raises(ValueError, match="capped"):
        exp_bijection_audit(4, 2)
    # an audit over no automaton would report success vacuously
    with pytest.raises(ValueError, match="at least two states"):
        exp_bijection_audit(1, 3)


def _reference_audit_pair(A, sigmas, w):
    # the audit loop before each map ran once per input: every trip folds
    # and unfolds with their own entry checks; also returns the good marked
    # trees as (mark, labeling)
    n = A.n
    cgood = bgood = trips = fails = 0
    trees = []
    for sigma in sigmas:
        x = Labeled(A, sigma)
        if not is_cycle_good(x, w):
            continue
        cgood += 1
        trips += 1
        try:
            y, _ = fold_cycles(x, w)
            back, _ = unfold_branch(y, w)
            if back != x or not is_good_marked_tree(y, w):
                fails += 1
        except ValueError:
            fails += 1
    if is_w_tree(A, w):
        for mark in range(n):
            for sigma in sigmas:
                y = MarkedLabeled(A, mark, sigma)
                if not is_good_marked_tree(y, w):
                    continue
                trees.append((mark, sigma))
                bgood += 1
                trips += 1
                try:
                    x, _ = unfold_branch(y, w)
                    forward, _ = fold_cycles(x, w)
                    if forward != y:
                        fails += 1
                except ValueError:
                    fails += 1
    return (cgood, bgood, trips, fails), trees


def test_audit_block_matches_reference():
    for n, lengths in ((2, (1, 2, 3, 4, 5)), (3, (1,))):
        sigmas = list(permutations(range(n)))
        autos = lab._all_automata(n)
        words = [w for k in lengths for w in enumerate_nc_words(k)]
        for w in words:
            totals = [0, 0, 0, 0]
            trees = []
            for i, A in enumerate(autos):
                counts, good = _reference_audit_pair(A, sigmas, w)
                totals = [a + b for a, b in zip(totals, counts)]
                trees += [(i, mark, sigma) for mark, sigma in good]
            assert lab._audit_block(autos, sigmas, w) == (tuple(totals), trees)


def test_audit_runs_each_map_once_per_input(monkeypatch):
    # one plan per fold and per unfold, each rewiring rows once
    calls = {"_fold": 0, "_unfold": 0, "_good_marked_tree": 0, "rewire": 0}
    for owner, name in ((lab, "_fold"), (lab, "_unfold"), (lab, "_good_marked_tree"),
                        (RewiringPlan, "rewire")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    rows = exp_bijection_audit(2, 3).rows
    folds, unfolds = sum(r[3] for r in rows), sum(r[4] for r in rows)
    assert calls == {"_fold": folds, "_unfold": unfolds, "_good_marked_tree": 0,
                     "rewire": folds + unfolds}


def test_audit_builds_no_automaton_or_labeling_beyond_its_inputs(monkeypatch):
    # the maps' images are keyed by rewired rows: the only automata are the
    # 16 inputs of _all_automata(2), and no Labeled or MarkedLabeled is built
    built = {"Automaton": 0, "Labeled": 0, "MarkedLabeled": 0}
    for cls in (core.Automaton, Labeled, MarkedLabeled):
        def counted(self, *args, _real=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _real(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    exp_bijection_audit(2, 3)
    assert built == {"Automaton": 16, "Labeled": 0, "MarkedLabeled": 0}


def test_audit_computes_cycles_once_per_automaton_and_word(monkeypatch):
    # every labeling of one automaton under one word reads its minima off
    # the audit's one cycles call; no other call site computes cycles
    calls = []
    for module in (lab, records):
        monkeypatch.setattr(module, "cycles",
                            lambda F, real=module.cycles: calls.append(F) or real(F))
    exp_bijection_audit(2, 3)
    pairs = len(lab._all_automata(2)) * sum(
        len(list(enumerate_nc_words(k))) for k in (1, 2, 3))
    assert len(calls) == pairs == 16 * 10


def test_audit_scans_each_record_set_once_per_automaton_or_mark(monkeypatch):
    # labelings and marks of one automaton that share a record set, cycle
    # minima or branch records, share its collision scan: 272 scans, where
    # one per automaton for the minima and one per mark for the branch
    # records made 384, and one per labeling 608
    calls = []
    real = records._scan_collisions
    monkeypatch.setattr(records, "_scan_collisions",
                        lambda *a: calls.append(a) or real(*a))
    exp_bijection_audit(2, 3)
    assert len(calls) == 272


def _audit_breaking_first_map(monkeypatch, name, broken):
    # exp_bijection_audit(2, 2) with the first plan lab.<name> makes under
    # ab replaced by broken(plan), which may raise
    real, made = getattr(lab, name), []

    def first_broken(*args):
        plan = real(*args)
        if args[-1] == Word("ab"):
            made.append(plan)
            if len(made) == 1:
                return broken(plan)
        return plan

    with monkeypatch.context() as m:
        m.setattr(lab, name, first_broken)
        return exp_bijection_audit(2, 2)


def test_audit_fails_both_trips_through_a_raising_map(monkeypatch):
    # a map that raises on one input fails that input's own trip and the
    # other direction's trip that lands on it, and no other trip; each input
    # is mapped once, so raising on one call raises on one input
    def raising(plan):
        raise ValueError("injected")

    for name in ("_fold", "_unfold"):
        record = _audit_breaking_first_map(monkeypatch, name, raising)
        assert record.aggregates["total_failures"] == 2
        assert [r[6] for r in record.rows if r[2] == "ab"] == [2]


def test_audit_fails_both_trips_through_a_plan_off_the_automata(monkeypatch):
    # a plan whose rewired table is no audited automaton, here through a
    # target 2 at n = 2, fails the same two trips, and the lookup raises nothing
    def stray(plan):
        (src, letter, old, _), *rest = plan.edges
        return RewiringPlan(plan.direction, ((src, letter, old, 2), *rest))

    for name in ("_fold", "_unfold"):
        record = _audit_breaking_first_map(monkeypatch, name, stray)
        assert record.aggregates["total_failures"] == 2
        assert [r[6] for r in record.rows if r[2] == "ab"] == [2]


def test_commutation_audit_scans_the_good_tree_pairs(monkeypatch):
    # the pair scan reports an arrival on every pair it is given, so no
    # pair is unfolded and the pairs scanned are recorded
    w1, w2 = Word("aab"), Word("bba")
    sigmas = list(permutations(range(2)))
    autos = lab._all_automata(2)
    scanned = []
    monkeypatch.setattr(lab, "_first_arrival", lambda x, *a: scanned.append(x) or x)
    trees = [lab._audit_block(autos, sigmas, w)[1] for w in (w1, w2)]
    assert lab._commutation_audit(autos, w1, w2, *trees) == (0, 0)
    good1, good2 = (
        [(A, v, s) for A in autos for v in range(2) for s in sigmas
         if is_good_marked_tree(MarkedLabeled(A, v, s), w)]
        for w in (w1, w2)
    )
    want = [DoubleMarked(A, v1, v2, s1, s2)
            for A, v1, s1 in good1 for B, v2, s2 in good2 if A == B]
    assert want and scanned == want


def test_goodness_predicates_build_no_witness(monkeypatch):
    # the predicates, the audit and the goodness rows only ask whether a
    # thread arrives, so they must not build a witness even on collisions
    w, w1, w2 = Word("ab"), Word("aab"), Word("bba")
    autos = lab._all_automata(2)
    sigmas = list(permutations(range(2)))

    def results():
        trees = [lab._audit_block(autos, sigmas, u)[1] for u in (w1, w2)]
        goodness = ExperimentConfig(experiment="goodness", sizes=(2,), trials=40,
                                    k_rule=("explicit", 3))
        return (
            [is_cycle_good(Labeled(A, s), w) for A in autos for s in sigmas],
            [is_branch_good(MarkedLabeled(A, v, s), w)
             for A in autos for v in range(2) for s in sigmas],
            [is_good_marked_tree(MarkedLabeled(A, v, s), w)
             for A in autos for v in range(2) for s in sigmas],
            [has_minima_collision(A, s1, s2, w1, w2)
             for A in autos for s1 in sigmas for s2 in sigmas],
            exp_bijection_audit(2, 3),
            lab._commutation_audit(autos, w1, w2, *trees),
            run(goodness).rows,
        )

    usual = results()
    cycle_good, branch_good, good_tree, minima, _, _, goodness_rows = usual
    assert False in cycle_good and False in branch_good and False in good_tree
    assert True in minima and any(row[4] for row in goodness_rows)

    def no_witness(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(records, "CollisionWitness", no_witness)
    assert results() == usual


def test_audit_catches_a_broken_bijection(monkeypatch):
    # the audit must compare what it round-trips, not only run it: a map
    # whose every edge lands on the other of the two states reaches another
    # automaton
    def shifted(real):
        def broken(*args):
            plan = real(*args)
            return RewiringPlan(plan.direction, tuple(
                (src, letter, old, 1 - new) for src, letter, old, new in plan.edges))
        return broken

    for name in ("_unfold", "_fold"):
        with monkeypatch.context() as m:
            m.setattr(lab, name, shifted(getattr(lab, name)))
            agg = exp_bijection_audit(2, 2).aggregates
        assert agg["total_failures"] == agg["total_round_trips"] == 176


def test_save_load_automaton(tmp_path):
    A = random_automaton(9, 2, seed=8)
    path = str(tmp_path / "auto.json")
    save_automaton(A, path)
    B = load_automaton(path)
    assert B.rows == A.rows


def test_record_experiment_property():
    record = run(_goodness_cfg())
    assert isinstance(record, ExperimentRecord)
    assert record.config.experiment == "goodness"
