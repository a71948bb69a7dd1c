"""Tests of the benchmark itself; run with `python3 -m pytest bench -q`."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from calibration import CAL_REF_S, HostClock  # noqa: E402
from synchrotree import find_tree_word, pick_tree_length, random_automaton  # noqa: E402
from synchrotree.core import rng_from_seed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, ResetLarge, nc_rank, relabel  # noqa: E402

# ROADMAP baseline: candidates to the first tree word, exhaustive, eps 0.2
CANDIDATES_1E4 = (2454, 400, 3396, 376, 1316, 912)


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def test_candidate_counts_at_1e4_match_roadmap_and_pins():
    pins = _load("bench/pins.json")["reset_large"]["all_seeds"]
    for seed, count in zip(ResetLarge.SHAPES, CANDIDATES_1E4):
        A = random_automaton(10**4, seed=seed)
        w, H, root = find_tree_word(A, pick_tree_length(A.n, 0.2), budget=ResetLarge.BUDGET)
        assert nc_rank(w) == count
        assert {"tree_word": w.text, "H": H, "root": root} == pins[seed]


def test_candidate_count_at_1e3_matches_roadmap():
    A = random_automaton(10**3, seed=1)
    w, _, _ = find_tree_word(A, pick_tree_length(A.n, 0.2))
    assert nc_rank(w) == 183


def test_relabeling_keeps_the_search():
    A = random_automaton(10**3, seed=1)
    perm = rng_from_seed(7).permutation(A.n)
    k = pick_tree_length(A.n, 0.2)
    w, H, root = find_tree_word(A, k)
    assert find_tree_word(relabel(A, perm), k) == (w, H, int(perm[root]))


def test_benchmark_json_matches_the_bench():
    doc = _load("BENCHMARK.json")
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_self_time_excludes_children_and_counted_calls():
    tracer = Tracer()
    sleep = tracer.counted(time.sleep, "sleep")
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        sleep(0.02)
    count, total, own = tracer.totals("outer")
    assert count == 1
    assert total >= 40e6
    assert own < total - 38e6
    assert tracer.call_totals("sleep")[0] == 1
    assert tracer.spans[1][3] == 0  # inner's parent is outer


def test_clock_scales_by_the_calibrations_around_an_interval():
    clock = HostClock()
    clock.at = [1.0, 3.0, 5.0, 7.0, 9.0]
    clock.cost = [CAL_REF_S, 2 * CAL_REF_S, 4 * CAL_REF_S, CAL_REF_S, CAL_REF_S]
    # within 1 s of [3.5, 4.5]: the calibrations at 3 and 5, 2x and 4x
    assert clock.scale(3.5, 4.5) == pytest.approx(1 / 3)
    # within 2 s of [5.5, 7.5], its own length: 5, 7 and 9
    assert clock.scale(5.5, 7.5) == pytest.approx(1 / 2)
    # none within 1 s of [1.5, 1.6]: the nearest on each side, 1 and 3
    assert clock.scale(1.5, 1.6) == pytest.approx(2 / 3)
    assert clock.speed() == pytest.approx(1)


def test_checkout_without_the_package_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reset_greedy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert out.returncode != 0
    assert out.stdout == ""

