import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from synchrotree import cli, sync
from synchrotree.cli import main
from synchrotree.core import Automaton, Word, random_automaton
from synchrotree.lab import exp_bijection_audit, save_automaton
from synchrotree.sync import cerny_automaton, find_tree_word, pick_tree_length

A3 = Automaton([[1, 2, 0], [0, 0, 0]])


def _write(tmp_path, name, A):
    path = str(tmp_path / name)
    save_automaton(A, path)
    return path


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_stdout(capsys):
    rc, out, _ = _run(capsys, ["gen", "--n", "5", "--seed", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["format"] == "synchrotree-automaton-v1"
    assert doc["n"] == 5 and doc["alphabet"] == 2
    assert len(doc["delta"]) == 2
    assert all(len(row) == 5 for row in doc["delta"])
    assert all(0 <= v < 5 for row in doc["delta"] for v in row)
    rc2, out2, _ = _run(capsys, ["gen", "--n", "5", "--seed", "3", "--alphabet", "3"])
    assert out2 == (
        '{"alphabet": 3, "delta": [[4, 0, 0, 1, 0], [4, 4, 2, 0, 0], '
        '[1, 2, 3, 2, 1]], "format": "synchrotree-automaton-v1", "n": 5}\n'
    )
    rc3, out3, _ = _run(capsys, ["gen", "--n", "5", "--seed", "3"])
    assert out3 == out


def test_gen_bad_size(capsys):
    rc, _, err = _run(capsys, ["gen", "--n", "0"])
    assert rc == 2
    assert "error" in err


def test_gen_sync_round_trip(tmp_path, capsys):
    path = str(tmp_path / "auto.json")
    rc, _, _ = _run(capsys, ["gen", "--n", "64", "--seed", "0", "--out", path])
    assert rc == 0
    rc, out, _ = _run(capsys, ["sync", "--in", path, "--emit-word"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "tree"
    assert doc["verified"] is True
    assert doc["word_len"] == len(doc["word"])
    assert doc["word_len"] == doc["H"] * len(doc["tree_word"])
    assert 0 <= doc["sink"] < 64


def test_sync_no_word_exit_one(tmp_path, capsys):
    ident = Automaton([[0, 1, 2, 3], [0, 1, 2, 3]])
    path = _write(tmp_path, "ident.json", ident)
    rc, out, err = _run(capsys, ["sync", "--in", path])
    assert rc == 1 and out == ""
    assert "no synchronizing word" in err
    # the fallback cannot help an unsynchronizable automaton either
    rc, _, _ = _run(capsys, ["sync", "--in", path, "--fallback"])
    assert rc == 1


def test_sync_fallback_engages(tmp_path, capsys):
    path = _write(tmp_path, "cerny5.json", cerny_automaton(5))
    rc, _, _ = _run(capsys, ["sync", "--in", path])
    assert rc == 1
    rc, out, _ = _run(capsys, ["sync", "--in", path, "--fallback", "--emit-word"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "greedy"
    assert doc["verified"] is True
    assert doc["word_len"] == 17


def test_sync_exact_cli(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", A3)
    rc, out, _ = _run(capsys, ["sync-exact", "--in", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "method": "exact",
        "sink": 0,
        "word_len": 1,
        "verified": True,
        "word": "b",
    }
    swap = Automaton([[1, 0], [1, 0]])
    rc, _, err = _run(capsys, ["sync-exact", "--in", _write(tmp_path, "s.json", swap)])
    assert rc == 1 and "not synchronizable" in err
    big = _write(tmp_path, "big.json", cerny_automaton(25))
    rc, _, err = _run(capsys, ["sync-exact", "--in", big])
    assert rc == 2 and "capped" in err


def test_sync_exact_checks_its_sink(tmp_path, capsys, monkeypatch):
    # a word that fails to reset is no certificate: the exact path's check
    # fails, as the tree and greedy paths' do, and exits 2 with one line
    path = _write(tmp_path, "a3.json", A3)
    monkeypatch.setattr(cli, "shortest_sync_word_exact", lambda A: Word("a"))
    rc, out, err = _run(capsys, ["sync-exact", "--in", path])
    assert (rc, out, err) == (2, "", "error: exact word failed to reset\n")


def test_sync_failed_tree_check_exits_2(tmp_path, capsys, monkeypatch):
    # a tree word one power short of its height does not reset: an error
    # line and exit 2, not a traceback
    A = random_automaton(64, seed=0)
    w, H, root = find_tree_word(A, pick_tree_length(A.n))
    assert H >= 2
    monkeypatch.setattr(sync, "find_tree_word", lambda *a, **kw: (w, H - 1, root))
    path = _write(tmp_path, "a.json", A)
    rc, out, err = _run(capsys, ["sync", "--in", path])
    assert (rc, out, err) == (2, "", "error: tree word failed to reset\n")


def test_tree_words_cli(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", A3)
    rc, out, _ = _run(capsys, ["tree-words", "--in", path, "--k", "2"])
    assert rc == 0
    assert json.loads(out) == {
        "k": 2,
        "words": [{"word": "ab", "H": 1, "root": 0}],
    }
    rc, out, _ = _run(capsys, ["tree-words", "--in", path, "--k", "2", "--all"])
    assert rc == 0
    assert json.loads(out) == {
        "k": 2,
        "words": [
            {"word": "ab", "H": 1, "root": 0},
            {"word": "ba", "H": 1, "root": 1},
        ],
    }
    ident = _write(tmp_path, "ident.json", Automaton([[0, 1], [0, 1]]))
    rc, out, err = _run(capsys, ["tree-words", "--in", ident, "--k", "2"])
    assert rc == 1 and "no tree word" in err
    rc, out, _ = _run(capsys, ["tree-words", "--in", ident, "--k", "2", "--all"])
    assert rc == 1
    assert json.loads(out)["words"] == []


def test_bijection_audit_cli(capsys):
    rc, out, _ = _run(capsys, ["bijection-audit", "--n", "2", "--k", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["total_failures"] == 0
    assert doc["cardinalities_match"] is True
    rc, _, err = _run(capsys, ["bijection-audit", "--n", "5", "--k", "2"])
    assert rc == 2 and "capped" in err
    rc, out, err = _run(capsys, ["bijection-audit", "--n", "1", "--k", "2"])
    assert rc == 2 and out == "" and "at least two states" in err


@pytest.mark.parametrize("key", ["total_failures", "commute_failures"])
def test_failed_audit_exits_2_from_both_commands(tmp_path, capsys, monkeypatch, key):
    # a failed round trip and a failed commutation both fail the audit,
    # and both commands still print its aggregates
    real = exp_bijection_audit(2, 2)
    failed = dataclasses.replace(real, aggregates={**real.aggregates, key: 1})
    monkeypatch.setattr(cli, "run", lambda config, workers=None: failed)
    monkeypatch.setattr(cli, "exp_bijection_audit", lambda n_max, k_max: failed)
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({"experiment": "bijection_audit", "sizes": [2],
                               "k_rule": {"type": "explicit", "value": 2}}))
    for argv in (["experiment", "bijection_audit", "--config", str(cfg)],
                 ["bijection-audit", "--n", "2", "--k", "2"]):
        rc, out, _ = _run(capsys, argv)
        assert rc == 2
        assert json.loads(out) == failed.aggregates


def test_explore_cli_frozen(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", A3)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "entries": [
                    {"state": 0, "congruence": 0, "word": "ab"},
                    {"state": 1, "congruence": 1, "word": "ab"},
                ]
            }
        )
    )
    rc, out, _ = _run(capsys, ["explore", "--in", path, "--spec", str(spec)])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines == [
        {"t": 0, "x": 0, "y": 0, "z": "ab", "tag": "start"},
        {"t": 1, "x": 1, "y": 1, "z": "ab", "tag": "exploring"},
        {"t": 2, "x": 0, "y": 0, "z": "ab", "tag": "hitting"},
        {"t": 2, "x": 1, "y": 1, "z": "ab", "tag": "start"},
    ]


def test_explore_cli_triple_form(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", A3)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"entries": [[0, 0, "ab"]]}))
    rc, out, _ = _run(capsys, ["explore", "--in", path, "--spec", str(spec)])
    assert rc == 0
    assert len(out.strip().splitlines()) == 3


def test_every_command_prints_a_word_the_same_way(tmp_path, capsys):
    # a spec may give the word as "0,2,1"; every command prints it "acb"
    path = _write(tmp_path, "r3.json", Automaton([[3, 2, 2, 1], [1, 0, 0, 0], [0, 3, 2, 3]]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"entries": [[0, 0, "0,2,1"]]}))
    rc, out, _ = _run(capsys, ["explore", "--in", path, "--spec", str(spec)])
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert {line["z"] for line in lines} == {"acb"} == {Word((0, 2, 1)).text}
    assert all(Word(line["z"]) == Word((0, 2, 1)) for line in lines)
    rc, out, _ = _run(capsys, ["tree-words", "--in", path, "--k", "3", "--all"])
    assert rc == 0
    assert "acb" in [entry["word"] for entry in json.loads(out)["words"]]


def test_explore_cli_bad_specs(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", A3)
    for payload in (
        [],
        {"entries": [[0, 0, "ab"], [0, 0, "aab"]]},
        {"entries": [{"state": 0}]},
        {"entries": [[1.7, 0, "ab"]]},
        {"entries": [[0, 1.0, "ab"]]},
        {"entries": [{"state": True, "congruence": 1, "word": "ab"}]},
        {"entries": [{"state": 1, "congruence": "1", "word": "ab"}]},
        {"entries": [[0, 0, [0, 1]]]},
        {"entries": [{"state": 0, "congruence": 0, "word": [0, 1]}]},
        {"entries": 5},
        {"entries": None},
        {"entries": {"a": 1}},
    ):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(payload))
        rc, _, err = _run(capsys, ["explore", "--in", path, "--spec", str(spec)])
        assert rc == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_experiment_cli(tmp_path, capsys):
    cfg = tmp_path / "good.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "goodness",
                "sizes": [12, 24],
                "trials": 10,
                "seed": 1,
                "k_rule": {"type": "explicit", "value": 3},
            }
        )
    )
    rc, out, _ = _run(capsys, ["experiment", "goodness", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(out)
    assert [p["n"] for p in doc["per_n"]] == [12, 24]
    rc, _, err = _run(capsys, ["experiment", "height", "--config", str(cfg)])
    assert rc == 2 and "config is for experiment" in err
    # ab and ba, the only words of length 2, give goodness no word pair
    cfg.write_text(json.dumps({"experiment": "goodness", "sizes": [12], "trials": 2,
                               "k_rule": {"type": "explicit", "value": 2}}))
    rc, out, err = _run(capsys, ["experiment", "goodness", "--config", str(cfg)])
    assert rc == 2 and out == ""
    assert err == "error: no mutually non-conjugate word pair at this length\n"


def test_experiment_cli_refuses_workers_below_one(tmp_path, capsys):
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps({"experiment": "goodness", "sizes": [12], "trials": 2}))
    for workers in ("0", "-2"):
        rc, out, err = _run(
            capsys, ["experiment", "goodness", "--config", str(cfg), "--workers", workers])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "workers" in err


def test_experiment_cli_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "height",
                "sizes": [16],
                "trials": 5,
                "k_rule": {"type": "explicit", "value": 2},
                "out": str(out_csv),
            }
        )
    )
    rc, out, _ = _run(capsys, ["experiment", "height", "--config", str(cfg)])
    assert rc == 0
    assert out_csv.exists()
    assert (tmp_path / "rows.config.json").exists()
    assert json.loads(out)["exceedances"] == 0


def test_deeply_nested_json_is_invalid_json(tmp_path, capsys):
    # nesting past the parser's recursion limit is bad input, not a crash
    # and not exit 1, which means "found nothing"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    good = tmp_path / "a3.json"
    good.write_text(json.dumps(A3.to_json_dict()))
    for argv in (["sync", "--in", str(deep)],
                 ["explore", "--in", str(good), "--spec", str(deep)],
                 ["experiment", "height", "--config", str(deep)]):
        rc, out, err = _run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: %s is not valid JSON: " % deep)
        assert len(err.splitlines()) == 1


def test_missing_and_malformed_files(tmp_path, capsys):
    rc, _, err = _run(capsys, ["sync", "--in", str(tmp_path / "nope.json")])
    assert rc == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = _run(capsys, ["sync", "--in", str(bad)])
    assert rc == 2 and "not valid JSON" in err
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"format": "other", "n": 2}))
    rc, _, err = _run(capsys, ["sync", "--in", str(schema)])
    assert rc == 2 and "format" in err
    doc = A3.to_json_dict()
    for field, bad in (("n", {**doc, "n": True}),
                       ("delta[1][2]", {**doc, "delta": [[1, 2, 0], [0, 0, False]]})):
        schema.write_text(json.dumps(bad))
        rc, out, err = _run(capsys, ["sync", "--in", str(schema)])
        assert rc == 2 and out == "" and field in err
        assert err.startswith("error:") and len(err.splitlines()) == 1
    rc, _, err = _run(
        capsys, ["experiment", "goodness", "--config", str(tmp_path / "no.json")]
    )
    assert rc == 2
    cfg = tmp_path / "misspelt.json"
    cfg.write_text(json.dumps({"experiment": "height", "sizes": [8], "trial": 5}))
    rc, out, err = _run(capsys, ["experiment", "height", "--config", str(cfg)])
    assert rc == 2 and out == "" and err.startswith("error:") and "trial" in err
    for name, key, value in (("height", "trials", "5"), ("height", "trials", 2.5),
                             ("scaling", "epsilon", "x"),
                             ("height", "k_rule", {"type": "log2", "epsilon": 1e999}),
                             ("height", "k_rule", {"type": "explicit", "value": True}),
                             ("height", "k_rule", {"type": "explicit", "value": "5"}),
                             ("height", "k_rule", {"type": "log2", "epsilon": True}),
                             ("height", "k_rule", {"type": "ln", "factor": "2"}),
                             # ints past float range, which math.isfinite cannot take
                             ("height", "epsilon", 10**400),
                             ("height", "k_rule", {"type": "explicit", "value": 10**400}),
                             ("height", "k_rule", {"type": "log2", "epsilon": 10**400}),
                             ("height", "k_rule", {"type": "ln", "factor": -10**400}),
                             # finite factors whose k is not: factor * ln n is inf
                             ("height", "k_rule", {"type": "ln", "factor": 1e308}),
                             ("goodness", "k_rule", {"type": "ln", "factor": 1e308}),
                             ("moment_estimate", "k_rule", {"type": "ln", "factor": 1e308}),
                             ("height", "seed", 1.5), ("height", "seed", True),
                             ("height", "sizes", [8.5]), ("scaling", "budget", True),
                             ("scaling", "budget", 2.5), ("scaling", "budget", "3"),
                             ("scaling", "budget", -1),
                             ("scaling", "k_rule", {"type": "explicit", "value": 5}),
                             ("scaling", "k_rule", {"type": "ln", "factor": 1.0}),
                             ("height", "k_rule", {"type": ["log2"], "epsilon": 1}),
                             # a k_rule holds its type and that type's value key only
                             ("height", "k_rule", {"type": "ln", "factor": 1.0, "value": 9}),
                             # no size, or a size twice, would pass or pool vacuously
                             *((name, "sizes", []) for name in
                               ("tree_probability", "goodness", "scaling", "height",
                                "moment_estimate", "bijection_audit")),
                             *((name, "sizes", [64, 64])
                               for name in ("scaling", "height", "goodness")),
                             ("tree_probability", "word", 5), ("height", "out", ["x"])):
        cfg = tmp_path / "badtype.json"
        cfg.write_text(json.dumps({"experiment": name, "sizes": [8], key: value}))
        rc, out, err = _run(capsys, ["experiment", name, "--config", str(cfg)])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
    for payload in ([1, 2], "goodness", 3):
        cfg = tmp_path / "notobject.json"
        cfg.write_text(json.dumps(payload))
        rc, out, err = _run(capsys, ["experiment", "goodness", "--config", str(cfg)])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_non_string_out_exits_two(tmp_path):
    # open() takes True as file descriptor 1, so an out let through would
    # close this process's stdout: the run gets its own process
    src = pathlib.Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    cfg = tmp_path / "out.json"
    for value in (True, 1):
        cfg.write_text(json.dumps({"experiment": "height", "sizes": [8], "trials": 2,
                                   "out": value}))
        proc = subprocess.run(
            [sys.executable, "-m", "synchrotree.cli", "experiment", "height",
             "--config", str(cfg)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: out: expected null or a string\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_overflowing_lengths(tmp_path, capsys, monkeypatch):
    # a log2 rule's epsilon past 1 gives the capped k, as epsilon 1 does
    cfg = tmp_path / "eps.json"
    for name in ("height", "goodness", "moment_estimate"):
        outs = []
        for epsilon in (1, 1e308):
            cfg.write_text(json.dumps({"experiment": name, "sizes": [8], "trials": 2,
                                       "k_rule": {"type": "log2", "epsilon": epsilon}}))
            rc, out, err = _run(capsys, ["experiment", name, "--config", str(cfg)])
            assert rc == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]
        # a k past any word length is an error that names its rule: an explicit
        # 1e300, or an ln factor whose k is finite but huge
        for sizes, rule in (([8], {"type": "explicit", "value": 1e300}),
                            ([2], {"type": "ln", "factor": 1e308})):
            cfg.write_text(json.dumps({"experiment": name, "sizes": sizes, "trials": 2,
                                       "k_rule": rule}))
            rc, out, err = _run(capsys, ["experiment", name, "--config", str(cfg)])
            assert rc == 2 and out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert "k_rule" in err and "Traceback" not in err
    path = _write(tmp_path, "a.json", A3)
    certs = {}
    for epsilon in ("1", "1e308", "-1e308"):
        rc, out, err = _run(capsys, ["sync", "--in", path, "--epsilon=" + epsilon])
        assert rc == 0 and err == ""
        certs[epsilon] = json.loads(out)
    assert certs["1e308"] == certs["1"] and len(certs["1"]["tree_word"]) == 4
    assert certs["-1e308"]["tree_word"] == "b"

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "random_automaton", out_of_memory)
    rc, out, err = _run(capsys, ["gen", "--n", "100000000000"])
    assert rc == 2 and out == "" and err == "error: MemoryError\n"


def test_sync_bad_search_arguments(tmp_path, capsys):
    path = _write(tmp_path, "a.json", A3)
    for flag, value in (("--epsilon", "inf"), ("--epsilon", "nan"), ("--budget", "-1")):
        rc, out, err = _run(capsys, ["sync", "--in", path, flag, value])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    # argparse refuses budgets that are no integers, with its usage line
    for value in ("2.5", "True"):
        with pytest.raises(SystemExit) as exit_info:
            main(["sync", "--in", path, "--budget", value])
        assert exit_info.value.code == 2
        assert "--budget" in capsys.readouterr().err


# one case per kind of raise that reaches main: a search's own refusal, a
# spec, a config, an unreadable file, bad JSON and a schema refusal; {dir}
# stands for the test's directory
@pytest.mark.parametrize("files, argv, err", [
    ({"A.json": random_automaton(21, seed=0)}, ["sync-exact", "--in", "{dir}/A.json"],
     "state powerset search capped at 20 states"),
    ({"A.json": A3, "spec.json": '{"entries": []}'},
     ["explore", "--in", "{dir}/A.json", "--spec", "{dir}/spec.json"],
     "need at least one entry"),
    ({"cfg.json": '{"sizes": [10], "trials": 0}'},
     ["experiment", "height", "--config", "{dir}/cfg.json"],
     "trials: expected a whole number >= 1"),
    ({}, ["sync", "--in", "{dir}/A.json"],
     "cannot read {dir}/A.json: [Errno 2] No such file or directory: '{dir}/A.json'"),
    ({"A.json": "{"}, ["sync", "--in", "{dir}/A.json"],
     "{dir}/A.json is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ({"A.json": json.dumps({**A3.to_json_dict(), "format": "other"})},
     ["sync", "--in", "{dir}/A.json"],
     "{dir}/A.json: format: expected 'synchrotree-automaton-v1'"),
], ids=["search", "spec", "config", "unreadable", "not-json", "schema"])
def test_refusals_print_one_error_line(tmp_path, capsys, files, argv, err):
    for name, content in files.items():
        if isinstance(content, Automaton):
            _write(tmp_path, name, content)
        else:
            (tmp_path / name).write_text(content)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    rc, out, got = _run(capsys, argv)
    assert (rc, out, got) == (2, "", "error: %s\n" % err.replace("{dir}", str(tmp_path)))
