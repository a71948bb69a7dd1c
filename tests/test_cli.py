import json

import pytest

from synchrotree.cli import main
from synchrotree.core import Automaton
from synchrotree.lab import save_automaton
from synchrotree.sync import cerny_automaton

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
                             ("height", "k_rule", {"type": "log2", "epsilon": 1e999})):
        cfg = tmp_path / "badtype.json"
        cfg.write_text(json.dumps({"experiment": name, "sizes": [8], key: value}))
        rc, out, err = _run(capsys, ["experiment", name, "--config", str(cfg)])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and key in err and "Traceback" not in err
    for payload in ([1, 2], "goodness", 3):
        cfg = tmp_path / "notobject.json"
        cfg.write_text(json.dumps(payload))
        rc, out, err = _run(capsys, ["experiment", "goodness", "--config", str(cfg)])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_sync_bad_search_arguments(tmp_path, capsys):
    path = _write(tmp_path, "a.json", A3)
    for flag, value in (("--epsilon", "inf"), ("--epsilon", "nan"), ("--budget", "-1")):
        rc, out, err = _run(capsys, ["sync", "--in", path, flag, value])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
