"""Command line front end.

Exit codes: 0 on success, 1 when a search legitimately finds nothing
(no tree word, not synchronizable), 2 on errors of any other kind.
"""

import argparse
import functools
import json
import sys
from itertools import islice

from .core import (
    SchemaError,
    Word,
    automaton_from_json,
    random_automaton,
)
from .exploration import InputSpec, dump_lines, explore
from .lab import config_from_json, exp_bijection_audit, run, save_automaton
from .sync import (
    _certificate,
    greedy_fallback,
    iter_tree_words,
    pick_tree_length,
    shortest_sync_word_exact,
    tree_sync_word,
)


class _CliError(Exception):
    pass


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError("cannot read %s: %s" % (path, exc))
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser can follow
        raise _CliError("%s is not valid JSON: %s" % (path, exc))


def _load_automaton(path):
    payload = _read_json(path)
    try:
        return automaton_from_json(payload)
    except SchemaError as exc:
        raise _CliError("%s: %s" % (path, exc))


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _cmd_gen(args):
    A = random_automaton(args.n, args.alphabet, seed=args.seed)
    if args.out:
        save_automaton(A, args.out)
    else:
        _emit(A.to_json_dict())
    return 0


def _cmd_sync(args):
    A = _load_automaton(args.infile)
    cert = tree_sync_word(A, epsilon=args.epsilon, budget=args.budget)
    if cert is None and args.fallback:
        cert = greedy_fallback(A)
    if cert is None:
        print("no synchronizing word found", file=sys.stderr)
        return 1
    _emit(cert.to_json_dict(emit_word=args.emit_word))
    return 0


def _cmd_sync_exact(args):
    A = _load_automaton(args.infile)
    try:
        word = shortest_sync_word_exact(A)
    except ValueError as exc:
        raise _CliError(str(exc))
    if word is None:
        print("not synchronizable", file=sys.stderr)
        return 1
    _emit(_certificate(A, word, 1, "exact").to_json_dict(emit_word=True))
    return 0


def _cmd_tree_words(args):
    A = _load_automaton(args.infile)
    k = args.k if args.k is not None else pick_tree_length(A.n)
    found = list(islice(iter_tree_words(A, k), None if args.all else 1))
    if not found and not args.all:
        print("no tree word of length %d" % k, file=sys.stderr)
        return 1
    words = [{"word": w.text, "H": h, "root": root} for w, h, root in found]
    _emit({"k": k, "words": words})
    return 0 if found else 1


def _cmd_bijection_audit(args):
    record = exp_bijection_audit(n_max=args.n, k_max=args.k)
    _emit(record.aggregates)
    return 0 if record.aggregates["total_failures"] == 0 else 2


def _cmd_explore(args):
    A = _load_automaton(args.infile)
    spec = _input_spec_from_json(_read_json(args.spec), A)
    trace = explore(A, spec)
    for line in dump_lines(trace):
        print(json.dumps(line, sort_keys=True))
    return 0


def _input_spec_from_json(payload, A):
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise _CliError('input spec must be an object with an "entries" list')
    entries = []
    for item in payload["entries"]:
        try:
            if isinstance(item, dict):
                x, r, w = item["state"], item["congruence"], item["word"]
            else:
                x, r, w = item
            if not isinstance(w, str):  # Word would also take a list of ints
                raise TypeError("word must be a string")
            entries.append((x, r, Word(w)))
        except (KeyError, TypeError, ValueError) as exc:
            raise _CliError("bad input spec entry %r: %s" % (item, exc))
    try:
        return InputSpec(tuple(entries))
    except ValueError as exc:
        raise _CliError(str(exc))


def _cmd_experiment(args):
    payload = _read_json(args.config)
    if not isinstance(payload, dict):
        raise _CliError("%s: config must be a JSON object" % args.config)
    payload.setdefault("experiment", args.name)
    if payload["experiment"] != args.name:
        raise _CliError(
            "config is for experiment %r, command line says %r"
            % (payload["experiment"], args.name)
        )
    try:
        config = config_from_json(payload)
    except ValueError as exc:
        raise _CliError(str(exc))
    record = run(config, workers=args.workers)
    _emit(record.aggregates)
    return 0


@functools.lru_cache(maxsize=1)  # built once, on first use rather than at import
def build_parser():
    parser = argparse.ArgumentParser(
        prog="synchrotree",
        description="Synchronizing words for random automata via tree words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a uniform random automaton")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("sync", help="synchronize via the tree method")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--emit-word", action="store_true")
    p.add_argument("--fallback", action="store_true",
                   help="fall back to pair merging when no tree word is found")
    p.set_defaults(fn=_cmd_sync)

    p = sub.add_parser("sync-exact", help="exact shortest word, small n only")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_sync_exact)

    p = sub.add_parser("tree-words", help="search words whose one-letter view is a tree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=_cmd_tree_words)

    p = sub.add_parser("bijection-audit", help="exhaustive fold/unfold audit")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(fn=_cmd_bijection_audit)

    p = sub.add_parser("explore", help="run the instrumented exploration")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("experiment", help="run a named experiment from a config")
    p.add_argument("name")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_CliError, SchemaError, ValueError, OSError, OverflowError,
            MemoryError, RuntimeError) as exc:
        # RuntimeError: a result that failed its own check
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
