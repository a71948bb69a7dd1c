"""Synchronizing random automata through word-induced trees."""

import types

from .core import (
    Automaton,
    SchemaError,
    Thread,
    Word,
    apply_word,
    apply_word_all,
    are_conjugate,
    automaton_from_json,
    count_nc_words,
    cycles,
    cyclic_points,
    enumerate_nc_words,
    height,
    is_self_conjugate,
    is_w_tree,
    loop_root,
    one_letter_view,
    random_automaton,
    random_nc_word,
    shift,
    thread,
    tree_root,
)
from .exploration import (
    ExplorationTrace,
    InputSpec,
    TypicalityReport,
    ball,
    check_typicality,
    classify,
    dump_lines,
    explore,
)
from .joyal import CollisionError, RewiringPlan, fold_cycles, unfold_branch, unfold_pair
from .records import (
    CollisionWitness,
    DoubleLabeled,
    DoubleMarked,
    Labeled,
    MarkedLabeled,
    branch_records,
    cycle_minima,
    find_collision,
    has_minima_collision,
    is_branch_good,
    is_cycle_good,
    is_good_marked_tree,
)
from .sync import (
    SyncCertificate,
    cerny_automaton,
    find_tree_word,
    greedy_fallback,
    is_synchronizable,
    is_synchronizing,
    iter_tree_words,
    pick_tree_length,
    shortest_sync_word_exact,
    tree_sync_word,
)
from .lab import (
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
    run,
    save_automaton,
)

# the exports are the public names the imports above bind, modules aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

__version__ = "0.1.0"
