"""ttrose: train track maps on roses, lamination train track structures,
birecurrency, and ideal decomposition diagrams for ruling out candidate
ideal Whitehead graphs."""

__version__ = "0.1.0"

from .rose import bar, format_direction, format_word, parse_word, tighten, turn, turns_of
from .whitehead import WhiteheadGraph, index_list
from .maps import (
    FoldDecomposition,
    Generator,
    NotProperFullFolds,
    RoseMap,
    apply_map,
    compose,
    direction_map,
    gates,
    is_train_track,
    local_whitehead_graph,
    periodic_and_fixed_directions,
    stable_whitehead_graph,
    stallings_fold_decomposition,
    turns_taken_closure,
    validate_ideal_decomposition,
)
from .ltt import (
    LttStructure,
    brute_force_birecurrent,
    is_birecurrent,
    ltt_of_map,
    validate_ltt,
)
from .moves import GeneratingTriple, determining_edges
from .diagram import (
    IdDiagram,
    build_preliminary,
    enumerate_structures,
    epp_classes,
    find_loops,
    id_diagram,
    irreducibility_potential_test,
    star_target,
    target_verdict,
    verify_loop,
)
from .catalog import GraphCatalogEntry, connected_simplicial_graphs
