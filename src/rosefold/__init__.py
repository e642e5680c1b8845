"""Combinatorial machinery for labeled graphs over a rose: word and
graph primitives, edge folding, covers and path lifting, random-word
statistics, derived presentations with piece statistics, and the
factor-complexity calculus with reduction moves."""

from .words import (
    CyclicWord,
    GenTuple,
    NielsenMove,
    Word,
    apply_nielsen,
    commutator_class,
    cyclic_reduce,
    empty_word,
    free_reduce,
    parse_word,
    format_word,
    standard_tuple,
)
from .graphs import (
    EdgePath,
    LabeledGraph,
    Subgraph,
    betti,
    canonical_key,
    collapse,
    format_graph,
    isomorphic_labeled,
    subgraph_as_graph,
    subgraph_from_edges,
)
from .folding import (
    FoldTrace,
    PsiWitness,
    fold_all,
    fold_to_delta,
    replace_arc,
    wedge_of_loops,
)
from .covers import (
    enumerate_candidates,
    lift_paths,
    shortest_non_lifting_word,
    survey_two_cover_characterization,
)
from .genericity import (
    SampleConfig,
    alpha_injectivity,
    random_reduced_word,
    repeat_length_bound,
)
from .presentations import (
    Presentation,
    build_relators,
    piece_report,
    sample_presentation,
    trim_surviving_middles,
)
from .complexity import (
    ComplexityValue,
    Thresholds,
    UWordIndex,
    c1,
    reduction_move,
    tuple_complexity,
)
from .complexity import complexity as word_complexity
from .surgery import run_surgery, surgery_demo

__version__ = "0.1.0"
