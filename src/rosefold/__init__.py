"""Combinatorial machinery for labeled graphs over a rose: word and
graph primitives, edge folding, covers and path lifting, random-word
statistics, derived presentations with piece statistics, and the
factor-complexity calculus with reduction moves.

The package namespace holds the names of README's library example;
everything else is imported from its module."""

from .words import GenTuple, parse_word
from .folding import fold_all, fold_to_delta, wedge_of_loops
from .covers import shortest_non_lifting_word
from .complexity import UWordIndex, tuple_complexity

__version__ = "0.1.0"
