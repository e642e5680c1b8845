"""End-to-end arc-replacement pipeline on a constructed desk-scale
instance: wedge the tuple, fold to the last pre-lift stage, locate a
long once-traversed arc off the witness subgraph, replace its label by
the complementary word of the matching relator rotation, rebuild the
tuple, refold, and compare tuple complexities at equal depth.

The constructed instance plants a near-whole relator rotation inside the
first tuple entry, so the replacement is a genuine shortening move; the
pipeline nevertheless rediscovers the arc from the folded graph rather
than from the construction."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .complexity import UWordIndex, tuple_complexity
from .folding import (
    fold_all,
    fold_to_delta,
    petal_paths,
    replace_arc,
    wedge_of_loops,
)
from .graphs import EdgePath, LabeledGraph, betti, is_rose
from .words import GenTuple, Word, random_reduced_letters, splice


@dataclass
class SurgeryReport:
    relators: list[str]
    tuple_before: list[str]
    tuple_after: list[str]
    pattern: str
    replacement: str
    arc_length: int
    occurrences: list[tuple[int, int, int]]  # (petal, start, sign)
    delta_edges: int
    delta_betti: int
    psi_edges: int
    refolds_to_rose: bool
    delta_after_refolds: bool
    complexity_before: list[dict]
    complexity_after: list[dict]
    strictly_smaller: bool
    depth: int


class SurgeryError(RuntimeError):
    pass


# The planted first entry carries 9/10 of a relator rotation, so trading
# it for the complementary tenth shortens the entry; 5-letter random flanks
# put non-relator material on both sides of it, as in a generic tuple.
_FLANK_LENGTH = 5
_CARRIED_FRACTION = 0.9
# the shortest arc, and relator-power factor on it, that surgery replaces
_MIN_ARC_LENGTH = 4
# instances surgery_demo builds, seeds counting up, before it gives up
_MAX_ATTEMPTS = 20


def _random_cyclically_reduced(rng: random.Random, rank: int, length: int) -> Word:
    while True:
        letters = random_reduced_letters(rng, rank, length)
        word = Word(rank, letters)
        if not word.is_cyclically_reduced:
            continue
        if {abs(l) for l in letters} != set(range(1, rank + 1)):
            continue
        return word


def build_instance(
    rank: int = 2, relator_length: int = 40, seed: int = 7
) -> tuple[list[Word], GenTuple]:
    """Relators plus a generating tuple whose first entry carries most of
    a relator rotation; the remaining entries form a short basis so the
    wedge folds onto the rose regardless of the first entry.  Each relator
    covers every generator, so ``relator_length`` must be at least
    ``rank``."""
    if relator_length < rank:
        raise ValueError(
            f"relator length {relator_length} is below the rank {rank}: "
            "no relator can cover every generator"
        )
    rng = random.Random(seed)
    relators = [
        _random_cyclically_reduced(rng, rank, relator_length) for _ in range(rank)
    ]
    u = relators[0]
    offset = rng.randrange(len(u))
    carried = u.rotation(offset).letters[: max(1, int(_CARRIED_FRACTION * len(u)))]
    for _ in range(1000):
        head = random_reduced_letters(rng, rank, _FLANK_LENGTH)
        tail = random_reduced_letters(rng, rank, _FLANK_LENGTH)
        letters = head + carried + tail
        if all(a != -b for a, b in zip(letters, letters[1:])):
            first = Word(rank, letters)
            break
    else:
        raise SurgeryError("could not assemble a reduced first entry")
    basis_entries = [
        Word(rank, (1, 2)) if rank >= 2 else Word(rank, (1,)),
    ]
    for g in range(2, rank + 1):
        basis_entries.append(Word(rank, (g,)))
    entries = [first] + basis_entries
    return relators, GenTuple(rank, tuple(entries))


def _arc_runs(
    delta: LabeledGraph,
    petal_images: Sequence[EdgePath],
    psi_edge_ids: Sequence[int],
) -> list[tuple[int, int, int]]:
    """Maximal runs (petal, start, length) of petal-image positions whose
    edges are traversed exactly once across all petal images, lie off the
    witness subgraph, and whose interior vertices are degree-2 non-base.
    So an arc inside one run is traversed there alone: it is its own one
    occurrence in the images."""
    usage: dict[int, int] = {}
    for path in petal_images:
        for tok in path.tokens:
            usage[abs(tok) - 1] = usage.get(abs(tok) - 1, 0) + 1
    psi = set(psi_edge_ids)

    def ok_edge(tok: int) -> bool:
        k = abs(tok) - 1
        return usage.get(k, 0) == 1 and k not in psi

    def ok_junction(tok: int) -> bool:
        v = delta.omega(tok)
        return delta.degree(v) == 2 and v != delta.base

    runs: list[tuple[int, int, int]] = []
    for petal, path in enumerate(petal_images):
        start = None
        for i, tok in enumerate(path.tokens):
            if not ok_edge(tok):
                if start is not None:
                    runs.append((petal, start, i - start))
                    start = None
                continue
            if start is None:
                start = i
            elif not ok_junction(path.tokens[i - 1]):
                runs.append((petal, start, i - start))
                start = i
        if start is not None:
            runs.append((petal, start, len(path.tokens) - start))
    return runs


def run_surgery(relators: Sequence[Word], t: GenTuple, depth: int = 0) -> SurgeryReport:
    """The full pipeline, comparing complexities at the default
    thresholds; raises SurgeryError when no qualifying arc is found (the
    constructed instances always provide one)."""
    idx = UWordIndex(list(relators))
    if idx.missing_letters():
        raise SurgeryError("relators do not cover every generator")
    wedge = wedge_of_loops(t)
    extraction = fold_to_delta(wedge)
    if extraction.degenerate:
        raise SurgeryError("wedge already contains a rose lift")
    delta = extraction.delta
    stage = extraction.delta_stage
    trace = extraction.trace
    paths = petal_paths(t, wedge)
    images = [
        trace.push_path(p, extraction.delta_stage_index, stage) for p in paths
    ]

    runs = _arc_runs(delta, images, extraction.psi.edge_ids)
    runs = [r for r in runs if r[2] >= _MIN_ARC_LENGTH]
    if not runs:
        raise SurgeryError("no once-traversed arc off the witness subgraph")
    # within each run, keep the longest stretch reading a relator-power
    # factor (runs sweep across non-relator flank material as well)
    certified = None
    for petal, run_start, run_length in sorted(runs, key=lambda r: -r[2]):
        # a pushed path reads its petal's letters, so the run reads this subword
        label = t.entries[petal].subword(run_start, run_start + run_length)
        maxstart = idx.max_factor_starting(label)
        best_p = max(range(run_length), key=lambda p: (maxstart[p], -p))
        best_len = maxstart[best_p]
        if best_len < _MIN_ARC_LENGTH:
            continue
        sub = label.subword(best_p, best_p + best_len)
        cert = idx.is_u_word(sub)
        if cert is None:
            # a fault in the tables, not a failed instance: surgery_demo must not retry it
            raise RuntimeError(f"the factor table covers {sub}, but no certificate does")
        if certified is None or best_len > certified[2]:
            certified = (petal, run_start + best_p, best_len, sub, cert)
    if certified is None:
        raise SurgeryError("no qualifying run reads a relator-power factor")
    petal, start, length, pattern, cert = certified
    replacement = idx.u_complement(pattern, cert)

    # the arc lies inside one run, whose edges the images traverse once in
    # all, so it is its own one occurrence
    arc_tokens = images[petal].tokens[start : start + length]
    occurrences = [(petal, start, 1)]
    new_entries = list(t.entries)
    new_entries[petal] = splice(t.entries[petal], [(start, 1)], length, replacement)
    new_tuple = GenTuple(t.rank, tuple(new_entries))

    new_wedge = wedge_of_loops(new_tuple)
    refolded = fold_all(new_wedge)
    refolds = is_rose(refolded.terminal)

    # graph-level check: the pre-lift stage with the arc swapped out still
    # folds onto the rose because the witness subgraph is untouched
    delta_after = replace_arc(delta, arc_tokens, replacement)
    delta_refolds = is_rose(fold_all(delta_after).terminal)

    before = tuple_complexity(list(t.entries), idx, depth)
    after = tuple_complexity(list(new_tuple.entries), idx, depth)
    strictly = tuple(c.key() for c in after) < tuple(c.key() for c in before)

    return SurgeryReport(
        relators=[str(r) for r in relators],
        tuple_before=[str(w) for w in t.entries],
        tuple_after=[str(w) for w in new_tuple.entries],
        pattern=str(pattern),
        replacement=str(replacement),
        arc_length=length,
        occurrences=occurrences,
        delta_edges=delta.num_edges,
        delta_betti=betti(delta),
        psi_edges=len(extraction.psi.edge_ids),
        refolds_to_rose=refolds,
        delta_after_refolds=delta_refolds,
        complexity_before=[c.to_dict() for c in before],
        complexity_after=[c.to_dict() for c in after],
        strictly_smaller=strictly,
        depth=depth,
    )


def surgery_demo(
    rank: int = 2, relator_length: int = 40, seed: int = 7, depth: int = 0
) -> SurgeryReport:
    """Build instances until the pipeline succeeds end to end; the attempt
    count is bounded and failures surface as SurgeryError."""
    last: SurgeryError | None = None
    for attempt in range(_MAX_ATTEMPTS):
        relators, t = build_instance(rank, relator_length, seed + attempt)
        try:
            return run_surgery(relators, t, depth)
        except SurgeryError as err:
            last = err
    raise SurgeryError(f"no instance succeeded in {_MAX_ATTEMPTS} attempts: {last}")
