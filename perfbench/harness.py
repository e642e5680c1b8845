"""Timing, statistics, tracing and result accounting for the rosefold
benchmark.

Nothing here knows about particular workloads: a workload supplies a
seeded input description, a set-up step that parses those inputs into
program state, and a list of jobs.  This module times set-up and the
job batch, checks every job's output, and (in a traced run) records a
span around each call into the program's layers.
"""

from __future__ import annotations

import functools
import gc
import gzip
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: The program's package.
PACKAGE = "rosefold"

#: The program's modules, one layer each.
LAYERS = (
    "words",
    "graphs",
    "folding",
    "covers",
    "genericity",
    "presentations",
    "complexity",
    "strsearch",
    "surgery",
    "cli",
)

# Per-letter helpers whose own cost is below a span's; wrapping them
# would make the traced run measure the tracer.
UNTRACED = {
    "words.check_letter",
    "words.letter_key",
    "words.format_letter",
    "words.parse_letter",
    "strsearch.letters_to_chars",
    "strsearch.chars_to_letters",
    "strsearch.inverse_chars",
}

# Methods traced in addition to the public module-level functions.
TRACED_METHODS = (
    ("words", "Word", "__post_init__"),
    ("words", "CyclicWord", "__post_init__"),
    ("folding", "FoldTrace", "stage"),
    ("complexity", "UWordIndex", "max_factor_starting"),
    ("strsearch", "SuffixAutomaton", "__init__"),
    ("strsearch", "SuffixAutomaton", "matching_statistics"),
)

#: Number of jobs that must lie beyond the reported tail latency.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least ``TAIL_BEYOND`` values above it.

    Returns (value, percentile, count).  With ``TAIL_BEYOND`` or fewer
    values no such statistic exists; the maximum is returned with
    percentile 100 so that the caller can still print it, marked by its
    percentile.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory span recorder.

    A span is (name, parent span, start, end); spans are appended in
    start order to flat arrays and kept until the run ends.  Counters
    are recorded at the same boundaries as the spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.  A generator function gets
        one span per resumption, so work done by its consumer between
        items is not charged to it."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        def begin() -> int:
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        def finish(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = begin()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        finish(i)
                    if on_result is not None:
                        on_result(args, kwargs, item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (duration minus
        the time covered by direct child spans), plus the number of calls
        per parent name under ``parents``."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
            p = self.parent[i]
            parent_name = self.names[self.name[p]] if p >= 0 else ""
            row["parents"][parent_name] = row["parents"].get(parent_name, 0) + 1
        return out

    def write(self, path: Path) -> None:
        """Write every span, gzip-compressed: one JSON header line (span
        names, counters, span count and column layout), then each column
        as a raw machine array in the header's order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent, "start": self.start, "end": self.end}
        header = {
            "names": self.names,
            "counters": self.counters,
            "spans": len(self.start),
            "columns": [[key, col.typecode] for key, col in columns.items()],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in columns.values():
                fh.write(col.tobytes())


def _counting_hooks(tracer: Tracer) -> dict[str, Callable[[tuple, dict, Any], None]]:
    """Counters taken from the arguments or result at a span boundary."""

    def folds(args, kwargs, trace):
        tracer.count("folding.folds", trace.num_folds)

    def distinct(args, kwargs, graph):
        tracer.count("covers.candidates_distinct")

    def relator_letters(args, kwargs, report):
        relators = args[0] if args else kwargs["relators"]
        tracer.count("presentations.relator_letters", sum(len(r) for r in relators))

    def neighbors(args, kwargs, result):
        tracer.count("complexity.ball_neighbors", len(result))

    def sam_letters(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        tracer.count("strsearch.sam_letters_indexed", len(text))

    return {
        "folding.fold_all": folds,
        "covers.enumerate_candidates": distinct,
        "presentations.piece_report": relator_letters,
        "complexity.elementary_i_equivalents": neighbors,
        "strsearch.SuffixAutomaton.__init__": sam_letters,
    }


def install_tracer(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions of every layer wherever callers look them
    up (the defining module, modules that imported them by name, and the
    package namespace).  Returns a function that restores the originals."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    hooks = _counting_hooks(tracer)
    wrapped: dict[int, Callable] = {}
    restore: list[tuple[Any, str, Any]] = []

    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") or f"{layer}.{attr}" in UNTRACED:
                continue
            # the cli layer is traced at its entry point only, so that its
            # self time covers argument parsing, dispatch and JSON emit
            if layer == "cli" and attr != "main":
                continue
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
    for layer, cls_name, attr in TRACED_METHODS:
        cls = getattr(modules[layer], cls_name)
        fn = cls.__dict__[attr]
        name = f"{layer}.{cls_name}.{attr}"
        restore.append((cls, attr, fn))
        setattr(cls, attr, tracer.wrap(name, fn, hooks.get(name)))

    namespaces = [importlib.import_module(PACKAGE), *modules.values()]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None:
                restore.append((ns, attr, value))
                setattr(ns, attr, replacement)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


def _span(name: str, field_name: str) -> Callable[[dict, dict], float]:
    return lambda agg, counters: agg.get(name, {}).get(field_name, 0)


def _counter(name: str) -> Callable[[dict, dict], float]:
    return lambda agg, counters: counters.get(name, 0)


def _generated(agg: dict, counters: dict) -> float:
    return agg.get("graphs.canonical_key", {}).get("parents", {}).get(
        "covers.enumerate_candidates", 0
    )


def _distinct_ratio(agg: dict, counters: dict) -> float:
    generated = _generated(agg, counters)
    return counters.get("covers.candidates_distinct", 0) / generated if generated else 0.0


def _layer_self(layer: str) -> Callable[[dict, dict], float]:
    prefix = layer + "."
    return lambda agg, counters: sum(
        row["self_s"] for name, row in agg.items() if name.startswith(prefix)
    )


#: Per-layer metric name -> (unit, how it is read from the trace).
PER_LAYER: dict[str, tuple[str, Callable[[dict, dict], float]]] = {
    "graphs.canonical_key.calls": ("count", _span("graphs.canonical_key", "calls")),
    "graphs.canonical_key.self_s": ("s", _span("graphs.canonical_key", "self_s")),
    "covers.candidates_generated": ("count", _generated),
    "covers.candidates_distinct": ("count", _counter("covers.candidates_distinct")),
    "covers.distinct_ratio": ("ratio", _distinct_ratio),
    "covers.shortest_non_lifting_word.calls": (
        "count", _span("covers.shortest_non_lifting_word", "calls")),
    "covers.shortest_non_lifting_word.self_s": (
        "s", _span("covers.shortest_non_lifting_word", "self_s")),
    "covers.lift_paths.self_s": ("s", _span("covers.lift_paths", "self_s")),
    "folding.fold_all.calls": ("count", _span("folding.fold_all", "calls")),
    "folding.fold_all.self_s": ("s", _span("folding.fold_all", "self_s")),
    "folding.folds": ("count", _counter("folding.folds")),
    "folding.fold_to_delta.self_s": ("s", _span("folding.fold_to_delta", "self_s")),
    "folding.stage.calls": ("count", _span("folding.FoldTrace.stage", "calls")),
    "folding.stage.self_s": ("s", _span("folding.FoldTrace.stage", "self_s")),
    "words.word_constructions": ("count", _span("words.Word.__post_init__", "calls")),
    "words.word_validate_s": ("s", _span("words.Word.__post_init__", "self_s")),
    "words.free_reduce.self_s": ("s", _span("words.free_reduce", "self_s")),
    "words.cyclic_canon_s": ("s", _span("words.CyclicWord.__post_init__", "self_s")),
    "words.random_reduced_letters.self_s": (
        "s", _span("words.random_reduced_letters", "self_s")),
    "strsearch.sam_builds": ("count", _span("strsearch.SuffixAutomaton.__init__", "calls")),
    "strsearch.sam_build_s": ("s", _span("strsearch.SuffixAutomaton.__init__", "self_s")),
    "strsearch.sam_letters_indexed": ("count", _counter("strsearch.sam_letters_indexed")),
    "strsearch.matching_statistics.self_s": (
        "s", _span("strsearch.SuffixAutomaton.matching_statistics", "self_s")),
    "genericity.samples": ("count", _span("genericity.random_reduced_word", "calls")),
    "genericity.repeated_subwords_at_least.self_s": (
        "s", _span("genericity.repeated_subwords_at_least", "self_s")),
    "genericity.disjoint_coverage_bidirectional.self_s": (
        "s", _span("genericity.disjoint_coverage_bidirectional", "self_s")),
    "presentations.build_relators.self_s": (
        "s", _span("presentations.build_relators", "self_s")),
    "presentations.piece_report.calls": ("count", _span("presentations.piece_report", "calls")),
    "presentations.piece_report.self_s": ("s", _span("presentations.piece_report", "self_s")),
    "presentations.relator_letters": ("count", _counter("presentations.relator_letters")),
    "complexity.c1.self_s": ("s", _span("complexity.c1", "self_s")),
    "complexity.max_factor_starting.calls": (
        "count", _span("complexity.UWordIndex.max_factor_starting", "calls")),
    "complexity.ell_hat.calls": ("count", _span("complexity.ell_hat", "calls")),
    "complexity.ell_hat.self_s": ("s", _span("complexity.ell_hat", "self_s")),
    "complexity.elementary_i_equivalents.calls": (
        "count", _span("complexity.elementary_i_equivalents", "calls")),
    "complexity.ball_neighbors": ("count", _counter("complexity.ball_neighbors")),
    "complexity.reduction_move.self_s": ("s", _span("complexity.reduction_move", "self_s")),
    "surgery.run_surgery.self_s": ("s", _span("surgery.run_surgery", "self_s")),
    "cli.main.self_s": ("s", _span("cli.main", "self_s")),
    **{f"{layer}.self_s": ("s", _layer_self(layer)) for layer in LAYERS},
}


# ---------------------------------------------------------------------------
# jobs and runs


@dataclass
class Job:
    """One CLI-equivalent unit of work.

    ``call`` runs the job and returns its output; ``render`` turns that
    output into the text whose digest must equal ``expected`` (computed
    from the reference commit); ``verify`` adds checks that need no
    reference and returns a failure reason or None.  ``render`` and
    ``verify`` run outside the timed region.
    """

    kind: str
    case: str
    call: Callable[[], Any]
    render: Callable[[Any], str] = str
    verify: Callable[[Any], str | None] | None = None


@dataclass
class Batch:
    seconds: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    wall_s: float = 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_batch(jobs: list[Job], pause: Callable[[], None] | None = None) -> Batch:
    """Run every job in order; a job that raises is recorded, not fatal.
    ``pause``, if given, runs after each job, outside the timed region."""
    batch = Batch()
    paused = 0.0
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out, err = job.call(), None
        except Exception as exc:  # a failing job is counted in failed_frac
            out, err = None, f"{type(exc).__name__}: {exc}"
        batch.seconds.append(time.perf_counter() - t0)
        batch.outputs.append(out)
        batch.errors.append(err)
        if pause is not None:
            t1 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t1
    batch.wall_s = time.perf_counter() - start - paused
    return batch


def check_batch(jobs: list[Job], batch: Batch, expected: dict[str, str]) -> list[str]:
    """One failure reason per failed job: it raised, its output differs
    from the reference digest, or its own verification failed."""
    failures = []
    for job, out, err in zip(jobs, batch.outputs, batch.errors):
        reason = err
        if reason is None:
            try:
                want = expected.get(job.case)
                got = digest(job.render(out))
                if want is None:
                    reason = "no reference output recorded"
                elif got != want:
                    reason = f"output digest {got} != reference {want}"
                elif job.verify is not None:
                    reason = job.verify(out)
            except Exception as exc:  # a check that cannot run is a failure
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{job.case}: {reason}")
    return failures


def purge_package() -> dict[str, Any]:
    """Remove the program's modules from ``sys.modules``; returns them."""
    names = [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]
    return {name: sys.modules.pop(name) for name in names}


def timed_setup(workload, raw: Any) -> tuple[float, Any, Any]:
    """Import the program afresh and run the workload's set-up on its
    generated inputs; returns the time, the CLI module and the state."""
    purge_package()
    gc.collect()
    t0 = time.perf_counter()
    importlib.import_module(PACKAGE)
    program = importlib.import_module(f"{PACKAGE}.cli")
    state = workload.setup(raw)
    return time.perf_counter() - t0, program, state


def setup_sample(workload, raw: Any) -> float:
    """Time one more set-up without touching the modules a running batch
    uses: the fresh copies are dropped and the running ones put back."""
    running = purge_package()
    try:
        return timed_setup(workload, raw)[0]
    finally:
        purge_package()
        sys.modules.update(running)


# ---------------------------------------------------------------------------
# configuration echo


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
