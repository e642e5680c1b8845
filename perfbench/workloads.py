"""The rosefold benchmark workloads.

A workload is a mix of parts (``Survey``, ``Fold``, ``RandomWords``,
``Calculus``), each a family of CLI-equivalent jobs.  Every part draws
its jobs from fixed pools of seeded cases: the workload seed chooses
which cases run, and each case's inputs come from its own name alone.
That keeps every input reproducible from the seed and lets each job's
output be compared with the output the reference commit produced for
the same case (``expected.json``).

Input text is generated here, without the program; the program sees
only that text (CLI argument lists, or words it parses during set-up).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from harness import Job

RANK = 2


# ---------------------------------------------------------------------------
# input generation (independent of the program)


def reduced_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Uniform reduced word: same sampling law and random-number use as
    the program's sampler, so seeded inputs match its tests."""
    if length == 0:
        return ()
    alphabet = list(range(1, rank + 1)) + [-g for g in range(1, rank + 1)]
    letters = [alphabet[rng.randrange(2 * rank)]]
    for _ in range(length - 1):
        step = rng.randrange(2 * rank - 1)
        prev = letters[-1]
        letters.append([l for l in alphabet if l != -prev][step])
    return tuple(letters)


def cyclically_reduced(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    while True:
        letters = reduced_letters(rng, rank, length)
        if letters[0] != -letters[-1] and {abs(l) for l in letters} == set(
            range(1, rank + 1)
        ):
            return letters


def is_reduced(letters: tuple[int, ...]) -> bool:
    return all(a != -b for a, b in zip(letters, letters[1:]))


def inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def text(letters: tuple[int, ...]) -> str:
    return " ".join(f"a{l}" if l > 0 else f"a{-l}^-1" for l in letters)


def case_rng(case: str) -> random.Random:
    return random.Random(f"rosefold-bench:{case}")


# ---------------------------------------------------------------------------
# pools and plans


@dataclass(frozen=True)
class Kind:
    """A pool of ``pool`` seeded cases of which ``count`` run per batch at
    the reference run length.

    A kind whose count equals its pool is fixed: its whole pool runs in
    every batch, whatever the seed and the run length.  The heaviest kinds
    are fixed because their cost differs severalfold between cases, and
    drawing them would make the batch time and the tail latency depend
    more on the seed than on the program.
    """

    name: str
    pool: int
    count: int


def draw(kinds: tuple[Kind, ...], seed: int, scale: float) -> list[str]:
    """Case names for one batch: every case of a fixed kind, and per other
    kind ``count`` (scaled) pool members chosen by the seed."""
    rng = random.Random(seed)
    cases = []
    for kind in kinds:
        if kind.count == kind.pool:
            picks = list(range(kind.pool))
        else:
            count = max(1, round(kind.count * scale))
            picks = (
                rng.sample(range(kind.pool), count)
                if count <= kind.pool
                else [rng.randrange(kind.pool) for _ in range(count)]
            )
        cases += [f"{kind.name}/{i}" for i in picks]
    return cases


def all_cases(kinds: tuple[Kind, ...]) -> list[str]:
    return [f"{kind.name}/{i}" for kind in kinds for i in range(kind.pool)]


def split(case: str) -> tuple[str, int]:
    kind, index = case.rsplit("/", 1)
    return kind, int(index)


def cli_job(program, kind: str, case: str, argv: list[str], render=None, verify=None) -> Job:
    """A job that runs one CLI command in-process and returns
    (exit code, stdout); by default the digest covers both."""

    def call() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = program.main(argv)
            except SystemExit as exc:  # argparse rejects usage this way
                code = exc.code
        return code, buf.getvalue()

    return Job(kind, case, call, render or (lambda out: f"{out[0]}\n{out[1]}"), verify)


def payload(out: tuple[int, str]) -> dict:
    return json.loads(out[1])


class Part:
    """Base: ``kinds`` lists the pools; subclasses parse inputs in
    ``setup`` and turn cases into jobs in ``jobs``."""

    name = ""
    why = ""
    kinds: tuple[Kind, ...] = ()
    params: dict = {}

    def config(self) -> dict:
        return {
            "params": self.params,
            "kinds": [kind.__dict__ for kind in self.kinds],
        }

    def prepare(self, cases: list[str]) -> Any:
        """The benchmark's own input generation (not timed)."""
        return None

    def setup(self, raw: Any) -> Any:
        """Parse the inputs into program state (timed as set-up)."""
        return None

    def jobs(self, program, cases: list[str], state: Any) -> list[Job]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# survey: the two-sheeted-cover survey and alpha-injectivity


SURVEY_COUNTERS = {
    # (rank, max_edges): total, with rose lift, two-sheeted covers,
    # witnessed, max witness length (at max_path_len 14, no violations)
    (2, 6): (47984, 677, 3, 47304, 5),
    (3, 4): (2437, 4, 0, 2433, 3),
}


def _strip_elapsed(out: tuple[int, str]) -> str:
    data = payload(out)
    data.pop("elapsed_seconds")
    return f"{out[0]}\n{json.dumps(data, sort_keys=True)}"


def _survey_verify(rank: int, max_edges: int) -> Callable[[Any], str | None]:
    def verify(out) -> str | None:
        data = payload(out)
        got = tuple(
            data[k]
            for k in (
                "total_candidates", "with_rose_lift", "two_sheeted_covers",
                "witnessed", "max_witness_length",
            )
        )
        want = SURVEY_COUNTERS[(rank, max_edges)]
        if got != want or data["violations"] or out[0] != 0:
            return f"survey counters {got}, {len(data['violations'])} violations; want {want}"
        return None

    return verify


class Survey(Part):
    name = "survey"
    why = (
        "many tiny unbased graphs: canonical_key dedup in verify-covers "
        "(ROADMAP item 3) plus alpha-injectivity lifts; strings, complexity "
        "and presentations idle"
    )
    params = {"max_path_len": 14, "alpha": {"rank": 2, "length": 256, "samples": 50}}
    kinds = (
        Kind("covers-r2-e6", 1, 1),
        Kind("covers-r3-e4", 1, 1),
        # only six graphs jobs outrank the alpha-injectivity jobs, so the
        # tail job of the graphs workload lies in this block
        Kind("alpha", 16, 16),
    )

    def jobs(self, program, cases, state):
        out = []
        for case in cases:
            kind, i = split(case)
            if kind.startswith("covers"):
                rank, max_edges = (2, 6) if kind == "covers-r2-e6" else (3, 4)
                argv = [
                    "verify-covers", "--rank", str(rank), "--max-edges", str(max_edges),
                    "--max-path-len", "14",
                ]
                job = cli_job(
                    program, kind, case, argv,
                    render=_strip_elapsed, verify=_survey_verify(rank, max_edges),
                )
            else:
                argv = [
                    "alpha-injectivity", "--rank", "2", "--length", "256",
                    "--samples", "50", "--seed", str(i),
                ]
                job = cli_job(program, kind, case, argv)
            out.append(job)
        return out


# ---------------------------------------------------------------------------
# fold: few large based graphs


BASIS_TAIL = ("a1 a2", "a2")


def fold_words(case: str, n: int) -> list[str]:
    rng = case_rng(case)
    return [text(reduced_letters(rng, RANK, n)) for _ in range(2)] + list(BASIS_TAIL)


def _fold_cli_verify(out) -> str | None:
    data = payload(out)
    if out[0] != 0 or not data["terminal_is_rose"]:
        return "terminal is not the rose"
    return None


class Fold(Part):
    name = "fold"
    why = (
        "few large based graphs: fold CLI stage digests and replay, "
        "fold_to_delta, fold_all and surgery-demo; the only workload led by "
        "folding"
    )
    params = {
        "tuple": "[w1, w2, a1 a2, a2], |w1| = |w2| = n",
        "fold_cli_n": [50, 100, 200],
        "fold_to_delta_n": [200, 400, 800],
        "fold_all_n": 3000,
        "surgery_relator_length": [40, 100, 200, 400],
        "surgery_depth": [0, 1],
    }
    kinds = (
        # the median job of the graphs workload lies in this block
        Kind("fold-50", 32, 32),
        Kind("fold-100", 2, 2),
        Kind("fold-200", 1, 1),
        Kind("delta-200", 8, 1),
        Kind("delta-400", 8, 1),
        Kind("delta-800", 8, 1),
        Kind("foldall-3000", 8, 1),
        *(Kind(f"surgery-{L}-d{d}", 16, 2) for L in (40, 100, 200, 400) for d in (0, 1)),
    )

    def prepare(self, cases):
        return {
            case: fold_words(case, int(split(case)[0].split("-")[1]))
            for case in cases
            if case.startswith(("delta", "foldall"))
        }

    def setup(self, raw):
        words = importlib.import_module("rosefold.words")
        folding = importlib.import_module("rosefold.folding")
        wedges = {}
        for case, texts in raw.items():
            entries = tuple(words.parse_word(s, RANK) for s in texts)
            wedges[case] = folding.wedge_of_loops(words.GenTuple(RANK, entries))
        return wedges

    def jobs(self, program, cases, wedges):
        folding = importlib.import_module("rosefold.folding")
        graphs = importlib.import_module("rosefold.graphs")
        out = []
        for case in cases:
            kind, i = split(case)
            if kind.startswith("fold-"):
                n = int(kind.split("-")[1])
                policy = "least" if i % 2 == 0 else "greatest"
                argv = ["fold", "--rank", "2", "--policy", policy, "--words", *fold_words(case, n)]
                out.append(cli_job(program, kind, case, argv, verify=_fold_cli_verify))
            elif kind.startswith("delta"):
                wedge = wedges[case]
                out.append(
                    Job(
                        kind, case,
                        call=lambda g=wedge: folding.fold_to_delta(g),
                        render=lambda d: json.dumps(
                            {
                                "delta_index": d.delta_stage_index,
                                "delta": graphs.format_graph(d.delta),
                                "psi": list(d.psi.edge_ids),
                                "degenerate": d.degenerate,
                                "folds": d.trace.num_folds,
                            }
                        ),
                    )
                )
            elif kind.startswith("foldall"):
                out += self._fold_all_pair(kind, case, wedges[case], folding, graphs)
            else:
                _, L, d = kind.split("-")
                argv = [
                    "surgery-demo", "--rank", "2", "--relator-length", L,
                    "--depth", d[1:], "--seed", str(i),
                ]
                out.append(
                    cli_job(
                        program, kind, case, argv,
                        verify=lambda o: None if o[0] == 0 else f"exit code {o[0]}",
                    )
                )
        return out

    @staticmethod
    def _fold_all_pair(kind, case, wedge, folding, graphs) -> list[Job]:
        """fold_all under both policies; the terminals must be isomorphic
        roses."""
        traces: dict[str, Any] = {}

        def call(policy):
            traces[policy] = folding.fold_all(wedge, policy)
            return traces[policy]

        def render(trace):
            return json.dumps(
                {
                    "folds": trace.num_folds,
                    "records": [(r.kept, r.removed) for r in trace.records],
                    "terminal": graphs.format_graph(trace.terminal),
                }
            )

        def verify(trace):
            other = traces.get("least")
            if not graphs.is_rose(trace.terminal):
                return "terminal is not the rose"
            if other is None or not graphs.isomorphic_labeled(other.terminal, trace.terminal):
                return "least and greatest terminals differ"
            return None

        return [
            Job(kind, f"{case}/{policy}", lambda p=policy: call(p), render, verify)
            for policy in ("least", "greatest")
        ]


# ---------------------------------------------------------------------------
# random_words: word statistics, derived presentations and pieces


def _word_stats_verify(out) -> str | None:
    data = payload(out)
    rows = data["samples"]
    if out[0] != 0 or len(rows) != data["config"]["samples"]:
        return "wrong number of sample rows"
    within = sum(1 for r in rows if r["within_bound"]) / len(rows)
    if data["aggregate"]["within_bound"]["fraction"] != within:
        return "aggregate disagrees with its rows"
    return None


class RandomWords(Part):
    name = "random_words"
    why = (
        "long random words: word-stats suffix automata and repeat scans, "
        "relator assembly and piece search; graphs, folding, covers and "
        "complexity idle"
    )
    params = {
        "word_stats": {"rank": 2, "length": 4096, "samples": 5, "jobs": 1},
        "presentation_N": [60, 90, 120],
    }
    # 40 word-stats jobs of 5 samples: the 200-sample acceptance run
    kinds = (
        Kind("wordstats", 64, 40),
        *(Kind(f"build-{N}", 16, 6) for N in (60, 90, 120)),
        Kind("sc-60", 16, 16),
        Kind("sc-90", 16, 4),
        Kind("sc-120", 2, 2),
    )

    def jobs(self, program, cases, state):
        out = []
        for case in cases:
            kind, i = split(case)
            if kind == "wordstats":
                argv = [
                    "word-stats", "--rank", "2", "--length", "4096", "--samples", "5",
                    "--seed", str(i), "--jobs", "1",
                ]
                out.append(cli_job(program, kind, case, argv, verify=_word_stats_verify))
            else:
                command, N = kind.split("-")
                name = "build-presentation" if command == "build" else "sc-check"
                argv = [name, "--rank", "2", "--length", N, "--seed", str(i)]
                out.append(cli_job(program, kind, case, argv))
        return out


# ---------------------------------------------------------------------------
# calculus: c1, the c2 ball and reduction moves on one relator index


INDEX_SEED = 20260808 + 4  # the acceptance #9 index
REL_LEN = 60
PATTERN_LEN = 18
REDUCE_THRESHOLDS = {"long_factor_fraction": 0.3, "zero_fraction": 0.85}
ORACLE_PREFIX = 40


def index_relators() -> list[tuple[int, ...]]:
    rng = random.Random(INDEX_SEED)
    return [cyclically_reduced(rng, RANK, REL_LEN) for _ in range(2)]


def chunk_word(rng: random.Random, relators, length: int) -> tuple[int, ...]:
    """Concatenated relator-power chunks of 20-60 letters, cut to
    ``length``: a word of c1 about length / 40."""
    cur: list[int] = []
    while len(cur) < length:
        base = relators[rng.randrange(2)]
        if rng.random() < 0.5:
            base = inverse(base)
        off = rng.randrange(REL_LEN)
        chunk = (base * 3)[off : off + rng.randrange(20, 61)]
        if cur and cur[-1] == -chunk[0]:
            continue
        cur.extend(chunk)
    return tuple(cur[:length])


def planted_instance(rng: random.Random, relators):
    """A pattern inside a planted near-whole relator block: the move must
    strictly decrease complexity at depth 0."""
    while True:
        rel = relators[rng.randrange(2)]
        off = rng.randrange(REL_LEN)
        rot = rel[off:] + rel[:off]
        planted = rot[:55]
        i0 = rng.randrange(5, 55 - PATTERN_LEN - 5)
        pattern = planted[i0 : i0 + PATTERN_LEN]
        cut = (off + i0) % REL_LEN
        replacement = inverse((rel[cut:] + rel[:cut])[PATTERN_LEN:])
        letters = reduced_letters(rng, RANK, 5) + planted + reduced_letters(rng, RANK, 5)
        if is_reduced(letters):
            return letters, pattern, replacement, [(5 + i0, 1)]


def free_instance(rng: random.Random, relators):
    """Pattern occurrences planted in mixed filler (random words and
    relator chunks): the move must never increase complexity at depth 0."""
    while True:
        base = relators[rng.randrange(2)]
        if rng.random() < 0.5:
            base = inverse(base)
        off = rng.randrange(REL_LEN)
        rot = base[off:] + base[:off]
        pattern, replacement = rot[:PATTERN_LEN], inverse(rot[PATTERN_LEN:])
        cur: list[int] = []

        def filler():
            if rng.random() < 0.5:
                cur.extend(reduced_letters(rng, RANK, rng.randrange(0, 25)))
            else:
                b2 = relators[rng.randrange(2)]
                if rng.random() < 0.5:
                    b2 = inverse(b2)
                o2 = rng.randrange(REL_LEN)
                cur.extend((b2 * 2)[o2 : o2 + rng.randrange(5, 30)])

        filler()
        occurrences = []
        for _ in range(rng.randrange(1, 3)):
            sign = rng.choice((1, -1))
            chunk = pattern if sign > 0 else inverse(pattern)
            while cur and cur[-1] == -chunk[0]:
                cur.pop()
            occurrences.append((len(cur), sign))
            cur.extend(chunk)
            filler()
        letters = tuple(cur)
        if not is_reduced(letters):
            continue
        if all(
            letters[p : p + PATTERN_LEN] == (pattern if s > 0 else inverse(pattern))
            for p, s in occurrences
        ):
            return letters, pattern, replacement, occurrences


class Calculus(Part):
    name = "calculus"
    why = (
        "c1, the c2 ball and reduce moves on one relator index: Word "
        "re-validation and ball exploration (ROADMAP item 4); graphs and "
        "covers idle"
    )
    #: complexity kind -> word length and depths
    words = {
        "cx-ref": {"length": 410, "depths": [0, 1, 2]},
        "cx-100": {"length": 100, "depths": [0, 1, 2]},
        "cx-200": {"length": 200, "depths": [1]},
        "cx-200-all": {"length": 200, "depths": [0, 1, 2]},
        "cx-410": {"length": 410, "depths": [0, 1]},
    }
    params = {
        "relators": {"count": 2, "length": REL_LEN, "seed": INDEX_SEED},
        "words": words,
        "reduce": {"pattern_length": PATTERN_LEN, "thresholds": REDUCE_THRESHOLDS, "depths": [0, 1]},
        "oracle_prefix": ORACLE_PREFIX,
    }
    kinds = (
        Kind("cx-ref", 1, 1),
        Kind("cx-100", 32, 6),
        Kind("cx-200", 40, 27),
        Kind("cx-200-all", 3, 3),
        Kind("cx-410", 16, 16),
        Kind("reduce-planted", 64, 4),
        Kind("reduce-free", 6, 6),
    )

    def prepare(self, cases):
        """Relator text, and per case a word or a reduce instance as text."""
        relators = index_relators()
        raw = {}
        for case in cases:
            kind, _ = split(case)
            rng = case_rng(case)
            if kind.startswith("cx"):
                raw[case] = text(chunk_word(rng, relators, self.words[kind]["length"]))
            else:
                maker = planted_instance if kind == "reduce-planted" else free_instance
                letters, pattern, replacement, occurrences = maker(rng, relators)
                raw[case] = (text(letters), text(pattern), text(replacement), occurrences)
        return [text(r) for r in relators], raw

    def setup(self, raw):
        words = importlib.import_module("rosefold.words")
        cx = importlib.import_module("rosefold.complexity")
        relator_texts, cases = raw
        idx = cx.UWordIndex([words.parse_word(r, RANK) for r in relator_texts])
        parsed = {}
        for case, data in cases.items():
            if case.startswith("cx"):
                parsed[case] = words.parse_word(data, RANK)
            else:
                *texts, occurrences = data
                parsed[case] = (*(words.parse_word(t, RANK) for t in texts), occurrences)
        return idx, parsed

    def jobs(self, program, cases, state):
        cx = importlib.import_module("rosefold.complexity")
        idx, parsed = state
        out = []
        for case in cases:
            kind, _ = split(case)
            if kind.startswith("cx"):
                w = parsed[case]
                for depth in self.words[kind]["depths"]:
                    verify = None
                    if kind == "cx-100" and depth == 0:
                        verify = self._c1_oracle(cx, idx, w)
                    out.append(
                        Job(kind, f"{case}/d{depth}",
                            lambda w=w, d=depth: self._complexity(cx, idx, w, d),
                            render=str, verify=verify)
                    )
            else:
                for depth in self.params["reduce"]["depths"]:
                    verify = None
                    if depth == 0:
                        allowed = ("decreased",) if kind == "reduce-planted" else ("decreased", "equal")
                        verify = lambda o, a=allowed: (
                            None if json.loads(o)["relation"] in a
                            else f"relation {json.loads(o)['relation']} not in {a}"
                        )
                    out.append(
                        Job(kind, f"{case}/d{depth}",
                            lambda a=parsed[case], d=depth: self._reduce(cx, idx, *a, d),
                            render=str, verify=verify)
                    )
        return out

    @staticmethod
    def _complexity(cx, idx, w, depth) -> str:
        """The ``complexity`` CLI payload, on the shared index."""
        thresholds = cx.Thresholds()
        value = cx.complexity(w, idx, thresholds, depth)
        _, seg = cx.c1(w, idx)
        return json.dumps(
            {**value.to_dict(), "thresholds": thresholds.__dict__, "segmentation": seg.to_dict()},
            default=str,
        )

    @staticmethod
    def _reduce(cx, idx, w, pattern, replacement, occurrences, depth) -> str:
        """The ``reduce`` CLI payload for designated occurrences."""
        outcome = cx.reduction_move(
            w, pattern, replacement, idx, occurrences, cx.Thresholds(**REDUCE_THRESHOLDS), depth
        )
        return json.dumps(
            {"pattern": str(pattern), "replacement": str(replacement), **outcome.to_dict()},
            default=str,
        )

    @staticmethod
    def _c1_oracle(cx, idx, w) -> Callable[[str], str | None]:
        """c1 of the word and of its prefix must equal the program's
        exhaustive search, ``brute_force_c1``."""

        def verify(out: str) -> str | None:
            prefix = w.subword(0, ORACLE_PREFIX)
            for name, got, word in (
                ("c1", json.loads(out)["c1"], w),
                ("prefix c1", cx.c1(prefix, idx)[0], prefix),
            ):
                want = cx.brute_force_c1(word, idx)
                if got != want:
                    return f"{name} {got} != brute_force_c1 {want}"
            return None

        return verify


# ---------------------------------------------------------------------------
# workloads: mixes of parts


class Mix:
    """A workload: the jobs of several parts in one batch.  Kind names
    are unique across parts, so a case names its part."""

    def __init__(self, name: str, why: str, parts: tuple[Part, ...]):
        self.name, self.why, self.parts = name, why, parts
        self.kinds = tuple(kind for part in parts for kind in part.kinds)
        self._part_of = {kind.name: part for part in parts for kind in part.kinds}

    def _split(self, cases: list[str]) -> dict[str, list[str]]:
        by_part: dict[str, list[str]] = {part.name: [] for part in self.parts}
        for case in cases:
            by_part[self._part_of[split(case)[0]].name].append(case)
        return by_part

    def config(self) -> dict:
        return {"parts": {part.name: {"why": part.why, **part.config()} for part in self.parts}}

    def expected(self, table: dict[str, dict[str, str]]) -> dict[str, str]:
        """Reference digests of every case of the mix, from the parts'
        sections of ``expected.json``."""
        return {case: d for part in self.parts for case, d in table[part.name].items()}

    def prepare(self, cases: list[str]) -> dict:
        by_part = self._split(cases)
        return {part.name: part.prepare(by_part[part.name]) for part in self.parts}

    def setup(self, raw: dict) -> dict:
        return {part.name: part.setup(raw[part.name]) for part in self.parts}

    def jobs(self, program, cases: list[str], state: dict) -> list[Job]:
        by_part = self._split(cases)
        return [
            job
            for part in self.parts
            for job in part.jobs(program, by_part[part.name], state[part.name])
        ]


PARTS: dict[str, Part] = {p.name: p for p in (Survey(), Fold(), RandomWords(), Calculus())}

WORKLOADS: dict[str, Mix] = {
    w.name: w
    for w in (
        Mix(
            "graphs",
            "many tiny unbased graphs (verify-covers, alpha-injectivity) and few "
            "large based graphs (fold stages, fold_to_delta, fold_all, surgery); "
            "string search and complexity idle",
            (PARTS["survey"], PARTS["fold"]),
        ),
        # the median job lies among word-stats, 200-letter complexity and
        # N = 120 builds; the tail job among 410-letter complexity at depth
        # 1 and sc-check at N = 90
        Mix(
            "strings",
            "long random words (word-stats, presentations, piece search) and the "
            "c1/c2 calculus on one relator index; graphs, folding and covers idle",
            (PARTS["random_words"], PARTS["calculus"]),
        ),
    )
}
