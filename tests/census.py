"""A mutant census: every mutant of a few kinds in one module of
``src/rosefold``, run against the test files given for it.

Usage, from the root of the repository (standard library and pytest):

    python tests/census.py MODULE TEST_FILE ...

for example ``python tests/census.py folding.py tests/test_folding.py``.
The census makes one mutant for each

- comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``;
- ``+ 1`` or ``- 1`` made ``+ 2`` or ``- 2``, in a binary operation or an
  augmented assignment;
- boolean operation with its ``and`` and ``or`` swapped.

It edits the source text at the operator and checks that the edited
module parses to the intended tree.  It runs the test files once on an
unedited copy of ``src`` (they must pass), then once per mutant on a
fresh copy, with ``pytest -x`` and a per-mutant timeout of three times
the unedited run plus 30 s; the copy and the pytest run are those of
``tests/mutants.py``.  A mutant is
killed when some test fails or errs, times out when the run outlives the
timeout, and survives when every test passes.  Timeouts are reported as
such, not counted as killed.  Each survivor is printed with its line and
edit, and with its reason when ``EQUIVALENT`` lists it.  The script exits
1 on a survivor that ``EQUIVALENT`` does not list, on a timeout, on an
``EQUIVALENT`` entry of the module that was killed or not generated, and
on an entry that matches another number of survivors than the number of
sites it states.

A survivor is a test gap until shown otherwise: kill it with a test and
record it in ``tests/mutants.py``, or list it here with the reason it
cannot change any output.  A module takes minutes, so neither tier-1
nor CI runs this script; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from mutants import ROOT, copy_src, failed_ids

# (module, its lines that the edit spans, the same lines edited), each
# with runs of whitespace read as one space: (sites, reason), the number of
# surviving mutants that the key matches and why they are equivalent.  Lines
# that read alike share a key, so its count says how many the reason covers
EQUIVALENT = {
    (
        "folding.py",
        "tokens.append(new_id if token > 0 else -new_id)",
        "tokens.append(new_id if token >= 0 else -new_id)",
    ): (1, "a token is never 0"),
    (
        "folding.py",
        "names = {i: str(i) for i in range(-1, max(t.rank, wedge.num_vertices, wedge.num_edges) + 1)}",
        "names = {i: str(i) for i in range(-1, max(t.rank, wedge.num_vertices, wedge.num_edges) + 2)}",
    ): (1, "one more name in the table, which no key token reads"),
    (
        "folding.py",
        "v - sum(u < v for u in interior) for v in (g.alpha(tokens[0]), g.omega(tokens[-1]))",
        "v - sum(u <= v for u in interior) for v in (g.alpha(tokens[0]), g.omega(tokens[-1]))",
    ): (1, "the endpoints are not interior vertices, so u != v"),
    (
        "folding.py",
        "for s, toks in enumerate(slots[root * width : (root + 1) * width], root * width):",
        "for s, toks in enumerate(slots[root * width : (root + 2) * width], root * width):",
    ): (1, "pushes the next vertex's slots too: a foldable slot is in the heap already and the "
        "stale check skips the rest, so only the work grows"),
    (
        "presentations.py",
        "blocks.append(signed[j][letter < 0])",
        "blocks.append(signed[j][letter <= 0])",
    ): (1, "a letter is never 0"),
    (
        "presentations.py",
        "while stack and lo < hi:",
        "while stack and lo <= hi:",
    ): (1, "a stack interval is never empty, so a pass with lo == hi breaks at once"),
    (
        "presentations.py",
        "while total >= 2 and stack[first][1][stack[first][2]] == -stack[last][1][stack[last][3] - 1]:",
        "while total > 2 and stack[first][1][stack[first][2]] == -stack[last][1][stack[last][3] - 1]:",
    ): (1, "two letters left are adjacent in a freely reduced word, so they never cancel cyclically"),
    (
        "presentations.py",
        "if last >= first and stack[last][2] == stack[last][3]:",
        "if last > first and stack[last][2] == stack[last][3]:",
    ): (1, "at last == first that interval holds every letter left, so emptying it leaves an empty, "
        "degenerate relator, whose spans are not read"),
    (
        "presentations.py",
        "sign = 1 if letter > 0 else -1",
        "sign = 1 if letter >= 0 else -1",
    ): (1, "a letter is never 0"),
    (
        "presentations.py",
        "if site.sign < 0:",
        "if site.sign <= 0:",
    ): (1, "a site's sign is 1 or -1"),
    (
        "presentations.py",
        "skip = off - lo if site.sign > 0 else p.length - off - n_prime - lo",
        "skip = off - lo if site.sign >= 0 else p.length - off - n_prime - lo",
    ): (1, "a site's sign is 1 or -1"),
    (
        "presentations.py",
        "long_texts = [(t, d, lengths[owner[t]]) for t, d in enumerate(texts) if lengths[owner[t]] >= seed]",
        "long_texts = [(t, d, lengths[owner[t]]) for t, d in enumerate(texts) if lengths[owner[t]] > seed]",
    ): (1, "a relator of exactly the seed length caps its pairs below the seed, where the bisection "
        "settles them, and the longer relators' seed windows follow two distinct letters without it"),
    (
        "presentations.py",
        "plain = {d[o - 1 : o + seed] for t, d, L in long_texts if t % 2 == 0 for o in range(1, L + 1)}",
        "plain = {d[o - 1 : o + seed] for t, d, L in long_texts if t % 2 != 0 for o in range(1, L + 1)}",
    ): (1, "the inverse texts' windows and their inverses are the same set as the plain texts' and theirs"),
    (
        "presentations.py",
        "key = (i, j) if i <= j else (j, i)",
        "key = (i, j) if i < j else (j, i)",
    ): (1, "at i == j both give (i, i)"),
    (
        "presentations.py",
        "if known >= limit:",
        "if known > limit:",
    ): (2, "(lines 367 and 376) best never passes its cap, and at the cap the member loop's check "
        "breaks, or an extension starting at the cap returns it: only the work grows"),
    (
        "presentations.py",
        "if known >= seed:",
        "if known > seed:",
    ): (1, "at known == seed each member gets the same one-letter comparison in the member loop: "
        "only the work grows"),
    (
        "presentations.py",
        "mid = (lo + hi + 1) // 2",
        "mid = (lo + hi + 2) // 2",
    ): (1, "mid stays in (lo, hi], so the bisection still ends at the longest shared window"),
    (
        "words.py",
        "return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]",
        "return len(self.letters) <= 2 or self.letters[0] != -self.letters[-1]",
    ): (1, "a reduced two-letter word never ends in the inverse of its first letter"),
    (
        "words.py",
        "while hi <= n and least * hi in d:",
        "while hi < n and least * hi in d:",
    ): (1, "the loops part only at hi == n, where a run of n least letters is a one-letter word, "
        "whose blocks still give start 0 (every word of length <= 8 over two generators checked)"),
    (
        "words.py",
        "hi = min(hi, n + 1)",
        "hi = min(hi, n + 2)",
    ): (1, "only a one-letter word has a run of n + 1 least letters in the word read twice, and its "
        "blocks still give start 0 (every word of length <= 8 over two generators checked)"),
    (
        "words.py",
        "while i < n and j < n and k < n:",
        "while i <= n and j < n and k < n:",
    ): (1, "start n is start 0, which the scan has ruled out, so it never rules out j"),
    (
        "words.py",
        "while i < n and j < n and k < n:",
        "while i < n and j <= n and k < n:",
    ): (1, "start n is start 0, which the scan has ruled out, so it never rules out i"),
    (
        "words.py",
        "while i < n and j < n and k < n:",
        "while i < n and j < n and k <= n:",
    ): (1, "at k == n the two rotations are equal, so k passes n and the scan returns the same start"),
    (
        "words.py",
        "if a > b:",
        "if a >= b:",
    ): (1, "a == b continues the loop before this line"),
    (
        "words.py",
        "while len(letters) - 2 * m >= 2 and letters[m] == -letters[-1 - m]:",
        "while len(letters) - 2 * m > 2 and letters[m] == -letters[-1 - m]:",
    ): (1, "two letters left are adjacent in a reduced word, so they never cancel"),
    (
        "words.py",
        "alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]",
        "alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 2)]",
    ): (1, "the extra entry is last in the alphabet and in every successor list, and no draw reaches "
        "the last entry of either"),
    (
        "words.py",
        "letters.extend(replacement.letters if sign > 0 else inverse)",
        "letters.extend(replacement.letters if sign >= 0 else inverse)",
    ): (1, "a hit's sign is 1 or -1"),
    (
        "words.py",
        "return f\"a{letter}\" if letter > 0 else f\"a{-letter}^-1\"",
        "return f\"a{letter}\" if letter >= 0 else f\"a{-letter}^-1\"",
    ): (1, "a letter is never 0"),
    (
        "strsearch.py",
        "_INDEX = _Table(lambda token: 2 * abs(token) - 2 + (token < 0))",
        "_INDEX = _Table(lambda token: 2 * abs(token) - 2 + (token <= 0))",
    ): (1, "a letter or edge token is never 0"),
    (
        "strsearch.py",
        "chars.find(t, end) if 0 <= at < end else at",
        "chars.find(t, end) if 0 <= at <= end else at",
    ): (1, "an occurrence that starts at end is found again by the find from end, so only the work grows"),
}

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
WORDS = {ast.And: "and", ast.Or: "or"}


@dataclass(frozen=True)
class Mutant:
    line: int  # the first line the edit spans
    label: str  # the edit, as "< -> <="
    before: str  # the spanned lines, whitespace runs read as one space
    after: str
    text: str  # the whole mutated module


def _one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 1


def _sites(tree: ast.Module):
    """Per mutation site, in ``ast.walk`` order: the node's walk index,
    a function that makes the mutation on that node of a fresh tree, the
    edit's label, and the (start node, end node) whose gap holds the
    operator, or the constant node itself."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    left = node.left if k == 0 else node.comparators[k - 1]

                    def flip(n, k=k, new=FLIPS[type(op)]):
                        n.ops[k] = new()

                    old, new = SYMBOLS[type(op)], SYMBOLS[FLIPS[type(op)]]
                    yield index, flip, f"{old} -> {new}", [(left, node.comparators[k], old, new)]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sign = "+" if isinstance(node.op, ast.Add) else "-"
            for side in ("left", "right"):
                if _one(getattr(node, side)):

                    def two(n, side=side):
                        setattr(n, side, ast.Constant(2))

                    yield index, two, f"{sign} 1 -> {sign} 2", [(getattr(node, side), None, "1", "2")]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)) and _one(node.value):
            sign = "+" if isinstance(node.op, ast.Add) else "-"

            def two(n):
                n.value = ast.Constant(2)

            yield index, two, f"{sign}= 1 -> {sign}= 2", [(node.value, None, "1", "2")]
        elif isinstance(node, ast.BoolOp):
            old, new = WORDS[type(node.op)], WORDS[SWAPS[type(node.op)]]

            def swap(n, new=SWAPS[type(node.op)]):
                n.op = new()

            yield index, swap, f"{old} -> {new}", [(a, b, old, new) for a, b in zip(node.values, node.values[1:])]


class _Flatten(ast.NodeTransformer):
    """Read ``a or (b or c)`` as ``a or b or c``: swapping ``and`` and
    ``or`` in text can merge a boolean operation into its parent, which
    changes the tree but not what it computes."""

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        values = []
        for v in node.values:
            values += v.values if isinstance(v, ast.BoolOp) and type(v.op) is type(node.op) else [v]
        node.values = values
        return node


def _dump(tree: ast.AST) -> str:
    return ast.dump(_Flatten().visit(tree))


def mutants(source: str) -> list[Mutant]:
    """Every census mutant of ``source``, in ``ast.walk`` order."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    def spanned(text: bytes, first: int, last: int) -> str:
        lines = text.decode().splitlines()[first - 1 : last]
        return " ".join(" ".join(lines).split())

    out = []
    for index, mutate, label, edits in _sites(ast.parse(source)):
        text = data
        # right to left, so that earlier offsets stay valid
        for a, b, old, new in reversed(edits):
            if b is None:
                lo, hi = offset(a.lineno, a.col_offset), offset(a.end_lineno, a.end_col_offset)
                if text[lo:hi] != old.encode():
                    raise ValueError(f"line {a.lineno}: {text[lo:hi]!r} is not {old!r}")
            else:
                gap_lo, gap_hi = offset(a.end_lineno, a.end_col_offset), offset(b.lineno, b.col_offset)
                # the gap between two operands holds only the operator,
                # brackets, blanks and comments
                gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), text[gap_lo:gap_hi])
                found = re.search(rb"\b(and|or)\b|<=|>=|==|!=|<|>", gap)
                if found is None or found.group().decode() != old:
                    raise ValueError(f"line {a.lineno}: no {old!r} between the operands")
                lo, hi = gap_lo + found.start(), gap_lo + found.end()
            text = text[:lo] + new.encode() + text[hi:]
        first = edits[0][0]
        last = edits[-1][1] or edits[-1][0]
        expected = ast.parse(source)
        mutate(list(ast.walk(expected))[index])
        mutated = text.decode()
        if _dump(ast.parse(mutated)) != _dump(expected):
            raise ValueError(f"line {first.lineno}: the edit {label} does not give the intended tree")
        line_lo, line_hi = first.lineno, last.end_lineno
        out.append(Mutant(line_lo, label, spanned(data, line_lo, line_hi), spanned(text, line_lo, line_hi), mutated))
    return out


def run_tests(src: Path, tests: list[str], scratch: Path, timeout: float | None) -> str:
    """Run ``tests`` with ``-x`` against the package under ``src``:
    "killed", "survived" or "timeout"."""
    try:
        _, proc = failed_ids(src, tests, scratch, first_failure=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", help="a file of src/rosefold, such as folding.py")
    p.add_argument("tests", nargs="+", help="test files, from the repository root")
    args = p.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # progress shows in a log
    source = (ROOT / "src" / "rosefold" / args.module).read_text()
    found = mutants(source)
    counts = {"killed": 0, "survived": 0, "timeout": 0, "equivalent": 0}
    listed = {key: entry for key, entry in EQUIVALENT.items() if key[0] == args.module}
    seen, matched = set(), Counter()
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rosefold-census-") as tmp:
        scratch = Path(tmp)
        t0 = time.perf_counter()
        if run_tests(copy_src(scratch / "base"), args.tests, scratch, None) != "survived":
            print("baseline: the tests do not all pass on the unedited source")
            return 1
        timeout = 3 * (time.perf_counter() - t0) + 30
        print(f"{len(found)} mutants of {args.module}; baseline {time.perf_counter() - t0:.0f} s, timeout {timeout:.0f} s")
        for n, m in enumerate(found):
            src = copy_src(scratch / f"m{n}")
            (src / "rosefold" / args.module).write_text(m.text)
            status = run_tests(src, args.tests, scratch, timeout)
            shutil.rmtree(src.parent)
            counts[status] += 1
            key = (args.module, m.before, m.after)
            seen.add(key)
            _, reason = listed.get(key, (0, None))
            if status == "killed":
                if reason is not None:
                    print(f"LISTED    {args.module}:{m.line} {m.label} is killed; drop it from EQUIVALENT")
                    bad += 1
                continue
            if status == "survived" and reason is not None:
                counts["equivalent"] += 1
                matched[key] += 1
                print(f"EQUIV     {args.module}:{m.line} {m.label}: {m.after}  ({reason})")
                continue
            print(f"{status.upper():9} {args.module}:{m.line} {m.label}: {m.after}")
            bad += 1
    for key in listed.keys() - seen:
        print(f"STALE     EQUIVALENT lists an edit the census no longer makes: {key[2]}")
        bad += 1
    for key in listed.keys() & seen:
        if matched[key] != listed[key][0]:
            print(f"SITES     EQUIVALENT states {listed[key][0]} sites of {key[2]}, {matched[key]} survived")
            bad += 1
    print(
        f"{len(found)} mutants: {counts['killed']} killed, {counts['survived']} survived "
        f"({counts['equivalent']} listed as equivalent), "
        f"{counts['timeout']} timed out, in {time.perf_counter() - start:.0f} s"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
