"""Batch command-line front end.

Every subcommand echoes its full configuration (defaults and seed
included) into the output header, writes JSON or CSV to stdout or
--out, and uses the exit-code contract: 0 success, 1 verification
failure (with a machine-readable report), 2 usage error.  Every usage
error prints ``{"error": ...}`` on stdout instead of a traceback: one
caught by argument parsing (a value out of range, an unknown choice, a
missing flag) also prints argparse's usage line on stderr, and bad input
found later (an unreadable file, a letter outside the rank, a rank or
cap the library rejects) prints the error alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complexity as cxmod
from . import covers, folding, surgery, words

# genericity and presentations are imported by the commands that run them,
# so that a run compiles only the modules its command calls.  surgery stays
# here: perfbench/test_harness.py requires a batch of surgery-demo jobs to
# import no module that its set-up did not


def _print_error(message: str) -> None:
    sys.stdout.write(json.dumps({"error": message}, indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    """Parse errors print the JSON error too (usage stays on stderr)."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        _print_error(f"{self.prog}: {message}")
        sys.exit(2)


def _emit(payload: dict | str, args: argparse.Namespace) -> None:
    """Write a payload as JSON or CSV per --format, or text a command
    rendered itself as it is, to --out or stdout."""
    if isinstance(payload, str):
        text = payload
    elif args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    lines = [f"# {key}={value}" for key, value in payload["config"].items()]
    rows = payload.get("samples") or []
    if rows:
        lines.append("sample,metric,value")
        for row in rows:
            for key, value in row.items():
                if key != "sample":
                    lines.append(f"{row['sample']},{key},{value}")
    lines += [
        f"# {key}={json.dumps(value, default=str)}"
        for key, value in payload.items() if key not in ("config", "samples")
    ]
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _fraction(text: str) -> float:
    """A finite number from 0 to 1; NaN and infinities would reach the
    JSON output as tokens that JSON does not have."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number from 0 to 1")
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    """Every flag the subcommand declares but the output flags, in
    declaration order, which the parsed namespace keeps.  A list option's
    default is a tuple, so that the shared parser holds nothing a call
    could change; it is echoed as a given list is."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in vars(args).items()
        if name not in ("command", "func", "out", "format")
    }


def _read_words_json(path: str, *families: str) -> tuple[int, list[list[words.Word]]]:
    """Read ``{"rank": n, family: [word text, ...], ...}`` from a JSON file
    and parse every family's words at rank n."""
    with open(path) as fh:
        data = json.load(fh)
    rank = data.get("rank") if isinstance(data, dict) else None
    if type(rank) is not int or rank < 1:
        raise ValueError(f"{path}: expected a JSON object with a positive integer rank")
    parsed = []
    for family in families:
        texts = data.get(family)
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError(f"{path}: {family!r} must be a list of word strings")
        parsed.append([words.parse_word(t, rank) for t in texts])
    return rank, parsed


def _parse_tuple(args: argparse.Namespace) -> words.GenTuple:
    if args.tuple_json:
        rank, (entries,) = _read_words_json(args.tuple_json, "words")
        return words.GenTuple(rank, tuple(entries))
    entries = tuple(words.parse_word(s, args.rank) for s in args.words)
    return words.GenTuple(args.rank, entries)


def cmd_fold(args: argparse.Namespace) -> tuple[dict, int]:
    return folding.fold_report(_parse_tuple(args), args.policy, args.dump_stages), 0


def cmd_verify_covers(args: argparse.Namespace) -> tuple[dict, int]:
    report = covers.survey_two_cover_characterization(
        args.rank, args.max_edges, args.max_path_len, args.max_candidates
    )
    return report.to_dict(), 1 if report.violations else 0


def cmd_word_stats(args: argparse.Namespace) -> tuple[dict, int]:
    from . import genericity

    cfg = genericity.SampleConfig(
        rank=args.rank, length=args.length, samples=args.samples, seed=args.seed
    )
    # a fork-started pool starts every worker at once: ask for no more than
    # the cores
    workers = min(args.jobs, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            report = genericity.word_stats_experiment(cfg, args.epsilon, pool)
    else:
        report = genericity.word_stats_experiment(cfg, args.epsilon)
    # the bound follows the echoed flags in the config
    bound = {"bound": report.config["bound"]}
    return {"config": bound, "samples": report.rows, "aggregate": report.aggregate}, 0


def cmd_alpha_injectivity(args: argparse.Namespace) -> tuple[dict, int]:
    from . import genericity

    cfg = genericity.SampleConfig(
        rank=args.rank, length=args.length, samples=args.samples, seed=args.seed
    )
    report = genericity.alpha_injectivity_experiment(
        cfg, alpha_target=args.alpha, max_edges=args.max_edges
    )
    return {"samples": report.rows, "aggregate": report.aggregate}, 0


def cmd_build_presentation(args: argparse.Namespace) -> tuple[dict, int]:
    from . import presentations

    p, rejects = presentations.sample_presentation(
        args.rank, args.length, args.seed, args.attempts
    )
    return {"rejections": rejects, **p.to_dict()}, 0


def cmd_sc_check(args: argparse.Namespace) -> tuple[dict | str, int]:
    from . import presentations

    if args.presentation:
        _, (v, u) = _read_words_json(args.presentation, "v", "u")
        p = presentations.build_relators(v, u)
    else:
        p, _ = presentations.sample_presentation(args.rank, args.length, args.seed)
    report = presentations.piece_report(p.relators)
    satisfies = report.satisfies(args.lam)
    code = 0 if satisfies else 1
    if args.format == "json":
        return {**report.to_dict(), "satisfies": satisfies}, code
    lines = [f"# {k}={v}" for k, v in _config_echo(args).items()]
    lines += [
        f"# max_piece_length={report.max_piece_length}",
        f"# min_relator_length={report.min_relator_length}",
        f"# lambda_value={report.lambda_value}",
        f"# satisfies={satisfies}",
        "relator_i,relator_j,max_piece",
    ]
    lines += [f"{i},{j},{value}" for (i, j), value in sorted(report.pair_table.items())]
    return "\n".join(lines) + "\n", code


def _relators_and_word(args: argparse.Namespace) -> tuple[cxmod.UWordIndex, words.Word]:
    rels = [words.parse_word(s, args.rank) for s in args.relators]
    return cxmod.UWordIndex(rels), words.parse_word(args.word, args.rank)


def cmd_complexity(args: argparse.Namespace) -> tuple[dict, int]:
    idx, w = _relators_and_word(args)
    return cxmod.complexity_report(w, idx, args.depth), 0


def _relator_rotation(spec: str, idx: cxmod.UWordIndex) -> tuple[int, int, int, int]:
    """Parse ``rel:sign:offset:length``: an existing relator, a sign of 1 or
    -1, an offset inside the relator and a length from 1 to its length
    (an empty pattern has no disjoint occurrences to replace)."""
    try:
        rel, sign, offset, length = map(int, spec.split(":"))
    except ValueError:  # a field that is no integer, or not four fields
        raise ValueError(
            f"--relator-rotation {spec!r} is not rel:sign:offset:length in integers"
        ) from None
    if not 0 <= rel < len(idx.relators):
        raise ValueError(
            f"--relator-rotation names relator {rel}, but the relator indices "
            f"are 0..{len(idx.relators) - 1}"
        )
    if sign not in (1, -1):
        raise ValueError(f"--relator-rotation sign must be 1 or -1, not {sign}")
    size = len(idx.relators[rel])
    if not (0 <= offset < size and 1 <= length <= size):
        raise ValueError(
            f"--relator-rotation needs 0 <= offset < {size} and 1 <= length <= {size} "
            f"for relator {rel}, got offset {offset} and length {length}"
        )
    return rel, sign, offset, length


def cmd_reduce(args: argparse.Namespace) -> tuple[dict, int]:
    idx, w = _relators_and_word(args)
    rel, sign, offset, length = _relator_rotation(args.relator_rotation, idx)
    pattern = idx.rotation_word(cxmod.UCert(rel, sign, offset, 1)).subword(0, length)
    replacement = idx.u_complement(pattern, cxmod.UCert(rel, sign, offset, 1))
    outcome = cxmod.reduction_move(w, pattern, replacement, idx, None, cxmod.Thresholds(), args.depth)
    return outcome.to_dict(), 0


def cmd_surgery_demo(args: argparse.Namespace) -> tuple[dict, int]:
    report = surgery.surgery_demo(
        rank=args.rank, relator_length=args.relator_length, seed=args.seed, depth=args.depth
    )
    ok = report.refolds_to_rose and report.delta_after_refolds and report.strictly_smaller
    return report.__dict__, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rosefold", description="labeled-graph folding and genericity toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("fold", cmd_fold, "wedge a tuple and fold it")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--words", nargs="*", default=(), help="tuple entries as word text")
    p.add_argument("--tuple-json", dest="tuple_json", default=None)
    p.add_argument("--policy", choices=folding.POLICIES, default="least")
    p.add_argument("--dump-stages", dest="dump_stages", action="store_true")

    p = command(
        "verify-covers", cmd_verify_covers,
        "exhaustively classify small core graphs against the cover characterization",
    )
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--max-edges", dest="max_edges", type=_positive_int, default=6)
    p.add_argument("--max-path-len", dest="max_path_len", type=_nonnegative_int, default=14)
    p.add_argument("--max-candidates", dest="max_candidates", type=_positive_int, default=None)

    p = command("word-stats", cmd_word_stats, "repeated-subword and coverage statistics")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--length", type=_positive_int, default=4096)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=_fraction, default=0.05)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = command("alpha-injectivity", cmd_alpha_injectivity, "injectivity ratios of lifts")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--length", type=_positive_int, default=256)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=_fraction, default=0.9)
    p.add_argument("--max-edges", dest="max_edges", type=_positive_int, default=4)

    p = command("build-presentation", cmd_build_presentation, "sample a two-family presentation")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--length", type=_positive_int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=_positive_int, default=64)

    p = command("sc-check", cmd_sc_check, "piece statistics and the lambda condition")
    p.add_argument("--presentation", default=None, help="presentation JSON path")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--length", type=_positive_int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=_fraction, default=1 / 8)

    p = command("complexity", cmd_complexity, "factor complexity of a word")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--relators", nargs="+", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=_nonnegative_int, default=1)

    p = command("reduce", cmd_reduce, "apply an occurrence-replacement move")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--relators", nargs="+", required=True)
    p.add_argument("--word", required=True)
    p.add_argument(
        "--relator-rotation", dest="relator_rotation", required=True,
        help="rel:sign:offset:length selecting the pattern from a relator rotation",
    )
    p.add_argument("--depth", type=_nonnegative_int, default=1)

    p = command("surgery-demo", cmd_surgery_demo, "end-to-end fold/replace/refold pipeline")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--relator-length", dest="relator_length", type=_positive_int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--depth", type=_nonnegative_int, default=0)

    # the output flags close every subcommand's flags, as they close its --help
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands
    parse, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run a subcommand: it returns its payload without the config echo,
    or text it rendered itself, and its exit code."""
    args = _shared_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        if not isinstance(payload, str):
            # the echo leads; a command's own config entries follow it
            payload = {"config": _config_echo(args) | payload.pop("config", {}), **payload}
        _emit(payload, args)
        return code
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        _print_error(f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
