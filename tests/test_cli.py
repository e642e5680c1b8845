import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import rosefold
from rosefold import genericity
from rosefold.cli import main
from rosefold.complexity import UWordIndex
from test_readme import cli_commands


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFold:
    def test_hand_example(self, capsys):
        code, out = run_cli(
            capsys, "fold", "--rank", "2", "--words", "a1 a2", "a1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terminal_is_rose"] is True
        assert payload["folds"] == 1
        assert payload["config"]["policy"] == "least"

    def test_successive_calls_are_independent(self, capsys, tmp_path):
        # one parser serves every call of a process: no value of one call,
        # given or defaulted, reaches the next
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"rank": 2, "words": ["a1 a2", "a1"]}))
        first = json.loads(run_cli(capsys, "fold", "--words", "a1 a2", "a2")[1])
        second = json.loads(run_cli(capsys, "fold", "--tuple-json", str(path))[1])
        third = json.loads(run_cli(capsys, "fold", "--words", "a1")[1])
        assert first["config"]["words"] == ["a1 a2", "a2"]
        assert second["config"] == {
            "rank": 2, "words": [], "tuple_json": str(path), "policy": "least", "dump_stages": False,
        }
        assert third["config"]["words"] == ["a1"] and third["config"]["tuple_json"] is None
        assert second["terminal"] == first["terminal"] != third["terminal"]

    def test_tuple_json_input(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"rank": 2, "words": ["a1 a2", "a1", "1"]}))
        code, out = run_cli(capsys, "fold", "--tuple-json", str(path))
        assert code == 0
        assert json.loads(out)["terminal_is_rose"] is True

    def test_dump_stages(self, capsys):
        code, out = run_cli(
            capsys, "fold", "--words", "a1 a2", "a1", "--dump-stages"
        )
        payload = json.loads(out)
        assert len(payload["stages"]) == payload["folds"] + 1
        assert len(payload["stage_digests"]) == payload["folds"] + 1

    @pytest.mark.parametrize("policy", ["least", "greatest", "defer_rose"])
    def test_stage_digests_match_oracle(self, capsys, policy):
        # digests and dumps from one replay equal the copying encoder's
        # keys of every stage(k)
        import hashlib
        import random

        from test_graphs import oracle_canonical_key

        from rosefold.folding import fold_all, wedge_of_loops
        from rosefold.graphs import format_graph
        from rosefold.words import GenTuple, Word, format_word, random_reduced_letters

        # two 30-letter words sharing a 15-letter prefix, so that the fold
        # sequence runs along it
        rng = random.Random(30)
        first = random_reduced_letters(rng, 2, 30)
        second = first
        while second[15] in (first[15], -first[14]):
            second = first[:15] + random_reduced_letters(rng, 2, 15)
        t = GenTuple(2, (Word(2, first), Word(2, second)))
        code, out = run_cli(
            capsys, "fold", "--rank", "2", "--policy", policy, "--dump-stages",
            "--words", *(format_word(w) for w in t.entries),
        )
        assert code == 0
        payload = json.loads(out)
        trace = fold_all(wedge_of_loops(t), policy=policy)
        stages = [trace.stage(k).graph for k in range(len(trace.records) + 1)]
        assert payload["stage_digests"] == [
            hashlib.sha256(repr(oracle_canonical_key(g)).encode()).hexdigest()[:16]
            for g in stages
        ]
        assert payload["stages"] == [format_graph(g) for g in stages]

    def test_defer_policy_reports_delta_index(self, capsys):
        code, out = run_cli(
            capsys, "fold", "--words", "a1 a2 a1^-1 a2", "a1", "a2",
            "--policy", "defer_rose",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terminal_is_rose"] is True
        assert payload["delta_index"] is None or payload["delta_index"] >= 0


class TestVerifyCovers:
    def test_small_run_exit_zero(self, capsys):
        code, out = run_cli(
            capsys,
            "verify-covers",
            "--rank", "2",
            "--max-edges", "3",
            "--max-path-len", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["config"]["max_edges"] == 3


class TestWordStats:
    def test_deterministic_output(self, capsys):
        args = (
            "word-stats", "--rank", "2", "--length", "128",
            "--samples", "5", "--seed", "11",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys):
        base = (
            "word-stats", "--rank", "2", "--length", "96",
            "--samples", "6", "--seed", "4",
        )
        _, seq = run_cli(capsys, *base, "--jobs", "1")
        _, par = run_cli(capsys, *base, "--jobs", "2")
        # config echo differs in the jobs field only
        a = json.loads(seq)
        b = json.loads(par)
        assert a["samples"] == b["samples"]
        assert a["aggregate"] == b["aggregate"]

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        started = []

        class RecordingExecutor:
            """Serial stand-in that records the pool size it was asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        # cli imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr("rosefold.cli.os.cpu_count", lambda: 3)
        base = ("word-stats", "--length", "32", "--samples", "2")
        _, out = run_cli(capsys, *base, "--jobs", "100000")
        assert started == [3]
        # the echo keeps the value as given
        assert json.loads(out)["config"]["jobs"] == 100000
        run_cli(capsys, *base, "--jobs", "2")
        assert started == [3, 2]
        monkeypatch.setattr("rosefold.cli.os.cpu_count", lambda: None)
        run_cli(capsys, *base, "--jobs", "8")
        assert started == [3, 2]

    def test_rows_and_aggregate_are_the_library_report(self, capsys):
        code, out = run_cli(
            capsys, "word-stats", "--rank", "3", "--length", "200",
            "--samples", "7", "--seed", "5", "--epsilon", "0.1",
        )
        assert code == 0
        payload = json.loads(out)
        cfg = genericity.SampleConfig(rank=3, length=200, samples=7, seed=5)
        report = genericity.word_stats_experiment(cfg, 0.1)
        assert payload["samples"] == report.rows
        assert payload["aggregate"] == report.aggregate
        assert payload["config"]["bound"] == report.config["bound"]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "word-stats", "--length", "64", "--samples", "2",
            "--seed", "1", "--format", "csv",
        )
        assert code == 0
        assert "# seed=1" in out
        assert "sample,metric,value" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "stats.json"
        code, _ = run_cli(
            capsys, "word-stats", "--length", "64", "--samples", "2",
            "--seed", "1", "--out", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["config"]["seed"] == 1

    def test_serial_run_imports_no_pool(self):
        # only --jobs > 1 needs a process pool; importing the CLI and a
        # --jobs 1 run leave multiprocessing unloaded
        code = (
            "import contextlib, io, sys\n"
            "from rosefold.cli import main\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "loaded = [m for m in pool if m in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['word-stats', '--length', '32', '--samples', '2', '--jobs', '1'])\n"
            "print(loaded, [m for m in pool if m in sys.modules])\n"
        )
        src = Path(rosefold.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[] []"


#: The modules every run of ``python -m rosefold`` imports: the package
#: namespace's and the CLI's own (``__main__.py`` runs as ``__main__``).
BASE_MODULES = {
    "rosefold", "rosefold.cli", "rosefold.words", "rosefold.strsearch", "rosefold.graphs",
    "rosefold.folding", "rosefold.covers", "rosefold.complexity", "rosefold.surgery",
}


@pytest.mark.parametrize(
    "argv, code, extra",
    [
        (["fold", "--words", "a1 a2", "a1"], 0, set()),
        (["verify-covers", "--max-edges", "2", "--max-path-len", "4"], 0, set()),
        (["word-stats", "--length", "32", "--samples", "2"], 0, {"genericity"}),
        (["alpha-injectivity", "--length", "16", "--samples", "2", "--max-edges", "2"], 0, {"genericity"}),
        (["build-presentation", "--length", "12", "--seed", "2"], 0, {"presentations"}),
        (["sc-check", "--length", "12", "--seed", "2"], 1, {"presentations"}),
        (["complexity", "--relators", "a1 a2 a1^-1 a2^-1", "--word", "a1 a2", "--depth", "0"], 0, set()),
        (["reduce", "--relators", "a1 a2 a1^-1 a2^-1", "--word", "a1 a2", "--relator-rotation", "0:1:0:2",
          "--depth", "0"], 0, set()),
        (["surgery-demo", "--relator-length", "12"], 0, set()),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_command_loads_only_the_modules_it_runs(argv, code, extra):
    # ``-X importtime`` names every module a process imports, on stderr;
    # genericity and presentations load only with their commands
    src = Path(rosefold.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rosefold", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["config"]
    loaded = set(re.findall(r"\|\s*(rosefold(?:\.\w+)?)\s*$", proc.stderr, re.M))
    assert loaded == BASE_MODULES | {f"rosefold.{name}" for name in extra}


class TestPresentationCommands:
    def test_build_presentation(self, capsys):
        code, out = run_cli(
            capsys, "build-presentation", "--rank", "2", "--length", "12",
            "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["U"]) == 2
        assert payload["NPrime"] >= 1

    def test_build_presentation_counts_rejections(self, capsys):
        # at length 1, seed 2 draws one degenerate sample before a good one
        code, out = run_cli(capsys, "build-presentation", "--rank", "2", "--length", "1", "--seed", "2")
        assert code == 0
        assert json.loads(out)["rejections"] == 1

    def test_sc_check_round_trip(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "build-presentation", "--rank", "2", "--length", "12",
            "--seed", "2", "--out", str(tmp_path / "p.json"),
        )
        code, out = run_cli(
            capsys, "sc-check", "--presentation", str(tmp_path / "p.json"),
            "--lambda", "0.99",
        )
        payload = json.loads(out)
        assert payload["satisfies"] is (code == 0)
        assert "lambda_value" in payload
        assert sorted(payload["pair_table"]) == ["0,0", "0,1", "1,1"]
        assert max(payload["pair_table"].values()) == payload["max_piece_length"]

    SC_CHECK_CSV = (
        "# presentation=None\n"
        "# rank=2\n"
        "# length=8\n"
        "# seed=1\n"
        "# lam=0.125\n"
        "# max_piece_length=31\n"
        "# min_relator_length=63\n"
        "# lambda_value=0.49206349206349204\n"
        "# satisfies=False\n"
        "relator_i,relator_j,max_piece\n"
        "0,0,16\n"
        "0,1,31\n"
        "1,1,15\n"
    )

    def test_sc_check_csv_text(self, capsys, tmp_path):
        argv = ("sc-check", "--rank", "2", "--length", "8", "--seed", "1", "--format", "csv")
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (1, self.SC_CHECK_CSV)
        path = tmp_path / "sc.csv"
        code, out = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (1, "")
        assert path.read_text() == self.SC_CHECK_CSV


class TestComplexityCommands:
    RELATOR = "a1 a2 a1 a2^-1 a2^-1 a1 a1 a2"

    def test_complexity(self, capsys):
        code, out = run_cli(
            capsys, "complexity", "--relators", self.RELATOR,
            "--word", "a1 a2 a1", "--depth", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c1"] == 1

    def test_complexity_of_the_identity(self, capsys):
        # the identity used to exit 2: the segmentation called c1 again,
        # which is undefined on the empty word
        code, out = run_cli(
            capsys, "complexity", "--relators", self.RELATOR, "--word", "1", "--depth", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["c1"], payload["c2"], payload["per_index"]) == (0, 0, [])
        assert payload["segmentation"] == {"word": "", "boundaries": [], "certificates": []}

    def test_reduce(self, capsys):
        code, out = run_cli(
            capsys, "reduce", "--relators", self.RELATOR,
            "--word", "a1 a2 a1 a2^-1 a2^-1 a1 a1", "--relator-rotation", "0:1:0:7",
            "--depth", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["relation"] in ("decreased", "equal")
        assert payload["pattern"].startswith("a1 a2 a1")

    def test_one_factor_table_per_command(self, capsys, monkeypatch):
        # the value and the segmentation read one table of the word; the
        # ball's other words get one window scan each
        word = "a1 a2 a1 a2^-1 a2^-1 a1 a1 a2 a1 a2"
        scans = []
        original = UWordIndex._window_factors

        def spy(self, letters, lo, hi):
            scans.append(letters)
            return original(self, letters, lo, hi)

        monkeypatch.setattr(UWordIndex, "_window_factors", spy)
        for depth in ("0", "1"):
            scans.clear()
            code, _ = run_cli(
                capsys, "complexity", "--relators", self.RELATOR, "--word", word, "--depth", depth,
            )
            assert code == 0
            assert scans.count(rosefold.parse_word(word, 2).letters) == 1
        assert len(scans) > 1
        assert len(set(scans)) == len(scans)

    def test_factor_without_certificate_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(UWordIndex, "is_u_word", lambda self, z: None)
        code, out = run_cli(
            capsys, "complexity", "--relators", self.RELATOR, "--word", "a1 a2 a1",
        )
        assert code == 2
        assert json.loads(out)["error"].startswith("RuntimeError: ")


class TestSurgeryDemo:
    def test_exit_zero_and_report(self, capsys):
        code, out = run_cli(capsys, "surgery-demo", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["strictly_smaller"] is True
        assert payload["refolds_to_rose"] is True

    def test_arc_without_certificate_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(UWordIndex, "is_u_word", lambda self, z: None)
        code, out = run_cli(capsys, "surgery-demo", "--seed", "7")
        assert code == 2
        assert json.loads(out)["error"].startswith("RuntimeError: ")

    @pytest.mark.parametrize(
        "argv, pattern",
        [
            # the arc joins two vertices, which the empty label identifies
            (("--relator-length", "2", "--seed", "2"), "a2^-1 a1 a2^-1 a1"),
            # the arc is a loop, which the empty label deletes
            (("--rank", "3", "--relator-length", "6", "--seed", "20"),
             "a1 a3 a2^-1 a3^-1 a2 a3"),
        ],
        ids=["distinct-ends", "loop"],
    )
    def test_whole_relator_periods_leave_an_empty_replacement(self, capsys, argv, pattern):
        # the longest relator-power factor on the arc can be whole periods
        # of a short relator; its complement is the empty word, and the
        # pre-lift stage without the arc still folds onto the rose
        code, out = run_cli(capsys, "surgery-demo", *argv)
        assert code == 0
        payload = json.loads(out)
        assert (payload["pattern"], payload["replacement"]) == (pattern, "")
        assert payload["delta_after_refolds"] is True
        assert payload["strictly_smaller"] is True


RELATOR = TestComplexityCommands.RELATOR

# every payload byte for byte: SHA-256 of f"{exit code}\n{stdout}" for
# README's commands and four more (the greedy fold with its stage dumps,
# the identity's complexity, a move on an inverse relator rotation and the
# sc-check CSV); verify-covers is hashed without its elapsed_seconds.  A
# change that alters an output on purpose records the new digests here.
# The whole test takes about 2 s (Python 3.11.7, 2 vCPUs), most of it
# README's word-stats.
PAYLOAD_COMMANDS = cli_commands() + [
    ["fold", "--rank", "2", "--words", "a1 a2", "a1", "--policy", "greatest", "--dump-stages"],
    ["complexity", "--relators", RELATOR, "--word", "1"],
    ["reduce", "--relators", RELATOR, "--word", "a1 a1 a2^-1 a1^-1 a1^-1 a2 a2 a1^-1 a2^-1 a1 a1",
     "--relator-rotation", "0:-1:0:7"],
    ["sc-check", "--rank", "2", "--length", "60", "--seed", "7", "--lambda", "0.125", "--format", "csv"],
]

PAYLOAD_DIGESTS = {
    "fold --rank 2 --words 'a1 a2' a1":
        "b5974105a53e84d4b56145294fbf4678fb1beeb6c31f16508484efa887ac1695",
    "verify-covers --rank 2 --max-edges 6 --max-path-len 14":
        "92be2ba097181a908d1f918e25edcf7a8718e1baf07ab8ca365914722fd4c53a",
    "word-stats --rank 2 --length 4096 --samples 200 --seed 7 --jobs 4":
        "f625c4569666376973f56107ea41a18bb74986d0642d4c94cf9dc23e2c002a32",
    "alpha-injectivity --rank 2 --length 256 --samples 50 --seed 7":
        "2473242419d0802ecf9b73f338d4d67795e11aeeb51abbe6df63a5ec8554994b",
    "build-presentation --rank 2 --length 60 --seed 7":
        "9abb769fb1de340d91da0b028e89eda60cef8ef4957d3e7ae5b955ac320a4130",
    "sc-check --rank 2 --length 60 --seed 7 --lambda 0.125":
        "940f22e7ffb04f67b2eb701aa7284e5c9061394661c66912f15828ea54de61c9",
    "complexity --relators 'a1 a2 a1 a2^-1 a2^-1 a1 a1 a2' --word 'a1 a2 a1' --depth 1":
        "1c0dcd1a859c4ad9f8f5582e8ff3fa01a7456941d5076efb34261b322403337a",
    "reduce --relators 'a1 a2 a1 a2^-1 a2^-1 a1 a1 a2' --word 'a1 a2 a1 a2^-1 a2^-1 a1 a1' --relator-rotation 0:1:0:7":
        "63b0ec67c00cf4191896212d3ea8cc909e8768fadf348d06f9c6c1e6168e77e2",
    "surgery-demo --seed 7":
        "9d4c8cdfd607f4d4e49754bfcb94fbc00b65944d48f99949622cf77f67a8aa82",
    "fold --rank 2 --words 'a1 a2' a1 --policy greatest --dump-stages":
        "50c10c4c6bc93ff517f47125a74059f97022c32d362fbe279cd85115de24db81",
    "complexity --relators 'a1 a2 a1 a2^-1 a2^-1 a1 a1 a2' --word 1":
        "2c1270fd7c573535b46854b400343ba8c55f78799e0d1d2d227e77b9ebfa1676",
    "reduce --relators 'a1 a2 a1 a2^-1 a2^-1 a1 a1 a2' --word 'a1 a1 a2^-1 a1^-1 a1^-1 a2 a2 a1^-1 a2^-1 a1 a1' --relator-rotation 0:-1:0:7":
        "f8233bcabfc75514cc56e0cd4998d6c558da0712a3a67ab22cff1cbb75e1ae00",
    "sc-check --rank 2 --length 60 --seed 7 --lambda 0.125 --format csv":
        "da4362c7eee6a757fc35ca659fa7a24f3f48fb2633b1b57df868f4607ff2af33",
}


def test_payload_digests(capsys):
    got = {}
    for argv in PAYLOAD_COMMANDS:
        code, out = run_cli(capsys, *argv)
        if argv[0] == "verify-covers":
            payload = json.loads(out)
            del payload["elapsed_seconds"]
            out = json.dumps(payload, indent=2) + "\n"
        got[shlex.join(argv)] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == PAYLOAD_DIGESTS


class TestUsageErrors:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["complexity", "--word", "a1"])
        assert err.value.code == 2


class TestInputErrors:
    """Bad input exits 2 with a JSON error instead of a traceback."""

    def assert_error(self, capsys, *argv) -> str:
        code, out = run_cli(capsys, *argv)
        assert code == 2
        payload = json.loads(out)
        assert list(payload) == ["error"]
        return payload["error"]

    @pytest.mark.parametrize("argv", [
        ("fold", "--words", "a1"),
        ("sc-check", "--length", "8", "--format", "csv"),  # text the command renders
    ])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        # the runner writes the payload inside its error handling
        error = self.assert_error(capsys, *argv, "--out", str(tmp_path / "no-such-dir" / "out"))
        assert error.startswith("FileNotFoundError")

    def test_verify_covers_rank_one(self, capsys):
        error = self.assert_error(capsys, "verify-covers", "--rank", "1")
        assert "rank" in error

    def test_alpha_injectivity_rank_one(self, capsys):
        error = self.assert_error(
            capsys, "alpha-injectivity", "--rank", "1", "--samples", "2"
        )
        assert "rank" in error

    def test_fold_letter_outside_rank(self, capsys):
        error = self.assert_error(capsys, "fold", "--words", "a3")
        assert "letter 3" in error

    def test_complexity_uncovered_word(self, capsys):
        error = self.assert_error(
            capsys, "complexity", "--relators", "a1", "--word", "a2", "--depth", "0"
        )
        assert "not a factor" in error

    def test_sc_check_missing_presentation(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        error = self.assert_error(capsys, "sc-check", "--presentation", str(missing))
        assert "missing.json" in error

    def test_word_stats_zero_samples_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "--samples", "word-stats", "--samples", "0")

    def test_verify_covers_cap_overflow_names_cap(self, capsys):
        error = self.assert_error(
            capsys, "verify-covers", "--rank", "2", "--max-edges", "4",
            "--max-candidates", "5",
        )
        assert "cap of 5 " in error

    REDUCE = ("reduce", "--relators", "a1 a2", "--word", "a1 a2", "--depth", "0")

    def test_reduce_relator_index_out_of_range(self, capsys):
        error = self.assert_error(capsys, *self.REDUCE, "--relator-rotation", "5:1:0:7")
        assert "relator 5" in error and "0..0" in error

    @pytest.mark.parametrize(
        "spec", ["5:1:0", "0:1:0:1:2", "a:1:0:1", "0:1::1", "-1:1:0:1", "0:2:0:1",
                 "0:1:2:1", "0:1:0:0", "0:1:0:3"],
    )
    def test_reduce_malformed_relator_rotation(self, capsys, spec):
        # wrong field count, non-integers, a negative index, a sign other
        # than +-1, an offset past the relator and lengths outside 1..|r|
        # (length 0 made the occurrence scan loop without end)
        error = self.assert_error(capsys, *self.REDUCE, f"--relator-rotation={spec}")
        assert "--relator-rotation" in error

    @pytest.mark.parametrize(
        "argv",
        [
            ("complexity", "--relators", "a1 a2", "--word", "a1"),
            ("reduce", "--relators", "a1 a2", "--word", "a1", "--relator-rotation", "0:1:0:1"),
            ("surgery-demo",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_depth_rejected_by_parser(self, capsys, argv):
        self.assert_parser_rejects(capsys, "--depth", *argv, "--depth", "-1")

    @pytest.mark.parametrize("command", ["verify-covers", "alpha-injectivity"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_max_edges_rejected_by_parser(self, capsys, command, value):
        self.assert_parser_rejects(capsys, "--max-edges", command, "--max-edges", value)

    def test_surgery_demo_relator_length_one(self, capsys):
        # a relator shorter than the rank cannot cover every generator; the
        # instance builder used to redraw such relators without end
        error = self.assert_error(capsys, "surgery-demo", "--relator-length", "1")
        assert "below the rank" in error

    def test_surgery_demo_relator_length_below_rank_three(self, capsys):
        error = self.assert_error(
            capsys, "surgery-demo", "--rank", "3", "--relator-length", "2"
        )
        assert "below the rank" in error

    def assert_parser_rejects(self, capsys, flag, *argv) -> None:
        # argparse's rejection: the JSON error naming the flag on stdout,
        # the usage line on stderr
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert list(payload) == ["error"]
        assert flag in payload["error"]
        assert captured.err.startswith("usage: rosefold")

    @pytest.mark.parametrize(
        "command, flag",
        [("word-stats", "--epsilon"), ("alpha-injectivity", "--alpha"), ("sc-check", "--lambda")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
    def test_fraction_outside_unit_interval_rejected_by_parser(self, capsys, command, flag, value):
        self.assert_parser_rejects(capsys, flag, command, flag, value)

    def test_fraction_that_is_no_number_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "'abc' is not a number from 0 to 1", "word-stats", "--epsilon", "abc")

    def test_unknown_policy_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "--policy", "fold", "--policy", "bogus")

    def test_missing_required_flag_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "--relators", "complexity", "--word", "a1")

    def test_missing_command_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "command")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fold", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rosefold fold")

    @pytest.mark.parametrize(
        "command", ["word-stats", "alpha-injectivity", "build-presentation", "sc-check"]
    )
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_length_rejected_by_parser(self, capsys, command, value):
        self.assert_parser_rejects(capsys, "--length", command, "--length", value)

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_alpha_injectivity_samples_rejected_by_parser(self, capsys, value):
        self.assert_parser_rejects(capsys, "--samples", "alpha-injectivity", "--samples", value)

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_attempts_rejected_by_parser(self, capsys, value):
        self.assert_parser_rejects(capsys, "--attempts", "build-presentation", "--attempts", value)

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_relator_length_rejected_by_parser(self, capsys, value):
        self.assert_parser_rejects(
            capsys, "--relator-length", "surgery-demo", "--relator-length", value
        )

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_max_candidates_rejected_by_parser(self, capsys, value):
        # a cap below one used to enumerate first and then fail on the cap
        self.assert_parser_rejects(
            capsys, "--max-candidates", "verify-covers", "--max-candidates", value
        )

    def test_word_stats_zero_jobs_rejected_by_parser(self, capsys):
        # zero and negative values used to run serially without a word
        self.assert_parser_rejects(capsys, "--jobs", "word-stats", "--jobs", "0")

    def test_word_stats_negative_jobs_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(capsys, "--jobs", "word-stats", "--jobs", "-1")

    def test_negative_max_path_len_rejected_by_parser(self, capsys):
        self.assert_parser_rejects(
            capsys, "--max-path-len", "verify-covers", "--max-path-len", "-1"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("fold",), ("verify-covers",), ("word-stats",), ("alpha-injectivity",),
            ("build-presentation",), ("sc-check",), ("surgery-demo",),
            ("complexity", "--relators", "a1 a2", "--word", "a1"),
            ("reduce", "--relators", "a1 a2", "--word", "a1", "--relator-rotation", "0:1:0:1"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_rank_rejected_by_parser(self, capsys, argv, value):
        # sc-check and surgery-demo used to fail with an IndexError
        self.assert_parser_rejects(capsys, "--rank", *argv, f"--rank={value}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "expected a JSON object with a positive integer rank"),
            ("null", "expected a JSON object with a positive integer rank"),
            ('{"words": ["a1"]}', "positive integer rank"),
            ('{"rank": "two", "words": ["a1"]}', "positive integer rank"),
            ('{"rank": 0, "words": []}', "positive integer rank"),
            ('{"rank": 2, "words": 5}', "'words' must be a list of word strings"),
            ('{"rank": 2, "words": [5]}', "'words' must be a list of word strings"),
        ],
    )
    def test_fold_tuple_json_of_the_wrong_shape(self, capsys, tmp_path, text, message):
        # a list, null or a non-list field used to raise a TypeError
        path = tmp_path / "tuple.json"
        path.write_text(text)
        assert message in self.assert_error(capsys, "fold", "--tuple-json", str(path))

    def test_sc_check_presentation_of_the_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "presentation.json"
        path.write_text('{"rank": 2, "v": ["a1 a2"]}')
        error = self.assert_error(capsys, "sc-check", "--presentation", str(path))
        assert "'u' must be a list of word strings" in error

    def test_sc_check_second_family_letter_beyond_first_family(self, capsys, tmp_path):
        # a u-word letter a3 with two v words used to raise an IndexError
        path = tmp_path / "presentation.json"
        path.write_text(json.dumps({"rank": 3, "v": ["a1", "a2"], "u": ["a3", "a1"]}))
        error = self.assert_error(capsys, "sc-check", "--presentation", str(path))
        assert "a3 names a generator beyond the 2 first-family words" in error

    def test_sc_check_more_word_pairs_than_rank(self, capsys, tmp_path):
        # relator 3 starts with a3^-1, which used to be reported as
        # "letter -3 outside rank-2 alphabet"
        path = tmp_path / "presentation.json"
        path.write_text(json.dumps({"rank": 2, "v": ["a1", "a2", "a1"], "u": ["a1", "a2", "a2"]}))
        error = self.assert_error(capsys, "sc-check", "--presentation", str(path))
        assert "3 word pairs need rank at least 3, but the words have rank 2" in error

    def test_word_stats_length_one(self, capsys):
        # the bound is 0 at N = 1; the repeat scan used to ask for
        # subwords of length 0 and exit 2
        code, out = run_cli(capsys, "word-stats", "--length", "1", "--samples", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["bound"] == 0
        assert [row["max_coverage"] for row in payload["samples"]] == [0.0]

    def test_sc_check_empty_presentation(self, capsys, tmp_path):
        # no words in either family used to raise an IndexError
        path = tmp_path / "presentation.json"
        path.write_text(json.dumps({"rank": 2, "v": [], "u": []}))
        error = self.assert_error(capsys, "sc-check", "--presentation", str(path))
        assert "at least one word" in error


# -- property-based fuzz of the exit-code contract ---------------------------

LETTERS = ("a1", "a2", "a3", "a1^-1", "a2^-1", "a3^-1")
WORD = st.one_of(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=8).map(" ".join),
    st.sampled_from(("1", "", "a0", "a9", "b1", "A1", "a1^2", "a1^-", "a-1", " a1", "a1 a1^-1")),
)
MALFORMED_INT = st.sampled_from(("0", "-1", "-0", "x", "", "1.5"))


def size(hi: int):
    """A small valid value (three times in four), or a zero, negative or
    non-integer one."""
    valid = st.integers(1, hi).map(str)
    return st.one_of(valid, valid, valid, MALFORMED_INT)


RANK = st.sampled_from(("2", "2", "2", "3", "1", "0", "-1", "x"))
REAL = st.sampled_from(("0.5", "0", "-1", "nan", "inf", "x"))
DEPTH = st.sampled_from(("0", "1", "2", "-1", "x"))
ROTATION = st.one_of(
    st.lists(st.integers(-2, 5).map(str), min_size=3, max_size=5).map(":".join),
    st.sampled_from(("", "a:b", "1:1:0:2", "0:-1:1:2")),
)
WORDS = st.lists(WORD, max_size=4)
# relators and words that they cover, so that complexity and reduce get past
# their input checks
RELATORS = st.one_of(WORDS, st.just(["a1 a2 a1^-1 a2^-1", "a2 a2 a1"]))
COVERED = st.one_of(WORD, st.sampled_from(("a1 a2 a1^-1", "a1 a2 a2 a1", "a2 a1 a2^-1 a1^-1 a2")))
FLAG = st.none()

# every subcommand: the size options it always gets (so that no default
# runs a full-size experiment) and the options it may get
FUZZ = {
    "fold": ({}, {"--rank": RANK, "--words": WORDS, "--tuple-json": "FILE",
                  "--policy": st.sampled_from(("least", "greatest", "defer_rose", "bogus")),
                  "--dump-stages": FLAG}),
    "verify-covers": ({"--max-edges": size(3)},
                      {"--rank": RANK, "--max-path-len": size(6), "--max-candidates": size(40)}),
    "word-stats": ({"--length": size(40), "--samples": size(3)},
                   {"--rank": RANK, "--seed": size(9), "--epsilon": REAL,
                    "--jobs": st.sampled_from(("1", "0", "-1", "x"))}),
    "alpha-injectivity": ({"--length": size(40), "--samples": size(3), "--max-edges": size(3)},
                          {"--rank": RANK, "--seed": size(9), "--alpha": REAL}),
    "build-presentation": ({"--length": size(40)},
                           {"--rank": RANK, "--seed": size(9), "--attempts": size(4)}),
    "sc-check": ({"--length": size(40)},
                 {"--presentation": "FILE", "--rank": RANK, "--seed": size(9), "--lambda": REAL}),
    "complexity": ({}, {"--rank": RANK, "--relators": RELATORS, "--word": COVERED,
                        "--depth": DEPTH}),
    "reduce": ({}, {"--rank": RANK, "--relators": RELATORS, "--word": COVERED,
                    "--relator-rotation": ROTATION, "--depth": DEPTH}),
    "surgery-demo": ({"--relator-length": size(40)},
                     {"--rank": RANK, "--seed": size(9), "--depth": DEPTH}),
}

FUZZ_FILES = {
    "empty": "",
    "garbled": '{"rank": 2, "words": ["a1"',
    "list": "[1, 2]",
    "null": "null",
    "tuple": json.dumps({"rank": 2, "words": ["a1 a2", "a1", "1"]}),
    "tuple-bad-rank": json.dumps({"rank": "two", "words": ["a1"]}),
    "tuple-zero-rank": json.dumps({"rank": 0, "words": []}),
    "tuple-words-int": json.dumps({"rank": 2, "words": 5}),
    "presentation": json.dumps({"rank": 2, "v": ["a1 a2", "a2 a1"], "u": ["a1 a2", "a2 a2"]}),
    "presentation-empty": json.dumps({"rank": 2, "v": [], "u": []}),
    "presentation-uneven": json.dumps({"rank": 2, "v": ["a1 a2"], "u": ["a1", "a2"]}),
    "presentation-bad-letter": json.dumps({"rank": 2, "v": ["a7"], "u": ["a1"]}),
    "presentation-u-beyond-v": json.dumps({"rank": 3, "v": ["a1", "a2"], "u": ["a3", "a1"]}),
    "presentation-pairs-beyond-rank": json.dumps(
        {"rank": 2, "v": ["a1", "a2", "a1"], "u": ["a1", "a2", "a2"]}),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(text)
    return root


def strict_json(text: str):
    """``json.loads`` without the NaN and Infinity tokens, which RFC 8259
    JSON does not have."""

    def reject(token: str):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process; any exception but SystemExit propagates, as
    it would print a traceback from the console entry point."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the file names a FILE option gets: every fuzz file, one that does not
# exist and a directory
FILE_NAMES = [*FUZZ_FILES, "missing", "directory"]
# every (command, option) pair that reads a file
FILE_OPTIONS = [(command, flag) for command, (always, optional) in sorted(FUZZ.items())
                for flag, strategy in {**always, **optional}.items() if strategy == "FILE"]


def fuzz_path(fuzz_dir, name: str):
    return fuzz_dir if name == "directory" else fuzz_dir / f"{name}.json"


def check_contract(argv: list[str], fuzz_dir, fmt: str | None = None, out: str | None = None) -> int:
    """Exit code 0, 1 or 2, no traceback, a JSON error on exit 2 and
    otherwise well-formed output in the asked format; returns the code."""
    code, stdout, stderr = run_captured(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 2:
        # argument parsing adds the usage line on stderr
        assert list(strict_json(stdout)) == ["error"]
        assert not stderr or stderr.startswith("usage: rosefold")
        return code
    text = (fuzz_dir / out).read_text() if out else stdout
    if fmt == "csv":
        rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        assert len({len(row) for row in rows}) <= 1
    else:
        strict_json(text)
    return code


class TestFuzz:
    # every file on every option that reads one, before the random draws,
    # which may never pick the one pair that crashes
    @pytest.mark.parametrize("name", FILE_NAMES)
    @pytest.mark.parametrize(("command", "flag"), FILE_OPTIONS)
    def test_every_file_option_on_every_file(self, fuzz_dir, command, flag, name):
        check_contract([command, f"{flag}={fuzz_path(fuzz_dir, name)}"], fuzz_dir)

    @settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_and_output_contract(self, fuzz_dir, data):
        command = data.draw(st.sampled_from(sorted(FUZZ)), label="command")
        always, optional = FUZZ[command]
        chosen = data.draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
        files = st.sampled_from([str(fuzz_path(fuzz_dir, name)) for name in FILE_NAMES])
        argv = [command]
        for flag in [*always, *chosen]:
            strategy = {**always, **optional}[flag]
            value = data.draw(files if strategy == "FILE" else strategy, label=flag)
            if value is None:
                argv.append(flag)
            elif isinstance(value, list):
                argv += [flag, *value]
            else:
                argv.append(f"{flag}={value}")
        fmt = data.draw(st.sampled_from((None, None, "json", "csv", "xml")), label="format")
        if fmt:
            argv.append(f"--format={fmt}")
        out = data.draw(
            st.sampled_from((None, None, None, "out.txt", "no-such-dir/out.txt")), label="out"
        )
        if out:
            (fuzz_dir / "out.txt").unlink(missing_ok=True)
            argv.append(f"--out={fuzz_dir / out}")

        event(f"{command} exit {check_contract(argv, fuzz_dir, fmt, out)}")
