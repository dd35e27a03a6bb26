"""CLI behaviour: golden outputs, determinism, exit codes.

Golden files live in tests/golden; regenerate deliberately with
    UPDATE_GOLDEN=1 pytest tests/test_cli.py
after verifying any changed values independently.
"""

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multisecant import cli
from multisecant.cli import run_command

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


def check_golden(name, argv, expect_code=0):
    code, text = run(argv)
    assert code == expect_code
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(text)
    assert text == path.read_text()


class TestGoldenOutputs:
    def test_chern(self):
        check_golden("chern_ci22_p4.txt", ["chern", "--n", "4", "O(2)+O(2)"])

    def test_secants(self):
        check_golden(
            "secants_ci22_p3_j1.txt",
            ["secants", "--n", "3", "--j", "1", "O(2)+O(2)"],
        )

    def test_trisecant(self):
        check_golden(
            "trisecant_n144_p8.txt",
            ["trisecant", "--n", "8", "N{r=2,c=[1,4,4]}"],
        )

    def test_normality_text(self):
        check_golden(
            "normality_ci33_p18_j2.txt",
            ["normality", "--n", "18", "--j", "2", "O(3)+O(3)"],
        )

    def test_normality_json(self):
        check_golden(
            "normality_json_n169_p18_j2.txt",
            ["normality", "--n", "18", "--j", "2", "N{r=2,c=[1,6,9]}", "--format", "json"],
        )

    def test_segre(self):
        check_golden(
            "segre_n144_p4_k2.txt",
            ["segre", "--n", "4", "--k", "2", "N{r=2,c=[1,4,4]}"],
        )

    def test_verify_lemma51(self):
        check_golden(
            "verify_lemma51.txt",
            ["verify", "--suite", "lemma51", "--trials", "1", "--seed", "0"],
        )

    def test_census_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, text = run(
            ["census", "--r", "2", "--degrees", "2..3", "--n", "3..5",
             "--j", "1", "--out", "census.csv", "--format", "csv"]
        )
        assert code == 0
        assert text == (GOLDEN / "census_stdout.txt").read_text()
        assert (tmp_path / "census.csv").read_text() == (
            GOLDEN / "census_r2_d23_n35_j1.csv"
        ).read_text()

    def test_census_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run(
            ["census", "--r", "1", "--degrees", "2..4", "--n", "4..4",
             "--j", "2", "--out", "census.json", "--format", "json"]
        )
        assert code == 0
        assert (tmp_path / "census.json").read_text() == (
            GOLDEN / "census_r1_d24_n44_j2.json"
        ).read_text()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chern", "--n", "6", "T+O(-2)"],
            ["secants", "--n", "5", "--j", "2", "O(3)+O(2)"],
            ["verify", "--suite", "trisecant-identity", "--trials", "40", "--seed", "7"],
            ["verify", "--suite", "recursion-oracle", "--trials", "30", "--seed", "3"],
            ["verify", "--suite", "bterm-experiment"],
            ["verify", "--suite", "cterm", "--trials", "25", "--seed", "2"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0


class TestExitCodes:
    def test_parse_error_is_usage(self, capsys):
        code, _ = run(["chern", "--n", "4", "O(2)+"])
        assert code == 1
        assert "parse error" in capsys.readouterr().err

    def test_bad_flag_is_usage(self):
        code, _ = run(["secants", "--n", "3", "O(2)"])  # missing --j
        assert code == 1

    def test_unsupported_normal_degree_is_usage(self):
        code, _ = run(["normality", "--n", "20", "--j", "3", "N{r=2,c=[1,4,4]}"])
        assert code == 1

    def test_hypothesis_error_is_computational(self, capsys):
        # segre index out of range
        code, _ = run(["segre", "--n", "4", "--k", "9", "N{r=2,c=[1,4,4]}"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_census_bad_range_is_computational(self, tmp_path):
        code, _ = run(
            ["census", "--r", "3", "--degrees", "2..2", "--n", "2..4",
             "--j", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normality", "--n", "2", "--j", "2", "N{r=2,c=[1,6,9]}"],
             "ambient dimension 2 leaves no positive-dimensional X for rank 2"),
            (["normality", "--n", "2", "--j", "1", "N{r=3,c=[1,0,0,0]}"],
             "ambient dimension 2 leaves no positive-dimensional X for rank 3"),
            (["census", "--r", "2", "--degrees", "2..3", "--n", "3..5", "--j", "-1",
              "--out", "c.csv"], "j must be >= 1, got -1"),
            (["census", "--r", "2", "--degrees", "2..3", "--n", "3..5", "--j", "0",
              "--out", "c.csv"], "j must be >= 1, got 0"),
        ],
        ids=["normality-n-at-r", "zak-n-below-r", "census-j-negative", "census-j-zero"],
    )
    def test_errors_name_only_given_values(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, text = run(argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["chern", "--n", "4", "O(1%s)+O(1%s)" % ("0" * 2500, "0" * 2500)],
            ["secants", "--n", "200", "--j", "100", "T"],
        ],
        ids=["chern-c2-5001-digits", "secants-degree-past-4300-digits"],
    )
    def test_value_too_long_to_print_leaves_stdout_empty(self, argv, capsys):
        # every line is formatted before any is written
        assert run(argv) == (2, "")
        assert capsys.readouterr().err.startswith("error: Exceeds the limit (4300 digits)")

    def test_census_into_missing_directory_is_usage(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, text = run(
            ["census", "--r", "2", "--degrees", "1..3", "--n", "3..5",
             "--j", "1", "--out", str(out)]
        )
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_negative_trials_is_usage(self, capsys):
        code, text = run(["verify", "--suite", "cterm", "--trials", "-1"])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == "error: trials must be >= 0, got -1\n"

    def test_suite_failure_is_exit_three(self, monkeypatch):
        from multisecant import verify as verify_mod

        def broken(lines, trials, seed):
            lines.append("[FAIL] injected counterexample")
            return 1

        monkeypatch.setitem(verify_mod._RUNNERS, "cterm", (broken, 0))
        code, text = run(["verify", "--suite", "cterm"])
        assert code == 3
        assert text == "suite: cterm\n[FAIL] injected counterexample\nsuite cterm: FAIL\n"


HUGE_CENSUS = ["census", "--r", "3", "--degrees", "1..100000", "--n", "4..4", "--j", "2",
               "--out", "c.csv"]


class TestLimits:
    # at the limit the command runs; one past it exits 2 before any arithmetic
    @pytest.mark.parametrize(
        "argv",
        [
            ["chern", "--n", "10000", "O(1)"],
            ["secants", "--n", "10000", "--j", "1000", "O(1)"],
            ["normality", "--n", "10000", "--j", "1000", "O(1)"],
            ["census", "--r", "1", "--degrees", "1..1", "--n", "9999..10000",
             "--j", "1000", "--out", "c.csv"],
            ["census", "--r", "20", "--degrees", "1..1", "--n", "21..21", "--j", "1",
             "--out", "c.csv"],
        ],
    )
    def test_at_the_limit_runs(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv)[0] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chern", "--n", "10001", "O(1)"], "--n 10001 exceeds the limit 10000"),
            (["chern", "--n", "3000000000", "O(1)"], "--n 3000000000 exceeds the limit 10000"),
            (["secants", "--n", "10001", "--j", "1", "O(1)"], "--n 10001 exceeds the limit 10000"),
            (["secants", "--n", "4", "--j", "1001", "O(1)"], "--j 1001 exceeds the limit 1000"),
            (["trisecant", "--n", "10001", "O(1)"], "--n 10001 exceeds the limit 10000"),
            (["normality", "--n", "10001", "--j", "2", "O(1)"], "--n 10001 exceeds the limit 10000"),
            (["normality", "--n", "4", "--j", "1001", "O(1)"], "--j 1001 exceeds the limit 1000"),
            (["segre", "--n", "10001", "--k", "1", "O(1)"], "--n 10001 exceeds the limit 10000"),
            (["census", "--r", "1", "--degrees", "1..1", "--n", "10001..10002", "--j", "1",
              "--out", "c.csv"], "--n 10001 exceeds the limit 10000"),
            (["census", "--r", "1", "--degrees", "1..1", "--n", "2..10001", "--j", "1",
              "--out", "c.csv"], "--n 10001 exceeds the limit 10000"),
            (["census", "--r", "1", "--degrees", "1..1", "--n", "2..3", "--j", "1001",
              "--out", "c.csv"], "--j 1001 exceeds the limit 1000"),
            (HUGE_CENSUS, "census exceeds the limit of 100000 rows"),
            (["census", "--r", "21", "--degrees", "1..1", "--n", "22..22", "--j", "1",
              "--out", "c.csv"], "census codimension 21 exceeds the limit of 20"),
            (["verify", "--suite", "bterm-experiment", "--trials", "100001"],
             "--trials 100001 exceeds the limit 100000"),
        ],
    )
    def test_past_the_limit_is_computational(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("cap, allowed", [(3, True), (2, False)])
    def test_trials_cap_is_checked_at_the_boundary(self, cap, allowed, monkeypatch, capsys):
        # the real cap of 100,000 trials takes seconds to run, so lower it
        monkeypatch.setattr(cli, "MAX_TRIALS", cap)
        code, text = run(["verify", "--suite", "cterm", "--trials", "3"])
        if allowed:
            assert code == 0 and text.endswith("suite cterm: PASS\n")
        else:
            assert (code, text) == (2, "")
            assert capsys.readouterr().err == "error: --trials 3 exceeds the limit 2\n"

    def test_huge_census_is_refused_before_it_is_built(self, tmp_path, monkeypatch):
        # about 1.7e14 rows: refused from the count alone, in well under a second
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        assert run(HUGE_CENSUS)[0] == 2
        assert time.perf_counter() - start < 1.0


# Runs one invocation in a fresh interpreter and prints which of the
# package's modules, and of the watched standard modules, it loaded.  A
# module the bare interpreter already holds (this environment's site
# loads typing, re and pathlib) is not the package's doing and is left out.
PROBE = """
import io, sys
bare = set(sys.modules)
from multisecant.cli import run_command
if sys.argv[1:]:
    run_command(sys.argv[1:], out=io.StringIO())
watched = ("json", "logging", "dataclasses", "inspect", "ast", "fractions", "decimal")
print(" ".join(sorted(
    m for m in set(sys.modules) - bare if m.startswith("multisecant.") or m in watched
)))
"""
SRC = str(Path(__file__).resolve().parents[1] / "src")
CENSUS = ["census", "--r", "2", "--degrees", "2..3", "--n", "3..5", "--j", "1", "--out", "c.csv"]


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _loaded(argv, cwd):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, env=_subprocess_env(),
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


class TestImportGraph:
    """Each subcommand imports only the layers it runs."""

    def test_bare_import_loads_only_errors(self, tmp_path):
        assert _loaded([], tmp_path) == {"multisecant.cli", "multisecant.errors"}

    def test_chern(self, tmp_path):
        loaded = _loaded(["chern", "--n", "4", "O(2)+O(2)"], tmp_path)
        # classpoly renders the total Chern class; binomials come from math.comb
        assert {"multisecant.exprs", "multisecant.classpoly"} <= loaded
        unused = {"fiberring", "verify", "census", "normality", "secants", "combinat"}
        assert not loaded & ({f"multisecant.{m}" for m in unused} | {"json", "logging"})

    @pytest.mark.parametrize(
        "argv",
        [
            ["secants", "--n", "4", "--j", "1", "T"],
            ["segre", "--n", "4", "--k", "2", "(O(1)+O(2))@(1)"],
            ["normality", "--n", "8", "--j", "2", "(N{r=2,c=[1,4,4]})@(1)"],
            ["trisecant", "--n", "4", "T"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_expression_commands_load_no_classpoly_or_combinat(self, argv, tmp_path):
        # each argv twists or builds T, the two users of binomials in bundles
        loaded = _loaded(argv, tmp_path)
        assert "multisecant.bundles" in loaded
        assert not loaded & {"multisecant.classpoly", "multisecant.combinat"}

    def test_verify(self, tmp_path):
        loaded = _loaded(["verify", "--suite", "cterm", "--trials", "1"], tmp_path)
        assert "multisecant.verify" in loaded and "multisecant.census" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["chern", "--n", "4", "O(2)+O(2)"],
            ["segre", "--n", "4", "--k", "2", "O(2)+O(2)"],
            ["normality", "--n", "8", "--j", "2", "N{r=2,c=[1,4,4]}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_integral_commands_load_no_dataclasses_or_fractions(self, argv, tmp_path):
        # their arithmetic never divides, and records are slot classes
        heavy = {"dataclasses", "inspect", "ast", "fractions", "decimal"}
        assert not _loaded(argv, tmp_path) & heavy

    @pytest.mark.parametrize(
        "argv",
        [
            ["secants", "--n", "4", "--j", "1", "O(2)+O(2)"],
            ["trisecant", "--n", "4", "O(2)+O(2)"],
            ["verify", "--suite", "trisecant-identity", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_dividing_commands_load_fractions_but_no_dataclasses(self, argv, tmp_path):
        loaded = _loaded(argv, tmp_path)
        assert "fractions" in loaded  # the probe sees what a command loads
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        "suite, unused",
        [
            ("lemma51", {"multisecant.fiberring", "multisecant.secants", "fractions"}),
            ("cterm", {"multisecant.fiberring", "multisecant.combinat"}),
            ("bterm-experiment", {"multisecant.fiberring", "multisecant.combinat"}),
            ("trisecant-identity", {"multisecant.fiberring", "multisecant.combinat"}),
            ("recursion-oracle", {"multisecant.secants", "multisecant.combinat"}),
        ],
    )
    def test_verify_loads_only_the_suite_it_runs(self, suite, unused, tmp_path):
        loaded = _loaded(["verify", "--suite", suite, "--trials", "1"], tmp_path)
        assert "multisecant.verify" in loaded  # the probe ran the command
        assert not loaded & unused

    def test_fiberring_loads_no_fractions(self, tmp_path):
        # the ring is integral: only secant_count_via_ring divides, and it
        # imports fractions when it is called
        probe = (
            "import sys; bare = set(sys.modules); import multisecant.fiberring; "
            "print(*sorted(set(sys.modules) - bare))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=_subprocess_env(),
            capture_output=True, text=True, check=True,
        )
        loaded = set(result.stdout.split())
        assert "multisecant.fiberring" in loaded
        assert not loaded & {"fractions", "decimal"}

    def test_census(self, tmp_path):
        loaded = _loaded(CENSUS, tmp_path)
        assert "multisecant.census" in loaded
        assert not loaded & {"multisecant.verify", "multisecant.fiberring"}
        # rows are tuples, and census logs nothing: its one report is the
        # "wrote N rows" line on stdout
        assert not loaded & {"dataclasses", "inspect", "ast", "logging"}

    def test_suite_names_match_the_suites(self):
        from multisecant import cli, verify

        assert cli.SUITE_NAMES == verify.SUITE_NAMES

    @pytest.mark.parametrize(
        "argv",
        [
            ["chern", "--n", "4", "O(2)+O(2)"],
            ["secants", "--n", "4", "--j", "1", "O(2)+O(2)"],
            ["trisecant", "--n", "4", "O(2)+O(2)"],
            ["normality", "--n", "8", "--j", "2", "O(2)+O(2)"],
            ["segre", "--n", "4", "--k", "2", "O(2)+O(2)"],
            ["verify", "--suite", "bterm-experiment", "--trials", "1"],
            CENSUS,
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_loads_rationals(self, argv, tmp_path):
        # every command prints its exact values with str
        loaded = _loaded(argv, tmp_path)
        assert "multisecant.bundles" in loaded  # the probe ran the command
        assert "multisecant.rationals" not in loaded


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # the read end is closed before the child starts, so its first flush
    # fails with EPIPE whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "multisecant.cli", "chern", "--n", "4", "O(2)+O(2)"],
            cwd=tmp_path, env=_subprocess_env(), stdout=write_end, stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")
