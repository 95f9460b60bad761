import argparse
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xorcodes as xc
from xorcodes import cli
from xorcodes.cli import _build_parser, main
from conftest import TESTDATA

GOLDEN = str(TESTDATA / "g_13_5.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_golden_vd(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", GOLDEN, "--out-sweep", str(tmp_path / "s.csv"))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "i,rho,mode,stderr"
        assert lines[2] == "0,0.615384615,exact,0.0"
        assert len(lines) == 11

    def test_sweep_grid(self, capsys, tmp_path):
        vd_path, sweep_path = tmp_path / "vd.csv", tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "eval", GOLDEN, "--out-vd", str(vd_path),
                         "--out-sweep", str(sweep_path))
        assert code == 0
        rows = sweep_path.read_text().splitlines()
        assert rows[1] == "p,p_s,p_u"
        assert rows[2] == "0.0,1.0,0.0"
        assert rows[-1].startswith("0.5,")
        assert len(rows) == 53  # manifest + header + 51 grid points

    def test_identity_single_line(self, capsys, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text(xc.format_matrix(xc.BinaryMatrix.identity(5)))
        code, out, _ = run(capsys, "eval", str(path), "--out-sweep", "/dev/null")
        assert code == 0
        assert out.splitlines()[2] == "0,1.0,exact,0.0"
        assert len(out.splitlines()) == 3

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n101\n10\n")
        code, out, err = run(capsys, "eval", str(path))
        assert code == 2
        assert err.startswith("error: line 3")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "/nonexistent/matrix.txt")
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_threshold_suggests_samples(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(20, 40, np.random.default_rng(0))))
        code, _, err = run(capsys, "eval", str(path))
        assert code == 2
        assert "--samples" in err
        code, out, err = run(capsys, "eval", str(path), "--samples", "200",
                             "--out-sweep", "/dev/null")
        assert code == 0
        assert ",sampled," in out

    def test_over_limit_message_is_the_library_one(self, capsys, tmp_path):
        G = xc.random_matrix(20, 40, np.random.default_rng(0))
        path = tmp_path / "big.txt"
        path.write_text(xc.format_matrix(G))
        with pytest.raises(ValueError) as exc:
            xc.exact_vd(G)
        code, _, err = run(capsys, "eval", str(path))
        assert code == 2
        assert err == f"error: {exc.value}\n"

    def test_rejects_zero_max_subsets(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", GOLDEN, "--samples", "10", "--max-subsets", "0"])
        assert exit_.value.code == 2
        assert "argument --max-subsets: expected an integer >= 1" in capsys.readouterr().err

    def test_custom_grid(self, capsys, tmp_path):
        sweep = tmp_path / "s.csv"
        code, _, _ = run(capsys, "eval", GOLDEN, "--out-vd", "/dev/null",
                         "--out-sweep", str(sweep), "--p-min", "0.1",
                         "--p-max", "0.3", "--p-step", "0.1")
        assert code == 0
        data = [r for r in sweep.read_text().splitlines() if not r.startswith("#")]
        assert [row.split(",")[0] for row in data[1:]] == ["0.1", "0.2", "0.3"]

    def test_rejects_bad_grid(self, capsys):
        # 5e-324 overflows the point count; 1e-9 would build 5e8 floats
        for step in ("-0.1", "nan", "5e-324", "1e-9"):
            code, _, err = run(capsys, "eval", GOLDEN, "--p-step", step)
            assert code == 2 and "p-step" in err

    def test_missing_output_directory_refused_before_the_vector(self, capsys, tmp_path):
        vd_path, bad = tmp_path / "vd.csv", str(tmp_path / "missing" / "sweep.csv")
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", str(vd_path), "--out-sweep", bad)
        assert code == 2 and err.startswith(f"error: cannot write {bad}")
        assert not vd_path.exists()

    def test_directory_output_refused_before_the_vector(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", "vd.csv", "--out-sweep", "d")
        assert code == 2 and err == "error: cannot write d: it is a directory\n"
        assert not (tmp_path / "vd.csv").exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
    def test_failed_write_reported(self, capsys):
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", "/dev/full", "--out-sweep", "-")
        assert code == 2 and err.startswith("error: cannot write /dev/full")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
    def test_failed_sweep_write_removes_the_vector_file(self, capsys, tmp_path):
        vd_path = tmp_path / "vd.csv"
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", str(vd_path),
                           "--out-sweep", "/dev/full")
        assert code == 2 and err.startswith("error: cannot write /dev/full")
        assert not vd_path.exists() and Path("/dev/full").is_char_device()

    def test_unwritable_output_reported(self, capsys, tmp_path):
        # the directory exists, but the path names a directory, not a file
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", str(tmp_path),
                           "--out-sweep", "/dev/null")
        assert code == 2 and err.startswith(f"error: cannot write {tmp_path}")

    def test_outputs_naming_one_file_refused_before_the_vector(self, capsys, tmp_path,
                                                              monkeypatch):
        def no_vector(*args, **kwargs):
            raise AssertionError("the vector was computed")

        monkeypatch.setattr("xorcodes.cli.exact_vd", no_vector)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "eval", GOLDEN, "--out-vd", "x.csv", "--out-sweep", "./x.csv")
        assert code == 2 and err == (f"error: --out-vd and --out-sweep both name "
                                     f"{(tmp_path / 'x.csv').resolve()}; "
                                     "give each output its own file\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_refused_before_the_vector(self, capsys, monkeypatch):
        def no_vector(*args, **kwargs):
            raise AssertionError("the vector was computed")

        monkeypatch.setattr("xorcodes.cli.exact_vd", no_vector)
        code, _, err = run(capsys, "eval", GOLDEN, "--p-step", "-1")
        assert code == 2 and "p-step" in err

    @pytest.mark.parametrize("bounds", [["--p-min", "0.6", "--p-max", "0.5"], ["--p-max", "1.5"]],
                             ids=["min-above-max", "max-above-one"])
    def test_bad_grid_bounds_refused_before_the_vector(self, capsys, monkeypatch, bounds):
        def no_vector(*args, **kwargs):
            raise AssertionError("the vector was computed")

        monkeypatch.setattr("xorcodes.cli.exact_vd", no_vector)
        code, _, err = run(capsys, "eval", GOLDEN, *bounds)
        assert code == 2 and "need 0 <= p-min <= p-max <= 1" in err

    def test_grid_ends_at_p_max(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "eval", GOLDEN, "--out-vd", "/dev/null",
                         "--out-sweep", str(sweep_path),
                         "--p-min", "0", "--p-max", "0.25", "--p-step", "0.1")
        assert code == 0
        rows = sweep_path.read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.1", "0.2", "0.25"]

    def test_high_rate_eval_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma, which np.unique imports, is a slow first import in every fresh process
        path = tmp_path / "g_12_8.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(8, 12, np.random.default_rng(0))))
        script = ("import sys; from xorcodes import cli; "
                  f"code = cli.main(['eval', {str(path)!r}, '--out-vd', '/dev/null']); "
                  "print(code, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_subspace_tables_are_built_on_first_use(self, tmp_path):
        # a [12,8] vector is counted over the subspaces of F_2^4, and only that table is built
        path = tmp_path / "g_12_8.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(8, 12, np.random.default_rng(0))))
        script = ("from xorcodes import cli, decoding; "
                  "before = decoding._subspaces.cache_info().currsize; "
                  f"code = cli.main(['eval', {str(path)!r}, '--out-vd', '/dev/null']); "
                  "print(code, before, decoding._subspaces.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 0 1", proc.stderr

    def test_low_rate_code_beyond_the_enumeration_limit(self, capsys, tmp_path):
        # C(40, 20) is over the limit, and k = 5 is counted by Mobius inversion
        path = tmp_path / "c_40_5.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(5, 40, np.random.default_rng(40))))
        code, out, err = run(capsys, "eval", str(path), "--out-sweep", "/dev/null")
        rows = out.splitlines()[2:]
        assert code == 0 and err == ""
        assert len(rows) == 36 and all(",exact,0.0" in row for row in rows)


class TestBaseline:
    def test_known_first_entry(self, capsys):
        code, out, _ = run(capsys, "baseline", "--n", "13", "--k", "5", "--q", "2",
                           "--out-sweep", "/dev/null")
        assert code == 0
        assert out.splitlines()[2] == "0,0.29800415,exact,0.0"

    def test_larger_field_improves(self, capsys):
        def first_rho(q):
            _, out, _ = run(capsys, "baseline", "--n", "13", "--k", "5", "--q", str(q),
                            "--out-sweep", "/dev/null")
            return float(out.splitlines()[2].split(",")[1])

        assert first_rho(4) > first_rho(2)

    def test_single_entry_vd(self, capsys):
        code, out, _ = run(capsys, "baseline", "--n", "5", "--k", "5",
                           "--out-sweep", "/dev/null")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_main_reuses_the_parser_built_at_import(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser of its own")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, _, _ = run(capsys, "baseline", "--n", "5", "--k", "3")
        assert code == 0

    def test_rejects_small_field(self, capsys):
        code, _, err = run(capsys, "baseline", "--n", "13", "--k", "5", "--q", "1")
        assert code == 2
        assert "field size" in err


class TestSearch:
    def test_writes_family_and_best(self, capsys, tmp_path):
        out_path = tmp_path / "family.txt"
        code, out, _ = run(capsys, "search", "--n", "10", "--k", "4", "--k1", "3",
                           "--attempts", "3", "--seed", "9", "--out", str(out_path))
        assert code == 0
        assert out.splitlines()[0].startswith("best_score=")
        assert out.splitlines()[1].startswith("best_vd=")
        body = out_path.read_text()
        assert body.startswith("# {")
        assert "# candidates=" in body
        assert "algorithm=2" in body
        assert "latin=" in body

    def test_single_attempt_single_record(self, capsys, tmp_path):
        out_path = tmp_path / "family.txt"
        code, _, _ = run(capsys, "search", "--n", "10", "--k", "4", "--attempts", "1",
                         "--seed", "3", "--out", str(out_path))
        assert code == 0
        assert "# candidates=1" in out_path.read_text()

    def test_rerun_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "family.txt"
        argv = ["search", "--n", "10", "--k", "4", "--attempts", "4", "--seed", "5",
                "--out", str(out_path)]
        assert main(argv) == 0
        first = out_path.read_bytes()
        assert main(argv) == 0
        assert out_path.read_bytes() == first
        capsys.readouterr()

    def test_sampled_rerun_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "family.txt"
        argv = ["search", "--n", "8", "--k", "4", "--attempts", "2", "--samples", "200",
                "--max-subsets", "20", "--seed", "4", "--out", str(out_path)]
        assert main(argv) == 0
        first = out_path.read_bytes()
        assert main(argv) == 0
        assert out_path.read_bytes() == first
        assert b'"samples": 200' in first
        capsys.readouterr()

    def test_rejects_zero_samples(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["search", "--n", "10", "--k", "4", "--attempts", "1", "--samples", "0"])
        assert exit_.value.code == 2
        assert "argument --samples: expected an integer >= 1" in capsys.readouterr().err

    def test_rejects_even_weight(self, capsys):
        code, _, err = run(capsys, "search", "--n", "10", "--k", "4", "--k1", "2",
                           "--attempts", "1")
        assert code == 2
        assert "k1 must be odd" in err

    def test_rejects_short_code(self, capsys):
        code, _, err = run(capsys, "search", "--n", "4", "--k", "4", "--attempts", "1")
        assert code == 2
        assert "n > k" in err

    def test_empty_tail_refused_before_any_restart(self, capsys, monkeypatch):
        def no_restart(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr("xorcodes.search.init_balanced", no_restart)
        code, _, err = run(capsys, "search", "--n", "6", "--k", "5")
        assert code == 2
        assert "first k + 1" in err and "--algorithm 1" in err

    def test_missing_output_directory_refused_before_the_search(self, capsys, monkeypatch,
                                                               tmp_path):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("xorcodes.cli.search_family", no_search)
        bad = str(tmp_path / "missing" / "family.txt")
        code, _, err = run(capsys, "search", "--n", "13", "--k", "5", "--attempts", "60",
                           "--out", bad)
        assert code == 2 and bad in err

    def test_low_rate_code_beyond_the_enumeration_limit(self, capsys, tmp_path):
        out_path = tmp_path / "family.txt"
        code, out, err = run(capsys, "search", "--n", "40", "--k", "5", "--attempts", "1",
                             "--max-climb-steps", "2", "--out", str(out_path))
        assert code == 0 and err == ""
        assert out.splitlines()[1].count(",") == 35

    def test_algorithm_one(self, capsys, tmp_path):
        # at --k 2 the default --k1 3 exceeds k, but algorithm 1 never reads k1
        out_path = tmp_path / "family.txt"
        for n, k in [("9", "3"), ("6", "2")]:
            code, _, err = run(capsys, "search", "--n", n, "--k", k, "--algorithm", "1",
                               "--attempts", "2", "--seed", "1", "--out", str(out_path))
            assert code == 0 and err == ""
            assert "algorithm=1" in out_path.read_text()


class TestSimulate:
    def test_no_erasures(self, capsys):
        code, out, _ = run(capsys, "simulate", GOLDEN, "--p", "0", "--trials", "2000",
                           "--seed", "1")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines()[1:])
        assert lines["estimate"] == "1.0"
        assert lines["z"] == "0.0"

    def test_everything_erased(self, capsys):
        code, out, _ = run(capsys, "simulate", GOLDEN, "--p", "1", "--trials", "2000",
                           "--seed", "1")
        assert code == 0
        assert "estimate=0.0" in out

    def test_consistent_with_analytic(self, capsys):
        code, out, _ = run(capsys, "simulate", GOLDEN, "--p", "0.1",
                           "--trials", "200000", "--seed", "42")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines()[1:])
        assert abs(float(lines["z"])) < 4
        assert float(lines["analytic_ps"]) == pytest.approx(0.999957, abs=1e-5)

    def test_deterministic(self, capsys):
        argv = ["simulate", GOLDEN, "--p", "0.2", "--trials", "5000", "--seed", "8"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_rejects_bad_p(self, capsys):
        code, _, err = run(capsys, "simulate", GOLDEN, "--p", "1.5")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag,value,message", [
        ("--p", "1.5", "erasure probability must be in [0, 1], got 1.5"),
        ("--p", "-0.1", "erasure probability must be in [0, 1], got -0.1"),
        ("--p", "nan", "erasure probability must be in [0, 1], got nan"),
        ("--trials", "0", "trials must be >= 1, got 0"),
    ], ids=["p-above-1", "p-below-0", "p-nan", "trials-0"])
    def test_bad_arguments_cost_no_reference_vector(self, capsys, monkeypatch, flag, value,
                                                    message):
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference vector was computed")

        monkeypatch.setattr("xorcodes.cli.exact_vd", no_reference)
        argv = {"--p": "0.1", "--trials": "1000", flag: value}
        code, _, err = run(capsys, "simulate", GOLDEN, *itertools.chain(*argv.items()))
        assert code == 2 and err == f"error: {message}\n"

    def test_refused_reference_runs_no_trials(self, capsys, monkeypatch, tmp_path):
        def no_trials(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr("xorcodes.cli.simulate_ps", no_trials)
        path = tmp_path / "g_40_20.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(20, 40, np.random.default_rng(0))))
        code, _, err = run(capsys, "simulate", str(path), "--p", "0.1", "--trials", "1000000")
        assert code == 2 and "enumeration limit" in err

    def test_more_rows_than_columns_runs_no_trials(self, capsys, monkeypatch, tmp_path):
        def no_trials(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr("xorcodes.cli.simulate_ps", no_trials)
        path = tmp_path / "g_5_3.txt"
        path.write_text(xc.format_matrix(xc.random_matrix(5, 3, np.random.default_rng(0))))
        code, _, err = run(capsys, "simulate", str(path), "--p", "0.1")
        assert code == 2 and "generator must have k <= n, got 5x3" in err

    def test_never_decoding_code_has_finite_z(self, capsys, tmp_path):
        # rank 39 < k: every trial fails, and the analytic p_s is only
        # rounding residue, so the simulation's own stderr is 0
        a = xc.random_matrix(40, 44, np.random.default_rng(16)).to_array()
        a[39] = a[0]
        path = tmp_path / "deficient.txt"
        path.write_text(xc.format_matrix(xc.BinaryMatrix(a)))
        code, out, _ = run(capsys, "simulate", str(path), "--p", "0.02",
                           "--trials", "50000", "--seed", "3")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines()[1:])
        assert lines["estimate"] == "0.0" and lines["stderr"] == "0.0"
        assert abs(float(lines["z"])) < 1  # finite, and near 0


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("exact_vd", "sampled_vd", "search_family", "simulate_ps"):
        monkeypatch.setattr(f"xorcodes.cli.{name}", refuse)


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["eval", GOLDEN],
        ["eval", GOLDEN, "--samples", "100", "--max-subsets", "100"],
        ["search", "--n", "10", "--k", "4", "--attempts", "1"],
        ["simulate", GOLDEN, "--p", "0.1"],
    ], ids=["eval-exact", "eval-sampled", "search", "simulate"])
    def test_negative_seed_refused_while_parsing(self, capsys, no_work, argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--seed", "-1"])
        assert exit_.value.code == 2
        assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["eval", GOLDEN],
        ["search", "--n", "10", "--k", "4", "--attempts", "1"],
        ["simulate", GOLDEN, "--p", "0.1"],
    ], ids=["eval", "search", "simulate"])
    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "2.5"), ("--max-subsets", "0"), ("--max-subsets", "-1"),
    ])
    def test_bad_count_refused_while_parsing(self, capsys, no_work, argv, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, flag, value])
        assert exit_.value.code == 2
        want = f"argument {flag}: expected an integer >= 1, got {value!r}"
        assert want in capsys.readouterr().err


class TestManifest:
    def test_header_is_json_comment(self, capsys):
        import json

        _, out, _ = run(capsys, "eval", GOLDEN, "--out-sweep", "/dev/null")
        head = out.splitlines()[0]
        m = json.loads(head[2:])
        assert m["artifact"] == "xorcodes"
        assert m["subcommand"] == "eval"
        assert m["version"] == xc.__version__
        assert m["inputs"] == [GOLDEN]

    @pytest.mark.parametrize("argv", [
        ["eval", GOLDEN, "--out-sweep", "/dev/null"],
        ["baseline", "--n", "6", "--k", "3", "--out-sweep", "/dev/null"],
        ["search", "--n", "5", "--k", "3", "--k1", "1", "--attempts", "1",
         "--max-climb-steps", "1"],
        ["simulate", GOLDEN, "--p", "0.1", "--trials", "10"],
    ], ids=lambda argv: argv[0])
    def test_config_holds_every_flag(self, capsys, argv):
        import json

        subs = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in subs.choices[argv[0]]._actions
                 if a.dest not in ("help", "seed") and not a.dest.startswith("out")}
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert set(json.loads(out.splitlines()[0][2:])["config"]) == flags

    def test_eval_rerun_identical(self, capsys, tmp_path):
        vd_path = tmp_path / "vd.csv"
        argv = ["eval", GOLDEN, "--out-vd", str(vd_path), "--out-sweep", "/dev/null"]
        assert main(argv) == 0
        first = vd_path.read_bytes()
        assert main(argv) == 0
        assert vd_path.read_bytes() == first
        capsys.readouterr()


class TestPinnedOutputs:
    # SHA-256 of each command's stdout and of each file it writes, manifests
    # included; a change that keeps counts and draws identical leaves them as they are
    DIGESTS = {
        "eval-13-5": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eval-20-5": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eval-16-12": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "search": "c06f962298df29c7c273c5c752ef34124fe61ec233074be7c11c2edfcbd38d0d",
        "simulate": "b7f96ed920e5573cd9fde256091fc3d1e07586f834c352b67b33d89574135c12",
        "baseline-108-100": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "baseline-64-56": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a.csv": "8f23595773269a68deea0cc88ea0fefded75eaabb5ce4ba346ccb6ac84ad84c0",
        "b.csv": "c78f1070a317a73ebcc142eb7bfc133d060e04146a7c2d1e10e5a226f55304ac",
        "c.csv": "4b258a3328f015f501fd846bb3caa089dbd4f4817d5df9c992ede5ac45c1d432",
        "d.csv": "1c7a46c6d8c677d190b1a730d3b29c045295a918c24dd2000d39989805f13b2b",
        "e.csv": "b115a907f06f207fb2b811af0e30fef9c672ac3087b2cd097e7e7c6738b42bc4",
        "f.csv": "9a07a7c61bbcf23ba95495b16c2f3215bac454926413acbc8733db70b5392b36",
        "g.txt": "fc5a4104bea2abe1423e14805677c251061bbb47a55f3c4ecb63bd6d52224301",
        "h.csv": "5de6b6729841bd1e013f4c2244eb4dbf7355cab2c79ad4aa58d36077d6c91491",
        "i.csv": "27370feb098834147d642091a3fcb5a32506462ab74f60d543b1b9d3382efff7",
        "j.csv": "8616bdca770f64d2e32d53a9a835a52ccb6f39e6f405d57f3385d00e1b0d82bd",
        "k.csv": "7cdedc151d7e485c341ed19f5c980867d6dcefb5ae52ad43b68bb976bc592509",
    }

    def test_outputs_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(GOLDEN, "g_13_5.txt")
        # [20,5] with entries m = 7..13 sampled between enumerated ones
        (tmp_path / "g_20_5.txt").write_text(
            xc.format_matrix(xc.random_matrix(5, 20, np.random.default_rng(12))))
        # a full-rank [16,12], counted on its 4-row dual
        (tmp_path / "g_16_12.txt").write_text(
            xc.format_matrix(xc.random_matrix(12, 16, np.random.default_rng(0))))
        runs = {
            "eval-13-5": ["eval", "g_13_5.txt", "--out-vd", "a.csv", "--out-sweep", "b.csv"],
            "eval-20-5": ["eval", "g_20_5.txt", "--samples", "300", "--max-subsets", "50000",
                          "--seed", "9", "--out-vd", "c.csv", "--out-sweep", "d.csv"],
            "eval-16-12": ["eval", "g_16_12.txt", "--samples", "200", "--max-subsets", "100",
                           "--seed", "4", "--out-vd", "e.csv", "--out-sweep", "f.csv"],
            "search": ["search", "--n", "9", "--k", "4", "--attempts", "5", "--seed", "3",
                       "--out", "g.txt"],
            "simulate": ["simulate", "g_13_5.txt", "--p", "0.1", "--trials", "20000",
                         "--seed", "3"],
            # n > 60: every loss term takes the logarithm route
            "baseline-108-100": ["baseline", "--n", "108", "--k", "100",
                                 "--out-vd", "h.csv", "--out-sweep", "i.csv"],
            "baseline-64-56": ["baseline", "--n", "64", "--k", "56",
                               "--out-vd", "j.csv", "--out-sweep", "k.csv"],
        }
        got = {}
        for name, argv in runs.items():
            assert main(argv) == 0
            got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        for path in sorted(tmp_path.glob("?.*")):
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == self.DIGESTS
