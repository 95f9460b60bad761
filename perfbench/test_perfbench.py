"""Tests of the benchmark itself: python3 -m pytest -q perfbench (from the repo root)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gf2ref  # noqa: E402
import tracing  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_mode_emits_every_metric_with_its_unit():
    out = _run(ROOT, "--smoke")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert out.stdout.splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_dual_count_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, n))
        rows = gf2ref.random_full_rank(k, n, rng)
        primal = gf2ref.brute_force_counts(gf2ref.columns(rows), k)
        hcols = gf2ref.parity_check_columns(rows)
        for m in range(k, n + 1):
            assert gf2ref.independent_subsets(hcols, n - m) == primal[m]


def test_balanced_structured_invariants():
    rows = gf2ref.balanced_structured(9, 14, 3, np.random.default_rng(3))
    block = [r[:9] for r in rows]
    assert all(sum(r) == 3 for r in block)
    assert all(sum(r[j] for r in block) == 3 for j in range(9))
    assert gf2ref.rank(gf2ref.columns(block)) == 9
    assert all(r[9] == 1 for r in rows)


def test_self_times_add_up_to_root_span():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    spans = [["cli", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
             ["b", 5.0, 9.0, 0, None], ["c", 6.0, 7.0, 2, None]]
    own = tracing.self_times(spans)
    assert own == [3.0, 3.0, 3.0, 1.0]
    assert math.isclose(sum(own), 10.0)


def test_recorder_wraps_call_sites_and_counts(tmp_path):
    code = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing, xorcodes.cli\n"
        "r = tracing.Recorder('t'); r.install()\n"
        "import xorcodes.search as s\n"
        "assert s.exact_vd.__wrapped__ is not None and not r.notes\n"
        "r.call('cli', xorcodes.cli.main, ['search', '--n', '7', '--k', '3', '--k1', '1',\n"
        "       '--attempts', '2', '--max-climb-steps', '3', '--out', sys.argv[3]])\n"
        "print(json.dumps(tracing.layer_metrics(r, 1.0, 0)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src"),
                          str(tmp_path / "family.txt")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    m = json.loads(out.stdout.splitlines()[-1])
    assert m["search.restarts"] == 2
    assert m["search.evaluations"] == m["search.proposals"] + 2
    assert m["decoding.exact_vd.calls"] == m["search.evaluations"]
    assert m["decoding.exact_vd.subsets"] == m["search.evaluations"] * sum(
        math.comb(7, j) for j in range(3, 8))
    assert m["gf2.rank_batch.sets"] == m["decoding.exact_vd.subsets"]
