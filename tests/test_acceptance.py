"""Exit criteria for the deliverable.

Each test covers one acceptance criterion and prints a single pass/fail
line (run with ``pytest -s`` to see them as they complete).  Tolerances
and runtime budgets are pinned here; seeds are fixed so every run checks
the same computation.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import xorcodes as xc
from conftest import EXAMPLE_SQUARE, TESTDATA

ROUNDED_13_5 = (0.615, 0.895, 0.979, 0.998, 1.0, 1.0, 1.0, 1.0, 1.0)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def test_c1_golden_decoding_vector(g135):
    t0 = time.perf_counter()
    vd = xc.exact_vd(g135)
    elapsed = time.perf_counter() - t0
    ok = vd.rounded() == ROUNDED_13_5 and elapsed < 1.0
    _report(1, "golden [13,5] decoding vector", ok,
            f"{vd.rounded()} in {elapsed * 1000:.0f} ms")


def _oracle_rank(mat: np.ndarray) -> int:
    """Dense textbook elimination, independent of the packed-word path."""
    m = mat.copy()
    nr, nc = m.shape
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        for i in range(nr):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
    return r


def _oracle_counts(a: np.ndarray) -> dict[int, int]:
    """Enumerate all 2^n erasure patterns and bucket full-rank ones by size."""
    k, n = a.shape
    counts = dict.fromkeys(range(k, n + 1), 0)
    for pattern in range(2 ** n):
        size = pattern.bit_count()
        if size < k:
            continue
        cols = [j for j in range(n) if pattern >> j & 1]
        if _oracle_rank(a[:, cols]) == k:
            counts[size] += 1
    return counts


def test_c2_brute_force_oracle_equivalence():
    rng = np.random.default_rng(20250822)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        G = xc.random_matrix(k, n, rng)
        vd = xc.exact_vd(G)
        want = _oracle_counts(G.to_array())
        got = dict(zip(range(k, n + 1), vd.counts))
        assert got == want, f"counts mismatch for a {k}x{n} matrix"
        assert vd.totals == tuple(math.comb(n, m) for m in range(k, n + 1))
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(2, "brute-force oracle equivalence", checked == 200 and elapsed < 30.0,
            f"{checked} matrices in {elapsed:.1f} s")


def test_c3_analytic_baseline():
    exact_ok = xc.rlnc_P(5, 5, 2) == 0.298004150390625
    strict_i = True
    strict_q = True
    for k in range(1, 11):
        per_q = {q: xc.rlnc_vd(k + 6, k, q).rho for q in (2, 4, 8)}
        for rho in per_q.values():
            strict_i &= bool((np.diff(rho) > 0).all())
        for i in range(7):
            strict_q &= per_q[2][i] < per_q[4][i] < per_q[8][i]
    ok = exact_ok and strict_i and strict_q
    _report(3, "analytic random-code baseline", ok,
            f"exact={exact_ok} strict_i={strict_i} strict_q={strict_q}")


def test_c4_channel_formula_vs_monte_carlo():
    rng = np.random.default_rng(20250822)
    t0 = time.perf_counter()
    hits = 0
    for _ in range(50):
        n = int(rng.integers(6, 14))
        k = int(rng.integers(2, n))
        G = xc.random_matrix(k, n, rng)
        p = float(rng.uniform(0.02, 0.5))
        truth = xc.p_success(xc.exact_vd(G), p).p_s
        res = xc.simulate_ps(G, p, 1_000_000, rng)
        se = math.sqrt(truth * (1.0 - truth) / res.trials)
        if se == 0.0:
            hits += res.estimate == truth
        else:
            hits += abs(res.estimate - truth) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    _report(4, "channel formula consistency", hits >= 48 and elapsed < 300.0,
            f"{hits}/50 within 3 se in {elapsed:.1f} s")


def test_c5_monotonicity_suite(g135, vd135):
    grid = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(5)

    def counts_monotone(vd):
        fracs = [Fraction(c, t) for c, t in zip(vd.counts, vd.totals)]
        return all(a <= b for a, b in zip(fracs, fracs[1:]))

    rho_ok = counts_monotone(vd135)
    ps_ok = True
    codes = [vd135, xc.rlnc_vd(13, 5, 2), xc.rlnc_vd(13, 5, 4)]
    for _ in range(30):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, n + 1))
        vd = xc.exact_vd(xc.random_matrix(k, n, rng))
        rho_ok &= counts_monotone(vd)
        codes.append(vd)
    for vd in codes:
        rho_ok &= bool((np.diff(vd.rho) >= -1e-12).all())
        values = [xc.p_success(vd, p).p_s for p in grid]
        ps_ok &= all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    transfer_ok = True
    for _ in range(100):
        n = int(rng.integers(6, 15))
        k = int(rng.integers(2, n))
        lower = np.sort(rng.uniform(0, 1, n - k + 1))
        shrink = float(rng.uniform(0, 1))
        upper = 1.0 - (1.0 - lower) * shrink
        b = xc.DecodingVector(n, k, lower)
        a = xc.DecodingVector(n, k, upper)
        assert xc.dominates(a, b)
        for p in grid:
            if xc.p_success(a, p).p_s < xc.p_success(b, p).p_s - 1e-12:
                transfer_ok = False
                break
    ok = rho_ok and ps_ok and transfer_ok
    _report(5, "monotonicity suite", ok,
            f"rho={rho_ok} p_s={ps_ok} transfer={transfer_ok}")


def test_c6_balanced_construction(m55):
    L = xc.LatinSquare(np.array(EXAMPLE_SQUARE))
    example_ok = xc.incidence_matrix(xc.top_rectangle(L, 3)) == m55

    sums_ok = True
    for k in (3, 5, 7, 9):
        for k1 in range(1, k + 1, 2):
            sq = xc.random_latin_square(k, np.random.default_rng(k * 37 + k1))
            M = xc.incidence_matrix(xc.top_rectangle(sq, k1))
            sums_ok &= bool((M.array.sum(axis=0) == k1).all())
            sums_ok &= bool((M.array.sum(axis=1) == k1).all())

    even_ok = True
    for k in (4, 5, 6, 7, 8):
        for k1 in (2, 4):
            if k1 > k:
                continue
            for seed in range(3):
                L = xc.random_latin_square(k, np.random.default_rng(seed + k))
                M = xc.incidence_matrix(xc.top_rectangle(L, k1))
                even_ok &= not xc.is_nonsingular(M)

    mds_ok = True
    for k in (3, 5, 7):
        # k1 = k gives the all-ones block, so k = 3 needs weight 1
        cfg = xc.SearchConfig(n=k + 4, k=k, k1=1 if k == 3 else 3, attempts=1, master_seed=0)
        for seed in range(3):
            c = xc.init_balanced(cfg, np.random.default_rng(seed))
            sub = xc.select_columns(c.G, range(k + 1))
            vd = xc.exact_vd(sub)
            mds_ok &= vd.counts == vd.totals

    ok = example_ok and sums_ok and even_ok and mds_ok
    _report(6, "balanced construction suite", ok,
            f"example={example_ok} sums={sums_ok} even_singular={even_ok} mds={mds_ok}")


def test_c7_search_dominates_baseline():
    cfg = xc.SearchConfig(n=13, k=5, k1=3, attempts=500, master_seed=20250822)
    t0 = time.perf_counter()
    family = xc.search_family(cfg, algorithm=2)
    elapsed = time.perf_counter() - t0
    best = family[0]
    dominated = xc.dominates(best.vd, xc.rlnc_vd(13, 5, 2))
    ok = dominated and elapsed < 600.0
    _report(7, "search dominates analytic baseline", ok,
            f"best={best.vd.rounded()} family={len(family)} in {elapsed:.0f} s")


def test_c8_large_code_sampling():
    rng = np.random.default_rng(20250822)
    R = xc.random_nonsingular_rectangle(100, 3, rng)
    a = np.zeros((100, 108), dtype=np.uint8)
    a[:, :100] = xc.incidence_matrix(R).array.T
    a[:, 100] = 1
    a[:, 101:] = rng.integers(0, 2, size=(100, 7), dtype=np.uint8)
    G = xc.BinaryMatrix(a)
    t0 = time.perf_counter()
    vd = xc.sampled_vd(G, 10_000, np.random.default_rng(7))
    elapsed = time.perf_counter() - t0
    monotone = bool((np.diff(vd.rho) >= -1e-12).all())
    tail_exact = bool(vd.exact_entries[5:].all())
    ok = monotone and tail_exact and elapsed < 300.0
    _report(8, "large-code sampled feasibility", ok,
            f"rho[0]={vd.rho[0]:.4f} rho[4]={vd.rho[4]:.4f} in {elapsed:.0f} s")


def test_c9_cli_determinism(tmp_path, capsys):
    from xorcodes.cli import main

    golden = str(TESTDATA / "g_13_5.txt")
    all_ok = True

    vd_path, sweep_path = tmp_path / "vd.csv", tmp_path / "sweep.csv"
    argv = ["eval", golden, "--out-vd", str(vd_path), "--out-sweep", str(sweep_path)]
    assert main(argv) == 0
    first = (vd_path.read_bytes(), sweep_path.read_bytes())
    assert main(argv) == 0
    all_ok &= (vd_path.read_bytes(), sweep_path.read_bytes()) == first

    argv = ["baseline", "--n", "13", "--k", "5", "--q", "2",
            "--out-vd", str(vd_path), "--out-sweep", str(sweep_path)]
    assert main(argv) == 0
    first = (vd_path.read_bytes(), sweep_path.read_bytes())
    assert main(argv) == 0
    all_ok &= (vd_path.read_bytes(), sweep_path.read_bytes()) == first

    fam_path = tmp_path / "family.txt"
    argv = ["search", "--n", "13", "--k", "5", "--k1", "3", "--attempts", "5",
            "--seed", "17", "--out", str(fam_path)]
    assert main(argv) == 0
    first_fam = fam_path.read_bytes()
    assert main(argv) == 0
    all_ok &= fam_path.read_bytes() == first_fam

    argv = ["simulate", golden, "--p", "0.1", "--trials", "20000", "--seed", "3"]
    capsys.readouterr()
    assert main(argv) == 0
    first_out = capsys.readouterr().out
    assert main(argv) == 0
    all_ok &= capsys.readouterr().out == first_out

    _report(9, "CLI rerun determinism", bool(all_ok), "eval, baseline, search, simulate")
