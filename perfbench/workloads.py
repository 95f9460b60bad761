"""The three benchmark workloads: inputs made from a seed, CLI calls, oracles.

Every workload does the same amount of work for every seed: the seed picks
matrix contents, erasure probabilities and RNG streams, never sizes, so
run-to-run spread measures the code rather than the draw.

- search: c7's shape scaled down.  [13,5], k1 = 3, algorithm 2.  Every
  restart runs exactly its 40-proposal budget (the stagnation limit is
  also 40), so the evaluation count is fixed.  Thousands of small
  exact_vd calls on the cached-plan path, each one tiny k = 5 rank_batch.
- eval-highrate: c8's shape.  One exact structured [44,40] code takes the
  per-size enumeration path (~150k wide 1-limb subsets).  One sampled
  structured [108,100] code takes the 2-limb kernel and the sampler; its
  tail entries stay exact.  Plus the two analytic baselines.
- simulate: c4's shape.  Three random small codes at 10^6 trials, then one
  random [64,56] code at one full 65,536-trial chunk with a sampled
  analytic reference.  This exercises the Monte Carlo chunk loop and its
  memory.

Each check returns (name, ok, detail).  The oracles use only gf2ref.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gf2ref

NAMES = ("search", "eval-highrate", "simulate")

SCALES = {
    "full": {
        "search": {"n": 13, "k": 5, "k1": 3, "attempts": 12, "steps": 40},
        "eval-highrate": {"exact": (40, 44), "sampled": (100, 108), "samples": 1000,
                          "max_subsets": 10_000},
        "simulate": {"small": [(4, 8), (5, 10), (5, 13)], "small_trials": 1_000_000,
                     "big": (56, 64), "big_trials": 65_536, "big_p": 0.005,
                     "samples": 2000, "max_subsets": 1000},
    },
    "smoke": {
        "search": {"n": 8, "k": 4, "k1": 3, "attempts": 2, "steps": 3},
        "eval-highrate": {"exact": (8, 12), "sampled": (12, 20), "samples": 200,
                          "max_subsets": 200},
        "simulate": {"small": [(3, 6)], "small_trials": 20_000,
                     "big": (16, 24), "big_trials": 4096, "big_p": 0.02,
                     "samples": 200, "max_subsets": 300},
    },
}

Z_LIMIT = 5.0
ORACLE_SAMPLES = 20_000
TOL = 2e-9  # the CLI prints 9 significant digits


@dataclass
class Call:
    argv: list[str]
    outputs: list[str]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload)])


def _write(workdir: Path, name: str, rows) -> str:
    (workdir / name).write_text(gf2ref.format_matrix(rows))
    return name


def prepare(workload: str, seed: int, scale: str, workdir: Path) -> list[Call]:
    """Generate the workload's inputs into workdir and return its CLI calls."""
    cfg = SCALES[scale][workload]
    rng = _rng(seed, workload)
    if workload == "search":
        argv = ["search", "--n", str(cfg["n"]), "--k", str(cfg["k"]), "--k1", str(cfg["k1"]),
                "--algorithm", "2", "--attempts", str(cfg["attempts"]),
                "--max-climb-steps", str(cfg["steps"]), "--stagnation-limit", str(cfg["steps"]),
                "--seed", str(seed), "--out", "family.txt"]
        return [Call(argv, ["family.txt"])]
    if workload == "eval-highrate":
        calls = []
        for tag, extra in (("exact", []),
                           ("sampled", ["--samples", str(cfg["samples"]),
                                        "--max-subsets", str(cfg["max_subsets"]),
                                        "--seed", str(seed)])):
            k, n = cfg[tag]
            m = _write(workdir, f"{tag}.txt", gf2ref.balanced_structured(k, n, 3, rng))
            calls.append(Call(["eval", m, *extra, "--out-vd", f"{tag}_vd.csv",
                               "--out-sweep", f"{tag}_sweep.csv"],
                              [f"{tag}_vd.csv", f"{tag}_sweep.csv"]))
            calls.append(Call(["baseline", "--n", str(n), "--k", str(k),
                               "--out-vd", f"{tag}_base_vd.csv",
                               "--out-sweep", f"{tag}_base_sweep.csv"],
                              [f"{tag}_base_vd.csv", f"{tag}_base_sweep.csv"]))
        return calls
    if workload == "simulate":
        calls = []
        for i, (k, n) in enumerate(cfg["small"]):
            m = _write(workdir, f"small{i}.txt", gf2ref.random_full_rank(k, n, rng))
            p = round(float(rng.uniform(0.05, 0.3)), 4)
            calls.append(Call(["simulate", m, "--p", str(p), "--trials", str(cfg["small_trials"]),
                               "--seed", str(seed + i)], []))
        k, n = cfg["big"]
        m = _write(workdir, "big.txt", gf2ref.random_full_rank(k, n, rng))
        calls.append(Call(["simulate", m, "--p", str(cfg["big_p"]),
                           "--trials", str(cfg["big_trials"]), "--samples", str(cfg["samples"]),
                           "--max-subsets", str(cfg["max_subsets"]), "--seed", str(seed)], []))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


# ---- output checks ---------------------------------------------------------


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _csv(text: str) -> tuple[dict, list[list[str]]]:
    lines = text.splitlines()
    if not lines[0].startswith("# {"):
        raise ValueError("missing manifest line")
    return json.loads(lines[0][2:]), [line.split(",") for line in lines[2:]]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _z(hits_a: int, n_a: int, hits_b: int, n_b: int) -> float:
    """Two-sample z-score of two binomial proportions, pooled variance."""
    pooled = (hits_a + hits_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    diff = hits_a / n_a - hits_b / n_b
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def _check_sweep(name, sweep_text, n, k, rho):
    _, rows = _csv(sweep_text)
    bad = [r[0] for r in rows
           if not (_close(float(r[1]), gf2ref.p_success(n, k, rho, float(r[0])))
                   and _close(float(r[1]) + float(r[2]), 1.0))]
    return (name, not bad and len(rows) == 51, f"{len(rows)} points, mismatches at p={bad[:3]}")


def _check_baseline(tag, workdir, n, k):
    _, rows = _csv((workdir / f"{tag}_base_vd.csv").read_text())
    want = gf2ref.rlnc_rho(n, k)
    ok = len(rows) == len(want) and all(_close(float(r[1]), w) for r, w in zip(rows, want))
    checks = [(f"{tag} baseline rho", ok, f"[{n},{k}]")]
    checks.append(_check_sweep(f"{tag} baseline sweep",
                               (workdir / f"{tag}_base_sweep.csv").read_text(), n, k, want))
    return checks


def _check_search(workdir: Path, argvs: list[list[str]], stdouts: list[str], seed: int):
    argv = argvs[0]
    n, k, k1 = int(_arg(argv, "--n")), int(_arg(argv, "--k")), int(_arg(argv, "--k1"))
    lines = (workdir / "family.txt").read_text().split("\n")
    manifest = json.loads(lines[0][2:])
    declared = int(lines[1].split("=")[1])
    records = "\n".join(lines[2:]).strip("\n").split("\n\n")
    checks = [("family size", len(records) == declared and manifest["master_seed"] == seed,
               f"{len(records)} records, header says {declared}")]
    members = []
    for rec in records:
        rl = rec.split("\n")
        rows = gf2ref.parse_matrix(rl[:k + 1])
        rho = [float(x) for x in rl[k + 1].split(",")]
        counts = gf2ref.brute_force_counts(gf2ref.columns(rows), k)
        exact = [counts[m] / math.comb(n, m) for m in range(k, n + 1)]
        block = [row[:k] for row in rows]
        balanced = (all(sum(r) == k1 for r in block)
                    and all(sum(r[j] for r in block) == k1 for j in range(k)))
        nonsingular = gf2ref.rank(gf2ref.columns(block)) == k
        ones = all(r[k] == 1 for r in rows)
        ok = all(_close(a, b) for a, b in zip(rho, exact)) and len(rho) == len(exact)
        checks.append((f"member {len(members)} recount and invariants",
                       ok and balanced and nonsingular and ones,
                       f"recount={ok} balanced={balanced} nonsingular={nonsingular} ones={ones}"))
        members.append(([counts[m] for m in range(k, n + 1)], exact))
    dominated = [(i, j) for i, (a, _) in enumerate(members) for j, (b, _) in enumerate(members)
                 if i != j and all(x >= y for x, y in zip(a, b))]
    checks.append(("family mutually nondominated", not dominated, f"dominated pairs {dominated[:3]}"))
    ref_p = manifest["config"]["ref_p"]
    scores = [gf2ref.p_success(n, k, exact, ref_p) for _, exact in members]
    out = dict(line.split("=", 1) for line in stdouts[0].splitlines())
    best_vd = [float(x) for x in out["best_vd"].split(",")]
    ok = (all(a >= b - TOL for a, b in zip(scores, scores[1:]))
          and _close(float(out["best_score"]), scores[0])
          and all(_close(a, b) for a, b in zip(best_vd, members[0][1])))
    checks.append(("family order and best score", ok, f"best={out['best_score']}"))
    return checks


def _check_eval(workdir: Path, argvs: list[list[str]], stdouts: list[str], seed: int):
    checks = []
    for tag, argv in (("exact", argvs[0]), ("sampled", argvs[2])):
        rows = gf2ref.parse_matrix((workdir / argv[1]).read_text().splitlines())
        k, n = len(rows), len(rows[0])
        hcols = gf2ref.parity_check_columns(rows)
        _, vd_rows = _csv((workdir / f"{tag}_vd.csv").read_text())
        rho = [float(r[1]) for r in vd_rows]
        se = [float(r[3]) for r in vd_rows]
        samples = int(_arg(argv, "--samples")) if tag == "sampled" else 0
        bad = []
        for i, row in enumerate(vd_rows):
            j = n - k - i
            if row[2] == "exact":
                want = gf2ref.independent_subsets(hcols, j) / math.comb(n, k + i)
                if not (_close(rho[i], want) and se[i] == 0.0):
                    bad.append((i, "exact", rho[i], want))
            else:
                hits = gf2ref.sampled_independent(hcols, j, ORACLE_SAMPLES,
                                                  np.random.default_rng([seed, 99, i]))
                z = _z(round(rho[i] * samples), samples, hits, ORACLE_SAMPLES)
                want_se = math.sqrt(rho[i] * (1.0 - rho[i]) / samples)
                if abs(z) > Z_LIMIT or not _close(se[i], want_se, 1e-8):
                    bad.append((i, "sampled", rho[i], hits / ORACLE_SAMPLES, round(z, 2)))
        modes_ok = len(vd_rows) == n - k + 1 and (tag == "sampled" or
                                                  all(r[2] == "exact" for r in vd_rows))
        checks.append((f"{tag} [{n},{k}] entries vs dual oracle", modes_ok and not bad,
                       f"mismatches {bad[:3]}"))
        drops = [i for i in range(len(rho) - 1)
                 if rho[i] > rho[i + 1] + Z_LIMIT * math.hypot(se[i], se[i + 1])]
        checks.append((f"{tag} rho nondecreasing", not drops, f"drops after entries {drops}"))
        checks.append(_check_sweep(f"{tag} sweep",
                                   (workdir / f"{tag}_sweep.csv").read_text(), n, k, rho))
        checks.extend(_check_baseline(tag, workdir, n, k))
    return checks


def _check_simulate(workdir: Path, argvs: list[list[str]], stdouts: list[str], seed: int):
    checks = []
    for argv, out_text in zip(argvs, stdouts):
        rows = gf2ref.parse_matrix((workdir / argv[1]).read_text().splitlines())
        k, n = len(rows), len(rows[0])
        p, trials = float(_arg(argv, "--p")), int(_arg(argv, "--trials"))
        out = dict(line.split("=", 1) for line in out_text.splitlines()[1:])
        est, se, analytic = float(out["estimate"]), float(out["stderr"]), float(out["analytic_ps"])
        if "--samples" not in argv:
            counts = gf2ref.brute_force_counts(gf2ref.columns(rows), k)
            rho = [counts[m] / math.comb(n, m) for m in range(k, n + 1)]
            lo = hi = gf2ref.p_success(n, k, rho, p)
            analytic_ok = _close(analytic, lo)
        else:
            # Entries with at most 4 erasures are counted exactly through the
            # dual; the rest are only known to lie in [0, 1], which brackets p_s.
            hcols = gf2ref.parity_check_columns(rows)
            known = {i: gf2ref.independent_subsets(hcols, i) / math.comb(n, i)
                     for i in range(min(4, n - k) + 1)}
            terms = [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(n + 1)]
            lo = sum(terms[i] * known[i] for i in known)
            hi = lo + sum(terms[i] for i in range(len(known), n - k + 1))
            samples = int(_arg(argv, "--samples"))
            se_analytic = math.sqrt(sum(t * t for t in terms) * 0.25 / samples)
            analytic_ok = lo - Z_LIMIT * se_analytic <= analytic <= hi + Z_LIMIT * se_analytic
        mid = (lo + hi) / 2
        sim_se = math.sqrt(mid * (1.0 - mid) / trials)
        gap = max(lo - est, est - hi, 0.0)
        z_ok = gap <= Z_LIMIT * sim_se if sim_se > 0 else gap == 0.0
        se_ok = _close(se, math.sqrt(est * (1.0 - est) / trials), 1e-8)
        checks.append((f"simulate {argv[1]} [{n},{k}] p={p}", z_ok and se_ok and analytic_ok,
                       f"estimate={est} exact p_s in [{lo:.9f}, {hi:.9f}] analytic={analytic}"))
    return checks


_CHECKS = {"search": _check_search, "eval-highrate": _check_eval, "simulate": _check_simulate}


def check(workload: str, workdir: Path, argvs: list[list[str]], stdouts: list[str], seed: int):
    """Oracle checks of one job's outputs; an exception is one failed check."""
    try:
        return _CHECKS[workload](workdir, argvs, stdouts, seed)
    except Exception as e:  # a malformed output must count as a failure, not abort the run
        return [(f"{workload} outputs parse", False, f"{type(e).__name__}: {e}")]
