"""Command-line front end.

Four subcommands: ``eval`` computes decoding vectors and channel sweeps
for a matrix file, ``search`` runs the stochastic code search, ``baseline``
emits the analytic random-code reference curves, and ``simulate`` runs the
Monte Carlo channel check.  Every output starts with a single comment line
holding the run manifest (resolved configuration, seed, artifact version,
paths), so rerunning the same command reproduces the file byte for byte.
The parser is built once per process, at import, and every ``main`` call
reuses it; each option shared by two or more subcommands is declared once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .decoding import (
    EXACT_ENUMERATION_LIMIT,
    channel_sweep,
    exact_vd,
    format_float,
    p_success,
    rlnc_vd,
    sampled_vd,
    simulate_ps,
    sweep_csv,
    vd_csv,
)
from .gf2 import format_matrix, parse_matrix
from .search import SearchConfig, search_family

__all__ = ["main"]


class _CliError(Exception):
    pass


# --seed is the manifest's master_seed and --out* its outputs
_NOT_CONFIG = {"seed", "func", "subcommand"}
# a p grid this long is a mistyped --p-step, not a sweep anyone reads
_MAX_GRID_POINTS = 10**6


def _manifest_line(args, master_seed, inputs, outputs) -> str:
    config = {key: value for key, value in vars(args).items()
              if key not in _NOT_CONFIG and not key.startswith("out")}
    m = {
        "artifact": "xorcodes",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": config,
        "master_seed": master_seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
    }
    return "# " + json.dumps(m, sort_keys=True) + "\n"


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e.strerror or e}")


def _check_outputs(args) -> None:
    """Refuse bad --out* paths before any work.

    A path may not be a directory or lie in a missing one, and two may not
    resolve to one regular file, where the second write would replace the first.
    """
    seen = {}
    for key, path in vars(args).items():
        if not key.startswith("out") or path == "-":
            continue
        if Path(path).is_dir():
            raise _CliError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise _CliError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).exists() and not Path(path).is_file():
            continue
        flag = "--" + key.replace("_", "-")
        other = seen.setdefault(Path(path).resolve(), flag)
        if other != flag:
            raise _CliError(f"{other} and {flag} both name {Path(path).resolve()}; "
                            f"give each output its own file")


def _read_matrix(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e.strerror or e}")
    return parse_matrix(text)


def _p_grid(p_min: float, p_max: float, p_step: float) -> list[float]:
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise _CliError(f"need 0 <= p-min <= p-max <= 1, got {p_min}..{p_max}")
    if not p_step > 0:
        raise _CliError(f"p-step must be positive, got {p_step}")
    if not (p_max - p_min) / p_step < _MAX_GRID_POINTS:
        raise _CliError(f"--p-step {p_step} makes more than {_MAX_GRID_POINTS} points "
                        f"over {p_min}..{p_max}")
    count = int(round((p_max - p_min) / p_step)) + 1
    grid = [min(p_min + i * p_step, p_max) for i in range(count)]
    if grid[-1] < p_max - 1e-12:
        grid.append(p_max)
    return grid


def _vd_for(G, samples, seed, max_subsets):
    if samples is not None:
        return sampled_vd(G, samples, seed, max_subsets=max_subsets)
    return exact_vd(G, max_subsets=max_subsets)


def _emit_vd_and_sweep(args, vd, grid, master_seed, inputs) -> int:
    """Write the vector CSV and its channel sweep over the --p-* grid.

    If the sweep cannot be written, the vector file just written is removed,
    so that a failed command leaves no half result.  Only a regular file
    goes: stdout, a device or a symlink named by --out-vd is left alone.
    """
    sweep = channel_sweep(vd, grid)
    head = _manifest_line(args, master_seed, inputs, [args.out_vd, args.out_sweep])
    _emit(args.out_vd, head + vd_csv(vd))
    try:
        _emit(args.out_sweep, head + sweep_csv(sweep))
    except _CliError:
        written = Path(args.out_vd)
        if args.out_vd != "-" and written.is_file() and not written.is_symlink():
            written.unlink()
        raise
    return 0


def _cmd_eval(args) -> int:
    G = _read_matrix(args.matrix)
    grid = _p_grid(args.p_min, args.p_max, args.p_step)
    vd = _vd_for(G, args.samples, args.seed, args.max_subsets)
    return _emit_vd_and_sweep(args, vd, grid, args.seed if args.samples else None, [args.matrix])


def _cmd_baseline(args) -> int:
    grid = _p_grid(args.p_min, args.p_max, args.p_step)
    return _emit_vd_and_sweep(args, rlnc_vd(args.n, args.k, args.q), grid, None, [])


def _provenance_line(prov: dict) -> str:
    keys = ["algorithm", "restart", "master_seed", "k1", "latin", "climb_steps"]
    parts = [f"{key}={prov[key]}" for key in keys if key in prov]
    return " ".join(parts)


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        n=args.n,
        k=args.k,
        k1=args.k1,
        reference_p=args.ref_p,
        attempts=args.attempts,
        max_climb_steps=args.max_climb_steps,
        stagnation_limit=args.stagnation_limit,
        master_seed=args.seed,
        samples=args.samples,
        max_subsets=args.max_subsets,
    )
    family = search_family(cfg, algorithm=args.algorithm)
    head = _manifest_line(args, cfg.master_seed, [], [args.out])
    records = []
    for c in family:
        vd_line = ",".join(format_float(x) for x in c.vd.rho)
        records.append(format_matrix(c.G) + vd_line + "\n" + _provenance_line(c.provenance) + "\n")
    _emit(args.out, head + f"# candidates={len(family)}\n" + "\n".join(records))
    best = family[0]
    print(f"best_score={format_float(best.score)}")
    print("best_vd=" + ",".join(format_float(x) for x in best.vd.rho))
    return 0


def _cmd_simulate(args) -> int:
    # simulate_ps refuses these too, but only after the reference vector is built
    if not 0.0 <= args.p <= 1.0:
        raise _CliError(f"erasure probability must be in [0, 1], got {args.p}")
    if args.trials < 1:
        raise _CliError(f"trials must be >= 1, got {args.trials}")
    G = _read_matrix(args.matrix)
    # the reference comes first so that a code it refuses costs no trials;
    # its seed differs from the simulation's, so the order changes no draw
    vd = _vd_for(G, args.samples, args.seed + 1, args.max_subsets)
    analytic = p_success(vd, args.p).p_s
    result = simulate_ps(G, args.p, args.trials, args.seed)
    if result.stderr > 0:
        z = (result.estimate - analytic) / result.stderr
    else:
        # a run that always or never decodes has no spread of its own:
        # measure the gap by the spread the analytic value predicts
        null_stderr = math.sqrt(max(0.0, analytic * (1 - analytic)) / args.trials)
        gap = result.estimate - analytic
        if null_stderr > 0:
            z = gap / null_stderr
        else:
            z = 0.0 if gap == 0 else math.copysign(math.inf, gap)
    sys.stdout.write(_manifest_line(args, args.seed, [args.matrix], []))
    print(f"estimate={format_float(result.estimate)}")
    print(f"stderr={format_float(result.stderr)}")
    print(f"analytic_ps={format_float(analytic)}")
    print(f"z={format_float(z)}")
    return 0


def _add_grid_flags(sub) -> None:
    sub.add_argument("--out-vd", default="-", help="decoding vector CSV path (default stdout)")
    sub.add_argument("--out-sweep", default="-", help="sweep CSV path (default stdout)")
    sub.add_argument("--p-min", type=float, default=0.0, help="sweep start (default 0.0)")
    sub.add_argument("--p-max", type=float, default=0.5, help="sweep end (default 0.5)")
    sub.add_argument("--p-step", type=float, default=0.01, help="sweep step (default 0.01)")


def _at_least(low: int):
    """An argparse type taking integers >= ``low`` only, so that argparse refuses the rest
    while parsing, naming the flag: numpy seeds a generator from integers >= 0, and
    draw and subset counts start at 1."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _add_counting_flags(sub, seed_help: str) -> None:
    sub.add_argument("--seed", type=_at_least(0), default=0, help=seed_help)
    sub.add_argument("--samples", type=_at_least(1), default=None,
                     help="sample each oversized entry from this many subsets")
    sub.add_argument("--max-subsets", type=_at_least(1), default=EXACT_ENUMERATION_LIMIT,
                     help="largest C(n, m) enumerated")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorcodes",
        description="evaluate, search and simulate binary erasure codes",
    )
    parser.add_argument("--version", action="version", version=f"xorcodes {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    p_eval = subs.add_parser("eval", help="decoding vector and channel sweep of a matrix file")
    p_search = subs.add_parser("search", help="stochastic search for good codes")
    p_base = subs.add_parser("baseline", help="analytic random-code reference vector")
    p_sim = subs.add_parser("simulate", help="Monte Carlo channel check of a matrix file")

    for sub in (p_eval, p_sim):
        sub.add_argument("matrix", help="generator matrix file")
    for sub in (p_search, p_base):
        sub.add_argument("--n", type=int, required=True, help="code length")
        sub.add_argument("--k", type=int, required=True, help="source packets")
    _add_counting_flags(p_eval, "sampling seed")
    _add_counting_flags(p_search, "master seed")
    _add_counting_flags(p_sim, "simulation seed")
    _add_grid_flags(p_eval)
    _add_grid_flags(p_base)

    p_search.add_argument("--k1", type=int, default=3, help="balanced column weight (odd)")
    p_search.add_argument("--attempts", type=int, default=100, help="independent restarts")
    p_search.add_argument("--ref-p", type=float, default=0.1,
                          help="erasure probability the score targets")
    p_search.add_argument("--algorithm", type=int, choices=(1, 2), default=2,
                          help="1: random init, 2: balanced init")
    p_search.add_argument("--max-climb-steps", type=int, default=200,
                          help="proposal budget per restart")
    p_search.add_argument("--stagnation-limit", type=int, default=40,
                          help="stop a climb after this many consecutive rejections")
    p_search.add_argument("--out", default="-", help="family file path (default stdout)")
    p_base.add_argument("--q", type=int, default=2, help="field size (>= 2)")
    p_sim.add_argument("--p", type=float, required=True, help="erasure probability")
    p_sim.add_argument("--trials", type=int, default=100_000, help="experiment count")

    p_eval.set_defaults(func=_cmd_eval)
    p_search.set_defaults(func=_cmd_search)
    p_base.set_defaults(func=_cmd_baseline)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (_CliError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
