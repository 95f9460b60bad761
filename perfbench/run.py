"""xorcodes benchmark: three CLI workloads, timed end to end or traced per layer.

Run from the root of a checkout (the directory holding src/xorcodes):

    python3 perfbench/run.py --workload search --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see workloads.py): search, eval-highrate, simulate.  Each job is
a fresh process (job.py) that starts the interpreter, imports xorcodes,
writes the seed's input matrices, then runs the workload's CLI calls.  Jobs
repeat until --seconds have passed (at least three):

- wall_s       wall time of the job's CLI calls, the time a user waits;
               the fastest job of the run
- cpu_s        user + sys CPU time of the job process over those calls;
               the least of the run
- peak_anon_mb peak RSS of the job process less the file-backed pages
               (shared libraries) it has mapped, so the job's own data;
               transparent huge pages are off in the job (job.py); median
               over the run's jobs
- setup_s      from spawning the process until its inputs are written;
               median over the run's jobs

With --trace 1, untraced and traced jobs alternate.  A traced job wraps the
public functions of gf2, decoding, search, latin and cli (tracing.py); the
per-layer metrics come from the fastest traced job, so its self times plus
trace.unattributed_s add up to its trace.wall_s, and trace.overhead_s is
that wall time minus the fastest untraced job's.

The first job's outputs are checked against independent oracles
(workloads.py, gf2ref.py); later jobs must reproduce its output digest, and
traced jobs must repeat its counts.  Every CLI call and every check is one
operation: error_rate = failed / attempted.  The last stdout line is the
JSON result; a summary with the machine, the digest and quartiles precedes
it, and the full record goes to perfbench/.work/.

--smoke runs every workload at a tiny scale, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_anon_mb": "MB", "setup_s": "s"}
# Printed in the summary only: the parts peak_anon_mb is computed from.
MEMORY_DETAIL_UNITS = {"peak_rss_total_mb": "MB", "rss_file_mb": "MB"}
# On the shared 2-vCPU VM this was tuned on, speed alternates between a fast
# and a ~25% slower state in phases of 30-60 s, so a run's median job lands
# in either mode.  The fastest job of a run is the steadier estimate of the
# job's cost; the median and quartiles are still printed in the summary.
FASTEST_JOB_METRICS = ("wall_s", "cpu_s")

# Counters that must repeat exactly between traced jobs of one run.
COUNT_METRICS = ("gf2.rank_batch.calls", "gf2.rank_batch.sets", "gf2.rank_batch.bytes_in",
                 "gf2.rank.calls", "decoding.exact_vd.subsets", "decoding.sampled_vd.samples",
                 "decoding.p_success.calls", "decoding.simulate_ps.trials", "search.proposals",
                 "search.accepts", "search.evaluations", "search.repeats", "cli.bytes_out")


class JobError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes_in"):
        return "B_computed"
    if name.endswith(".bytes_out"):
        return "B"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def machine() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                         platform.processor())
    except OSError:
        model = platform.processor()
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()]}


def run_job(workload: str, seed: int, scale: str, workdir: Path, trace_id: str) -> dict:
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "job.py"), workload, str(seed), scale,
                             str(workdir), trace_id], stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise JobError(f"{workload} job exceeded {JOB_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not result_path.is_file():
        raise JobError(f"{workload} job exited with code {rc}")
    job = json.loads(result_path.read_text())
    job["setup_s"] = job.pop("setup_end") - start
    return job


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 min_jobs: int = 3) -> tuple[dict, dict]:
    """Run jobs for `seconds`; return the result line and the full record."""
    workdir = HERE / ".work" / f"{workload}-{seed}-{scale}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    info = machine()
    start = time.monotonic()
    jobs: list[dict] = []
    while not jobs or len(jobs) < min_jobs or time.monotonic() - start < seconds:
        traced = trace and len(jobs) % 2 == 1
        trace_id = f"{workload}-{seed}-{len(jobs)}" if traced else "-"
        job = run_job(workload, seed, scale, workdir, trace_id)
        job["traced"] = traced
        if not jobs:
            checks = workloads.check(workload, workdir, job["calls"], job["stdouts"], seed)
        jobs.append(job)

    first = jobs[0]
    for j, job in enumerate(jobs[1:], 1):
        checks.append((f"job {j} output digest repeats", job["digest"] == first["digest"],
                       job["digest"][:16]))
    traced_jobs = [j for j in jobs if j["traced"]]
    for j, job in enumerate(traced_jobs[1:], 1):
        same = all(job["layers"][c] == traced_jobs[0]["layers"][c] for c in COUNT_METRICS)
        checks.append((f"traced job {j} counts repeat", same, ""))
    cli_calls = sum(len(j["statuses"]) for j in jobs)
    cli_failed = sum(s != 0 for j in jobs for s in j["statuses"])
    attempted = cli_calls + len(checks)
    failed = cli_failed + sum(not ok for _, ok, _ in checks)

    plain = [j for j in jobs if not j["traced"]]
    per_job = {}
    if trace:
        fastest = min(traced_jobs, key=lambda j: j["wall_s"])
        values = dict(fastest["layers"])
        values["trace.overhead_s"] = fastest["wall_s"] - min(j["wall_s"] for j in plain)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        per_job["trace.wall_s"] = [j["wall_s"] for j in traced_jobs]
    else:
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            values = [j[name] for j in jobs]
            pick = min if name in FASTEST_JOB_METRICS else statistics.median
            metrics[name] = {"value": pick(values), "unit": unit}
            per_job[name] = values
        for name in MEMORY_DETAIL_UNITS:
            per_job[name] = [j[name] for j in jobs]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
              "machine": info, "digest": first["digest"], "error_rate": failed / attempted,
              "cli_statuses": [j["statuses"] for j in jobs],
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "jobs": [{k: v for k, v in j.items() if k not in ("stdouts", "calls")}
                       for j in jobs],
              "per_job": per_job, "result": result}
    (workdir / "run.json").write_text(json.dumps(record, indent=1, default=str))
    return result, record


def _quartiles(values) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return f"median={statistics.median(values):.6g} q1={q[0]:.6g} q3={q[2]:.6g} n={len(values)}"


def report(result: dict, record: dict) -> None:
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"workload={record['workload']} seed={record['seed']} scale={record['scale']} "
          f"trace={int(record['trace'])} jobs={len(record['jobs'])} digest=sha256:{record['digest']}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED check {c['name']}: {c['detail']}")
    bad_calls = [s for ss in record["cli_statuses"] for s in ss if s != 0]
    for s in bad_calls[:3]:
        print(f"FAILED cli call: {str(s).strip()[-300:]}")
    print(f"error_rate={record['error_rate']:.6g} ({result['failed']}/{result['attempted']} "
          f"operations failed)")
    for name, values in record["per_job"].items():
        unit = {**END_TO_END_UNITS, **MEMORY_DETAIL_UNITS}.get(name, "s")
        print(f"{name} [{unit}] {_quartiles(values)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.9g} {m['unit']}")
    for note in next((j["trace_notes"] for j in record["jobs"] if "trace_notes" in j), []):
        print(f"trace note: {note}")


def smoke(root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.NAMES:
        for trace in (False, True):
            result, record = run_workload(workload, 1, 0, trace, scale="smoke",
                                          min_jobs=2 if trace else 1)
            report(result, record)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = result["metrics"]
            for m in want:
                value = got.get(m["name"], {}).get("value")
                if got.get(m["name"], {}).get("unit") != m["unit"] or not (
                        isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{workload} trace={int(trace)}: {m['name']} missing or "
                                    f"not in {m['unit']}")
            extra = set(got) - {m["name"] for m in want}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: unlisted metrics {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke ok" if not problems else f"smoke FAILED: {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; check every metric is emitted")
    args = parser.parse_args()
    # Turn a termination request into an exception, so run_job kills its job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "xorcodes" / "cli.py").is_file():
        print(f"perfbench: no src/xorcodes/cli.py under {root}; run from the root of an "
              "xorcodes checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except JobError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
