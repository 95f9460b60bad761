"""One workload job in a fresh process: set up, call the CLI, time it.

Usage (from run.py, at the root of the checkout):
python3 perfbench/job.py WORKLOAD SEED SCALE WORKDIR TRACE_ID, where TRACE_ID
"-" means untraced.  The job runs every CLI call of the workload through
``xorcodes.cli.main(argv)``, the function behind the ``xorcodes`` console
script, with WORKDIR as the current directory so that the manifest lines
hold relative paths.  It writes result.json into WORKDIR.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def memory_kb() -> dict[str, int]:
    """VmHWM and the current RssFile and RssShmem of this process, in KiB.

    ru_maxrss is not used: Linux carries the parent's high-water RSS into
    the child at exec, so it would report the benchmark driver's own peak.
    """
    fields = {}
    with open("/proc/self/status") as f:
        for line in f:
            key = line.split(":", 1)[0]
            if key in ("VmHWM", "RssFile", "RssShmem"):
                fields[key] = int(line.split()[1])
    if len(fields) != 3:
        raise RuntimeError(f"/proc/self/status lacks memory fields, has {sorted(fields)}")
    return fields


PR_SET_THP_DISABLE = 41


def disable_transparent_huge_pages() -> None:
    """Keep this process's memory on 4 KiB pages.

    numpy asks for transparent huge pages on large arrays.  Whether the
    kernel grants them, at fault time or later through khugepaged, depends
    on the host's memory state, and a 2 MiB page counts whole in RSS even
    when little of it is used, so peak RSS would vary between runs of the
    same job.  The flag applies to this process only and is set before
    numpy is imported.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_THP_DISABLE) failed")


def main() -> None:
    workload, seed, scale, workdir, trace_id = sys.argv[1:6]
    disable_transparent_huge_pages()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import xorcodes.cli

    if not Path(xorcodes.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported xorcodes from {xorcodes.cli.__file__}, not {root / 'src'}")
    import workloads

    workdir = Path(workdir).resolve()
    calls = workloads.prepare(workload, int(seed), scale, workdir)
    setup_end = time.monotonic()

    recorder = None
    if trace_id != "-":
        import tracing

        recorder = tracing.Recorder(trace_id)
        recorder.install()

    os.chdir(workdir)
    statuses, stdouts = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for call in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if recorder is None:
                    rc = xorcodes.cli.main(call.argv)
                else:
                    rc = recorder.call("cli", xorcodes.cli.main, call.argv)
        except Exception:
            rc = traceback.format_exc()
        statuses.append(rc)
        stdouts.append(buf.getvalue())
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    mem = memory_kb()

    digest = hashlib.sha256()
    bytes_out = 0
    for call, out in zip(calls, stdouts):
        blobs = [out.encode()] + [(workdir / name).read_bytes() for name in call.outputs
                                  if (workdir / name).is_file()]
        for blob in blobs:
            digest.update(len(blob).to_bytes(8, "little") + blob)
            bytes_out += len(blob)
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        # How many pages of the shared libraries are mapped depends on the
        # page cache, not on the job, so the peak leaves them out.
        "peak_anon_mb": (mem["VmHWM"] - mem["RssFile"] - mem["RssShmem"]) / 1024.0,
        "peak_rss_total_mb": mem["VmHWM"] / 1024.0,
        "rss_file_mb": mem["RssFile"] / 1024.0,
        "calls": [c.argv for c in calls],
        "statuses": statuses,
        "stdouts": stdouts,
        "digest": digest.hexdigest(),
    }
    if recorder is not None:
        recorder.write(workdir / f"spans-{trace_id}.json")
        result["layers"] = tracing.layer_metrics(recorder, wall, bytes_out)
        result["trace_notes"] = recorder.notes
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
