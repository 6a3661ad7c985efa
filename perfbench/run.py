"""Benchmark of the qcatalan CLI: four closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --quick                      # each cheapest job, checked

Run from the root of a checkout.  One run of a workload starts
``SETUPS - 1`` set-up-only worker processes and one measuring worker (see
``worker.py``); each imports ``qcatalan`` from this checkout's ``src/``.
The measuring worker times ``PASSES`` whole passes over the job list, then
this process checks the first pass's output of every job (``checks.py``)
and that every pass printed the same bytes.  Every timing is scaled to one
fixed host speed by the speed probes taken while it ran (``scaled``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics of a traced worker with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import CheckError, check_job  # noqa: E402

PASSES = 6  # with seven jobs a workload has 42 job timings
TRACE_PASSES = 3  # counts come from the last, times are medians of the three
SETUPS = 15
# The host speed every timing is scaled to: worker.probe_work's typical time
# on the 2-CPU x86-64 host (Python 3.11) the figures in README.md come from.
PROBE_S = 0.00045
WORKER_TIMEOUT = 170

END_TO_END = {
    "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
}
PER_LAYER_UNITS = {"_s": "s", "_us": "us", "_bytes": "bytes"}


def worker(workload: str, seed: int, mode: str, passes: int, outdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QCATALAN_SIZE_CAP"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--passes", str(passes), "--out", str(outdir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def at_probe_speed(seconds: float, probes: list[float]) -> float:
    """``seconds`` as they would read on a host where the probe takes ``PROBE_S``."""
    return seconds * PROBE_S * len(probes) / sum(probes)


def scaled(times: list[list[float]], probes: list[list[list[float]]]) -> list[list[float]]:
    """Every job timing (``times[j][p]``: job j in pass p) at the probe speed."""
    return [[at_probe_speed(t, probes[j][p]) for p, t in enumerate(job)]
            for j, job in enumerate(times)]


def tail_index(count: int) -> int:
    """Index of the highest order statistic with ten timings above it."""
    return count - 11


def check_run(workload: str, seed: int, outdir: Path, res: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job timing of the run."""
    jobs, documents = workloads.build(workload, seed, outdir)
    if res["jobs"] != [j["name"] for j in jobs]:
        jobs = [j for j in jobs if j["name"] in res["jobs"]]
    attempted = failed = 0
    problems = []
    for j, job in enumerate(jobs):
        rcs, digests = res["rcs"][j], res["digests"][j]
        attempted += len(rcs)
        try:
            stdout = (outdir / f"{j}.out").read_text()
            stderr = (outdir / f"{j}.err").read_text()
            check_job(job, stdout, stderr, rcs[0], documents, seed)
        except CheckError as exc:
            failed += len(rcs)
            problems.append(f"{job['name']}: {exc}")
            continue
        for p in range(1, len(rcs)):
            if rcs[p] != rcs[0] or digests[p] != digests[0]:
                failed += 1
                problems.append(f"{job['name']}: pass {p} printed other bytes than pass 0")
    return attempted, failed, problems


def pass_time(times: list[list[float]]) -> float:
    """One pass over the job list, each job at its median over the passes."""
    return sum(statistics.median(job) for job in times)


def end_to_end(times: list[list[float]], peak_rss_mb: float,
               setups: list[float]) -> tuple[dict, dict]:
    timings = sorted(t for job in times for t in job)
    if len(timings) < 40:
        raise SystemExit(f"only {len(timings)} job timings; job_tail_s needs at least 40")
    tail = tail_index(len(timings))
    stats = {"job_timings": len(timings),
             "tail_percentile": round(100 * (tail + 1) / len(timings), 1)}
    metrics = {
        "wall_s": pass_time(times),
        "job_p50_s": statistics.median(timings),
        "job_tail_s": timings[tail],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return metrics, stats


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, trace: bool) -> dict:
    outdir = OUT / workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        if trace:
            res = worker(workload, seed, "trace", TRACE_PASSES, outdir)
        else:
            setups = [worker(workload, seed, "setup", 0, outdir) for _ in range(SETUPS - 1)]
            res = worker(workload, seed, "measure", PASSES, outdir)
            setups = [at_probe_speed(r["setup_s"], r["setup_probes"]) for r in [*setups, res]]
        attempted, failed, problems = check_run(workload, seed, outdir, res)
    finally:
        for path in [*outdir.glob("*.out"), *outdir.glob("*.err")]:
            path.unlink()
    for line in problems:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    times = scaled(res["times"], res["probes"])
    if trace:
        stats = {"job_timings": sum(len(t) for t in times)}
        layers = dict(res["layers"], **{"trace.wall_s": pass_time(times)})
        shown = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics, stats = end_to_end(times, res["peak_rss_mb"], setups)
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": shown}
    all_probes = [x for job in res["probes"] for samples in job for x in samples]
    record = dict(summary, workload=workload, seed=seed, trace=trace, python=sys.version.split()[0],
                  cpus=os.cpu_count(), passes=len(res["times"][0]), **stats,
                  probe_s=PROBE_S, host_probe_s=statistics.median(all_probes),
                  probes=len(all_probes),
                  unscaled_wall_s=pass_time(res["times"]),
                  job_medians={n: statistics.median(t) for n, t in zip(res["jobs"], times)})
    (outdir / ("trace.json" if trace else "result.json")).write_text(json.dumps(record, indent=2))
    for name, m in shown.items():
        print(f"{workload:9} {name:30} {m['value']:>16.6g} {m['unit']}")
    tail = f", tail at p{stats['tail_percentile']}" if "tail_percentile" in stats else ""
    print(f"{workload:9} attempted {attempted}, failed {failed}, {record['passes']} passes, "
          f"{stats['job_timings']} job timings{tail}, "
          f"python {record['python']}, {record['cpus']} cpus")
    return summary


def run_all(seed: int, trace: bool) -> int:
    """Every workload in turn (each in its own worker processes), then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        res = run_workload(workload, seed, trace)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def run_quick(seed: int) -> int:
    """Each workload's cheapest job once, checked; a smoke test in seconds."""
    bad = 0
    for workload in workloads.WORKLOADS:
        outdir = OUT / f"quick-{workload}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        res = worker(workload, seed, "quick", 1, outdir)
        attempted, failed, problems = check_run(workload, seed, outdir, res)
        shutil.rmtree(outdir)
        bad += failed
        status = "ok" if not failed else "FAILED " + "; ".join(problems)
        print(f"{workload:9} {res['jobs'][0]:40} {res['times'][0][0]:8.3f} s  {status}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25,
                    help=f"accepted and ignored: a run is always {PASSES} passes over the "
                         "job list, so that every run attempts the same jobs (see README)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "qcatalan" / "__init__.py").is_file():
        print(f"error: no qcatalan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        return run_quick(args.seed)
    if args.workload is None:
        ap.error("--workload or --quick is required")
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace))
    summary = run_workload(args.workload, args.seed, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
