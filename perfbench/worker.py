"""One workload's process: set up, then time whole passes over its job list.

Run by ``run.py``; prints one JSON line on its own stdout when done.

    python3 perfbench/worker.py --workload sweep --seed 1 --mode measure \
        --passes 6 --out perfbench/out/sweep

Modes:
  setup    import, build inputs, warm up, report ``setup_s`` and exit
  measure  as setup, then ``--passes`` timed passes
  trace    as measure, with spans around qcatalan's public names
  quick    run only the workload's cheapest job, once

Every job runs through ``qcatalan.cli.main(argv)`` in this process, one
at a time.  Before each job the cyclic collector runs, so every job starts
from the same collector state; the collector stays on while it runs.
Stdout and stderr go to real files, as when a user redirects them: the
first pass's to ``<out>/<index>.out`` / ``.err`` for the checker, later
passes' to ``<out>/pass.out`` / ``.err``.  Each pass's stdout is hashed
after the job, to show it is byte-identical in every pass.

While set-up and every job run, a speed probe samples how fast the host
is at that moment (``Probe``), so that ``run.py`` can scale each timing to
one fixed speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import sys
import timeit
from contextlib import contextmanager
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("cli", "csmatrix", "families", "immanant", "network", "qpoly", "symchar")


PROBE_ROUNDS = 6  # about 0.45 ms on a 2-CPU x86-64 host with Python 3.11
PROBE_INTERVAL_S = 0.025


def probe_work() -> int:
    """Fixed pure-Python work of the program's kind: big-int products, dicts, text.

    Of the probes tried (this, a bare int loop, an allocation-heavy one), its
    time tracked the jobs' times best from one moment to the next.
    """
    total = 0
    for r in range(PROBE_ROUNDS):
        a = [(i + r) * 1000003**3 for i in range(1, 17)]
        b = [i * 7919 + r for i in range(1, 17)]
        prod = [0] * 32
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        table = {}
        for i, c in enumerate(prod):
            table[(i, c % 97)] = str(c)
        total += len(",".join(table.values()))
    return total


class Probe:
    """Samples the host's speed while timed code runs, in this one thread.

    The host's speed drifts by 15 % and more within seconds, so one probe
    before and one after a job of a second says little about the speed
    during it.  Between those two, a SIGALRM timer fires every
    ``PROBE_INTERVAL_S`` of wall time and its handler times ``probe_work``.
    Python runs the handler between two bytecodes of the timed code, so a
    long call into C delays a sample but loses none of the code's work.
    ``timed`` returns the elapsed time less the time spent in the probes,
    and the probe times, for ``run.py`` to scale by.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        # The collector stays off inside the probe, so that it never charges
        # a collection of the program's garbage to the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe_work()
        self.samples.append(perf_counter() - start)
        if collecting:
            gc.enable()

    def timed(self, fn):
        """(fn's result, its seconds less the probes' seconds, probe times)."""
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
        elapsed -= sum(self.samples[1:])
        self._sample()
        return result, elapsed, self.samples


def import_program():
    """Import qcatalan from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qcatalan" / "__init__.py").is_file():
        raise SystemExit(f"no qcatalan package under {src}")
    sys.path.insert(0, str(src))
    modules = {f"qcatalan.{m}": importlib.import_module(f"qcatalan.{m}") for m in MODULES}
    if Path(modules["qcatalan.cli"].__file__).resolve().parent != src / "qcatalan":
        raise SystemExit("qcatalan was imported from outside this checkout")
    return modules


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def call_cli(cli, argv: list[str]):
    """Exit code of one CLI call, or the exception it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a traceback is a failed job, not a crash
        return f"{type(exc).__name__}: {exc}"


@contextmanager
def redirected(out_path: Path, err_path: Path):
    """Stdout and stderr into files, as when a user redirects them."""
    saved = sys.stdout, sys.stderr
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        try:
            yield
        finally:
            sys.stdout, sys.stderr = saved


def own_peak_rss_mb() -> float:
    """This process's own peak resident set, in MiB.

    ``ru_maxrss`` alone would also count the resident set ``run.py`` had
    when it forked this worker: Linux carries it over ``exec``, so after a
    workload whose checks grew ``run.py`` the next workload would inherit
    its figure.  ``VmHWM`` belongs to this process's own address space.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mul_micro_us(qpoly_mod, seed: int) -> dict[str, float]:
    """Median time of one QPoly multiply on seeded operands, untraced."""
    rng = Random(f"mul:{seed}")
    out = {}
    for degree in (8, 32, 128):
        a = qpoly_mod.QPoly([rng.randint(1, 2**32) for _ in range(degree + 1)])
        b = qpoly_mod.QPoly([rng.randint(1, 2**32) for _ in range(degree + 1)])
        timer = timeit.Timer(lambda: a * b)
        number = max(1, timer.autorange()[0] // 4)
        per_call = sorted(t / number for t in timer.repeat(repeat=9, number=number))
        out[f"qpoly.mul_deg{degree}_us"] = per_call[4] * 1e6
    return out


def set_up(args):
    """Everything before the first timed job: import, inputs, warm-up."""
    sys.path.insert(0, str(HERE))
    import workloads

    modules = import_program()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs, _ = workloads.build(args.workload, args.seed, outdir)
    warm = workloads.smallest(jobs)
    if args.mode == "quick":
        return modules, outdir, [warm], 1
    with redirected(outdir / "pass.out", outdir / "pass.err"):
        call_cli(modules["qcatalan.cli"], warm["argv"])
    return modules, outdir, jobs, args.passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "quick"), required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    probe = Probe()
    (modules, outdir, jobs, passes), setup_s, setup_probes = probe.timed(lambda: set_up(args))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes}))
        return 0
    cli = modules["qcatalan.cli"]

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)

    times = [[0.0] * passes for _ in jobs]
    rcs = [[None] * passes for _ in jobs]
    digests = [[""] * passes for _ in jobs]
    probes = [[[]] * passes for _ in jobs]
    out_bytes = [0] * len(jobs)
    layer_passes = []
    for p in range(passes):
        if tracer:
            tracer.reset()
        for j, job in enumerate(jobs):
            gc.collect()
            if tracer:
                tracer.job = f"{p}:{job['name']}"
            stem = str(j) if p == 0 else "pass"
            out_path = outdir / f"{stem}.out"
            with redirected(out_path, outdir / f"{stem}.err"):
                rcs[j][p], times[j][p], probes[j][p] = probe.timed(
                    lambda: call_cli(cli, job["argv"]))
            digests[j][p] = sha256_file(out_path)
            if p == 0:
                out_bytes[j] = out_path.stat().st_size
        if tracer:
            summary = tracer.summary()
            summary["cli.stdout_bytes"] = sum(out_bytes)
            layer_passes.append(summary)
    peak_rss_mb = own_peak_rss_mb()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "jobs": [job["name"] for job in jobs],
        "times": times,
        "probes": probes,
        "rcs": rcs,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        from tracer import combine

        result["layers"] = combine(layer_passes)
        result["layers"].update(mul_micro_us(modules["qcatalan.qpoly"], args.seed))
        with open(outdir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
