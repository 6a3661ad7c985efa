"""The four workloads: fixed job lists whose inputs come from the seed.

A job is a ``qcatalan`` argv plus a ``spec`` dict that tells the checker
what the output must be.  ``build(name, seed, outdir)`` writes the family
documents a workload needs into ``outdir`` and returns its jobs, costliest
first.  The program only ever sees the argv and the files.

Each list has seven jobs: one costliest job, then four of similar cost
(the dearest at most about a third above the cheapest), then two cheap
ones, the last of which is the warm-up.  With six passes (42 timings) the median job timing and the tail
timing (ten timings above it) both fall among the 24 timings of the four
alike jobs, so each is an order statistic of many similar timings rather
than of one job's six, and neither can jump between jobs of very
different cost from one run to the next.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BUILTINS = ("eulerian", "schroder", "narayana")

# verify samples this many selections once the candidates exceed it.
SAMPLE_LIMIT = 20000


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _poly(rng: random.Random, degree: int, low: int, high: int) -> list[int]:
    return [rng.randint(low, high) for _ in range(degree + 1)]


def fivecase_document(rng: random.Random) -> dict:
    """A family meeting all five weight conditions.

    With r_k = 1, witnesses b_0 = 0, b_k = 1 and c_k = c (constant term at
    least 1): s_0 = c, s_k = 1 + c and t_k = c.  Conditions 1-4 then hold
    with equality or a slack of 1, and condition 5 holds by construction.
    """
    c = _poly(rng, 2, 1, 3)
    c_plus_1 = [c[0] + 1] + c[1:]
    return {
        "name": "fivecase",
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [c], "tail": {"constant": c_plus_1}},
        "t": {"tail": {"constant": c}},
        "witness_b": {"prefix": [[]], "tail": {"constant": [1]}},
        "witness_c": {"tail": {"constant": c}},
    }


def affine_document(rng: random.Random) -> dict:
    """A family with affine tails: r_k = 1 + k, s_k and t_k linear in k."""
    return {
        "name": "affine",
        "r": {"tail": {"linear": [1], "constant": [1]}},
        "s": {
            "prefix": [_poly(rng, 1, 1, 3)],
            "tail": {"linear": _poly(rng, 1, 1, 3), "constant": _poly(rng, 1, 1, 3)},
        },
        "t": {"tail": {"linear": [0] + _poly(rng, 0, 1, 3)}},
    }


def _job(name, argv, **spec):
    return {"name": name, "argv": [str(a) for a in argv], "spec": spec}


def _verify(name, family, matrix, n, max_size, fmt, seed=0):
    argv = ["verify", "--family", family, "--matrix", matrix, "--n", n,
            "--max-size", max_size, "--format", fmt]
    if seed:
        argv += ["--seed", seed]
    return _job(name, argv, command="verify", family=family, matrix=matrix,
                n=n, max_size=max_size, format=fmt, seed=seed)


def _sweep(seed: int, files: dict) -> list[dict]:
    sample_seed = _rng("sweep", seed, "verify-seed").randrange(1, 2**31)
    return [
        _verify("sampled-schroder-C17-s2", "schroder", "C", 17, 2, "csv", sample_seed),
        _verify("narayana-C6-s3", "narayana", "C", 6, 3, "json"),
        _verify("schroder-C6-s3", "schroder", "C", 6, 3, "json"),
        _verify("eulerian-C6-s3", "eulerian", "C", 6, 3, "json"),
        _verify("narayana-H5-s3", "narayana", "H", 5, 3, "json"),
        _verify("eulerian-C5-s5", "eulerian", "C", 5, 5, "csv"),
        _verify("eulerian-H3-s4", "eulerian", "H", 3, 4, "csv"),
    ]


def _immanant(seed: int, files: dict) -> list[dict]:
    return [
        _verify("narayana-H5-s6", "narayana", "H", 5, 6, "csv"),
        _verify("eulerian-C6-s7", "eulerian", "C", 6, 7, "csv"),
        _verify("eulerian-C6-s6", "eulerian", "C", 6, 6, "csv"),
        _verify("schroder-C6-s7", "schroder", "C", 6, 7, "csv"),
        _verify("narayana-C6-s7", "narayana", "C", 6, 7, "csv"),
        _verify("narayana-C5-s6", "narayana", "C", 5, 6, "csv"),
        _verify("narayana-H3-s6", "narayana", "H", 3, 6, "csv"),
    ]


def _network_job(name, family, n, cases, kind="layered", k=0, fmt="json"):
    argv = ["network", "--family", family, "--n", n, "--case", cases]
    if kind == "induced":
        argv += ["--hankel-induced", "--k", k]
    elif kind == "factored":
        argv += ["--hankel-factored"]
    argv += ["--check", "--format", fmt]
    return _job(name, argv, command="network", family=family, n=n, kind=kind,
                k=k, cases=cases, format=fmt)


def _network(seed: int, files: dict) -> list[dict]:
    five = files["fivecase"]
    mixed = ",".join(str(_rng("network", seed, "cases").randint(1, 5)) for _ in range(24))
    return [
        _network_job("schroder-n40-case5-json", "schroder", 40, "5"),
        _network_job("fivecase-n25-case3-dot", five, 25, "3", fmt="dot"),
        _network_job("fivecase-n24-mixed-json", five, 24, mixed),
        _network_job("narayana-hankel-factored-n17-case4-json", "narayana", 17, "4",
                     kind="factored"),
        _network_job("eulerian-n26-case1-dot", "eulerian", 26, "1", fmt="dot"),
        _network_job("narayana-n20-case2-dot", "narayana", 20, "2", fmt="dot"),
        _network_job("narayana-hankel-induced-n6-k1-case2-json", "narayana", 6, "2",
                     kind="induced", k=1),
    ]


def _matrix(name, command, family, n, fmt):
    return _job(name, [command, "--family", family, "--n", n, "--format", fmt],
                command=command, family=family, n=n, format=fmt)


def _inequality(name, family, top, fmt):
    argv = ["inequality", "--family", family, "--max-index", top]
    argv += ["--format", "json"] if fmt == "json" else ["--show"]
    return _job(name, argv, command="inequality", family=family, max_index=top, format=fmt)


def _moments(seed: int, files: dict) -> list[dict]:
    affine = files["affine"]
    return [
        _inequality("narayana-inequality-16-json", "narayana", 16, "json"),
        _matrix("eulerian-matrix-n80-text", "matrix", "eulerian", 80, "text"),
        _inequality("eulerian-inequality-13-show", "eulerian", 13, "text"),
        _matrix("schroder-hankel-n48-csv", "hankel", "schroder", 48, "csv"),
        _matrix("affine-hankel-n42-json", "hankel", affine, 42, "json"),
        _matrix("affine-matrix-n60-csv", "matrix", affine, 60, "csv"),
        _matrix("narayana-matrix-n40-json", "matrix", "narayana", 40, "json"),
    ]


WORKLOADS = {
    "sweep": (_sweep, ()),
    "immanant": (_immanant, ()),
    "network": (_network, ("fivecase",)),
    "moments": (_moments, ("affine",)),
}

DOCUMENTS = {"fivecase": fivecase_document, "affine": affine_document}


def build(workload: str, seed: int, outdir: Path) -> tuple[list[dict], dict]:
    """Write the workload's family documents and return (jobs, documents).

    ``documents`` maps each written file path to its parsed document, so
    the checker can rebuild the family without the program.
    """
    make, doc_names = WORKLOADS[workload]
    files: dict[str, str] = {}
    documents: dict[str, dict] = {}
    for doc_name in doc_names:
        doc = DOCUMENTS[doc_name](_rng(workload, seed, doc_name))
        path = outdir / f"{doc_name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        files[doc_name] = str(path)
        documents[str(path)] = doc
    return make(seed, files), documents


def smallest(jobs: list[dict]) -> dict:
    """The job the workload lists last: its cheapest."""
    return jobs[-1]
