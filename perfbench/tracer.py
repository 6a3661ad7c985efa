"""Spans around qcatalan's public names, installed from outside the package.

``Tracer.install(modules)`` replaces every public function of each
qcatalan module, in every module namespace that holds it, with a wrapper
that records a span, plus a fixed list of methods on QPoly, FamilySpec and
PlanarNetwork.  Nothing under ``src/`` is edited: the wrappers live only in
the traced process.

Each wrapper keeps a frame on a stack, so a span's self time (its duration
minus its children's) is known when it ends.  Calls into the hot leaves
(QPoly arithmetic, FamilySpec parameters, symchar, vertex helpers) are only
counted and timed per name; every other call is also kept as a span
``(id, parent, job, name, start, end)`` in memory until ``spans`` is read.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

METHODS = {
    "qcatalan.qpoly": ("QPoly", ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                                 "__rsub__", "__neg__", "__pow__", "exact_div")),
    "qcatalan.families": ("FamilySpec", ("r", "s", "t", "b", "c")),
    "qcatalan.network": ("PlanarNetwork", ("__init__", "gf_matrix", "path_gf", "count_paths",
                                           "enumerate_paths", "to_json_dict")),
}

HOT_LAYERS = {"qpoly", "symchar"}
HOT_NAMES = {
    "families.FamilySpec.r", "families.FamilySpec.s", "families.FamilySpec.t",
    "families.FamilySpec.b", "families.FamilySpec.c",
    "network.P", "network.Q", "network.mirror_vertex",
}
NETWORK_BUILDS = {
    "network.build_cs_network", "network.build_hankel_network", "network.build_hankel_factored",
}
MATRIX_PRODUCERS = {"csmatrix.catalan_stieltjes", "csmatrix.hankel", "csmatrix.catalan_like"}
MUL_NAMES = {"qpoly.QPoly.__mul__", "qpoly.QPoly.__rmul__"}
ADD_NAMES = {"qpoly.QPoly.__add__", "qpoly.QPoly.__radd__"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [[0.0, 0, ""]]  # [child time, span id, name]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.job = ""
        self._next_id = 1
        self._originals: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith("qcatalan."):
                    continue
                if id(obj) not in wrapped:
                    label = f"{origin.removeprefix('qcatalan.')}.{obj.__qualname__}"
                    wrapped[id(obj)] = self._wrap(obj, label)
                self._originals.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])
        for mod_name, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                label = f"{mod_name.removeprefix('qcatalan.')}.{cls_name}.{meth}"
                self._originals.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, label))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._originals):
            setattr(owner, name, obj)
        self._originals.clear()

    def _wrap(self, fn, label: str):
        stack, stats = self.stack, self.stats
        keep = label.split(".", 1)[0] not in HOT_LAYERS and label not in HOT_NAMES
        post = self._post_hook(label)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id, label]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                st = stats[label]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[0]
                if keep:
                    self.spans.append((span_id, parent[1], self.job, label, start, end))
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    # -- work counts taken from arguments and results ---------------------

    def _post_hook(self, label: str):
        counts = self.counts
        if label in MUL_NAMES or label in ADD_NAMES:

            def poly(args, result):
                cs = getattr(result, "coeffs", None)
                if cs:
                    if len(cs) - 1 > counts["qpoly.max_degree"]:
                        counts["qpoly.max_degree"] = len(cs) - 1
                    bits = max(max(cs), -min(cs)).bit_length()
                    if bits > counts["qpoly.max_coeff_bits"]:
                        counts["qpoly.max_coeff_bits"] = bits

            return poly
        if label == "network.PlanarNetwork.__init__":

            def built(args, result):
                counts["network.arcs_checked"] += len(args[0].arcs)

            return built
        if label == "network.PlanarNetwork.gf_matrix":

            def gf(args, result):
                counts["network.gf_sources"] += len(args[0].sources)

            return gf
        if label in NETWORK_BUILDS:
            stack = self.stack

            def final(args, result):
                if stack[-1][2] not in NETWORK_BUILDS:  # not a part of a larger build
                    counts["network.arcs_final"] += len(result.arcs)

            return final
        if label in MATRIX_PRODUCERS:

            def entries(args, result):
                grid = getattr(result, "entries", None)
                counts["csmatrix.entries"] += (
                    len(result) if grid is None else sum(len(row) for row in grid)
                )

            return entries
        if label == "immanant.positivity_sweep":

            def sweep(args, result):
                selections = [
                    (r.provenance.rows, r.provenance.cols)
                    for r in result.reports
                    if r.lam[0] == len(r.provenance.rows)
                ]
                counts["immanant.submatrices"] += len(selections)
                counts["immanant.distinct_submatrices"] += len(set(selections))
                counts["immanant.reports"] += len(result.reports)

            return sweep
        return None

    # -- per-pass summaries -------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per-layer figures of the work traced since the last reset."""
        st, counts = self.stats, self.counts

        def total(names, column):
            return sum(st[n][column] for n in names if n in st)

        def layer(prefix):
            return [n for n in st if n.startswith(prefix + ".")]

        params = [n for n in layer("families") if n.startswith("families.FamilySpec.")]
        return {
            "qpoly.mul_calls": total(MUL_NAMES, 0),
            "qpoly.add_calls": total(ADD_NAMES, 0),
            "qpoly.mul_s": total(MUL_NAMES, 1),
            "qpoly.max_degree": counts["qpoly.max_degree"],
            "qpoly.max_coeff_bits": counts["qpoly.max_coeff_bits"],
            "families.param_calls": total(params, 0),
            "families.param_s": total(params, 1),
            "families.load_s": total(("families.builtin", "families.load_family"), 1),
            "csmatrix.self_s": total(layer("csmatrix"), 2),
            "csmatrix.entries": counts["csmatrix.entries"],
            "symchar.table_s": total(("symchar.character_table",), 1),
            "symchar.degree_calls": total(("symchar.degree",), 0),
            "symchar.self_s": total(layer("symchar"), 2),
            "immanant.sweep_self_s": total(("immanant.positivity_sweep",), 2),
            "immanant.submatrices": counts["immanant.submatrices"],
            "immanant.distinct_submatrices": counts["immanant.distinct_submatrices"],
            "immanant.reports": counts["immanant.reports"],
            "immanant.inequality_s": total(
                ("immanant.inequality_331", "immanant.inequality_332"), 1
            ),
            "network.build_s": total(NETWORK_BUILDS, 1),
            "network.gf_s": total(("network.PlanarNetwork.gf_matrix",), 1),
            "network.export_s": total(
                ("network.export_dot", "network.PlanarNetwork.to_json_dict"), 1
            ),
            "network.constructions": total(("network.PlanarNetwork.__init__",), 0),
            "network.arcs_checked": counts["network.arcs_checked"],
            "network.arcs_final": counts["network.arcs_final"],
            "network.gf_sources": counts["network.gf_sources"],
            # cli.main and its own helpers minus the library spans under them
            "cli.self_s": total(layer("cli"), 2),
            "trace.calls": sum(s[0] for s in st.values()),
        }


def combine(passes: list[dict]) -> dict:
    """Times as the median over passes; counts from the last pass.

    Counts repeat exactly in every pass after the first, which also fills
    the program's own caches (character tables, permutation lists).
    """
    last = passes[-1]
    out = {}
    for key, value in last.items():
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in passes)
        else:
            out[key] = value
    return out
