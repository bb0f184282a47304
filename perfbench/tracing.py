"""Span tracer that wraps atxxz's public functions from outside the package.

A traced pass patches module attributes (nothing under ``src/`` changes) so
that each call into a layer records a span ``(id, name, start, end, parent,
point, thread, info)``. Spans stay in memory and are written once, at the
end of the run. ``point`` is the grid point a span serves: the sweep pool
evaluates one point per task, starting with ``build_hamiltonian``, so the
wrapper of that call sets the current point of its thread.

Timings are reported two ways, because the sweep pool overlaps spans:
``.s`` is busy time (the sum of span durations over all threads) and
``.union_s`` is the length of the union of their intervals. Self time is a
span's duration minus the union of its children's intervals.
"""

import itertools
import os
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

from workloads import atxxz

TRIPLET_BYTES = 24  # int64 row + int64 col + float64 value per COO entry
FLOAT_BYTES = 8


class Tracer:
    """Installs span-recording wrappers; ``with Tracer() as t:`` to scope."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._patches = []

    # --- recording ----------------------------------------------------

    def _wrap(self, fn, name, info=None, point=None, root=False):
        local = self._local
        spans = self.spans

        def wrapper(*args, **kwargs):
            if point is not None:
                local.point = point(*args)
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            if root:
                outer, self._root = self._root, sid
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if root:
                    self._root = outer
            spans.append((sid, name, t0, t1, parent,
                          getattr(local, "point", None),
                          threading.get_ident(),
                          info(args, out) if info else None))
            return out

        return wrapper

    def _patch(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self._wrap(orig, name, **kw))

    def _hamiltonian_info(self, args, h):
        # count matvecs per instance, as the solvers call h.matvec
        h.matvec = self._wrap(h.matvec, "eigensolve.matvec")
        m = h.matrix
        return {"dim": h.dim, "nnz": int(m.nnz),
                "csr_bytes": int(m.data.nbytes + m.indices.nbytes
                                 + m.indptr.nbytes)}

    def __enter__(self):
        sw, models, eig = atxxz.sweeps, atxxz.models, atxxz.eigensolve
        p = self._patch
        p(sw, "run_sweep", "sweeps.run_sweep", root=True)
        p(sw, "write_csv", "sweeps.write_csv",
          info=lambda a, _: {"bytes": os.path.getsize(a[1])})
        p(sw, "build_hamiltonian", "models.build_hamiltonian",
          info=self._hamiltonian_info,
          point=lambda prm, *_: (prm.n_spins, prm.delta, prm.beta))
        p(models, "build_basis", "basis.build_basis",
          info=lambda a, b: {"dim": b.dim, "n": b.n_spins})
        for attr in ("at_entries", "xxz_entries"):
            p(atxxz.kernels, attr, "kernels.entries",
              info=lambda a, out: {"triplets": len(out[0])})
        p(sw, "ground_state", "eigensolve.ground_state")
        p(eig, "dense_spectrum", "eigensolve.dense_spectrum")
        p(eig, "lanczos_ground", "eigensolve.lanczos_ground",
          info=lambda a, _: {"dim": a[0].dim})
        p(sw, "reduce_state", "entanglement.reduce_state")
        for attr in ("negativity", "dsb"):
            p(sw, attr, "entanglement.pt_eig")
        p(sw, "von_neumann", "entanglement.von_neumann")
        for attr in ("magnetization_x", "correlator_x", "finite_difference"):
            p(sw, attr, "observables")
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()
        return False


# --- aggregation ------------------------------------------------------------

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        children[s[4]].append((s[2], s[3]))

    def busy(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def union(name):
        return union_length([(s[2], s[3]) for s in by_name[name]])

    def self_time(name):
        return sum(s[3] - s[2] - union_length(children[s[0]])
                   for s in by_name[name])

    def info_sum(name, key):
        return sum(s[7][key] for s in by_name[name])

    def info_max(name, key):
        return max((s[7][key] for s in by_name[name]), default=0)

    extent = {}
    for s in spans:
        if s[5] is not None:
            lo, hi = extent.get(s[5], (s[2], s[3]))
            extent[s[5]] = (min(lo, s[2]), max(hi, s[3]))
    point_s = [hi - lo for lo, hi in extent.values()]
    per_point = list(Counter(s[5] for s in by_name["eigensolve.matvec"])
                     .values())
    per_solve = Counter(s[4] for s in by_name["eigensolve.matvec"])
    krylov = max((per_solve[s[0]] * s[7]["dim"] * FLOAT_BYTES
                  for s in by_name["eigensolve.lanczos_ground"]), default=0)
    pool = defaultdict(set)  # run_sweep span -> threads that built points
    for s in by_name["models.build_hamiltonian"]:
        pool[s[4]].add(s[6])
    workers = max((len(t) for t in pool.values()), default=0)
    states = info_sum("basis.build_basis", "dim")
    full = sum(2 ** s[7]["n"] for s in by_name["basis.build_basis"])
    triplets = info_sum("kernels.entries", "triplets")
    nnz = info_sum("models.build_hamiltonian", "nnz")

    return {
        "basis.build_basis.s": (busy("basis.build_basis"), "s"),
        "basis.states": (states, "count"),
        "basis.keep_ratio": (states / full if full else 0.0, "ratio"),
        "kernels.entries.s": (busy("kernels.entries"), "s"),
        "kernels.triplets": (triplets, "count"),
        "kernels.triplet_bytes": (
            info_max("kernels.entries", "triplets") * TRIPLET_BYTES, "B"),
        "models.build_hamiltonian.s": (busy("models.build_hamiltonian"), "s"),
        "models.build_hamiltonian.union_s": (
            union("models.build_hamiltonian"), "s"),
        "models.build_hamiltonian.self_s": (
            self_time("models.build_hamiltonian"), "s"),
        "models.nnz": (nnz, "count"),
        "models.dedup_ratio": (nnz / triplets if triplets else 0.0, "ratio"),
        "models.csr_bytes": (
            info_max("models.build_hamiltonian", "csr_bytes"), "B"),
        "eigensolve.ground_state.s": (busy("eigensolve.ground_state"), "s"),
        "eigensolve.ground_state.union_s": (
            union("eigensolve.ground_state"), "s"),
        "eigensolve.dense_spectrum.calls": (
            len(by_name["eigensolve.dense_spectrum"]), "count"),
        "eigensolve.dense_spectrum.s": (
            busy("eigensolve.dense_spectrum"), "s"),
        "eigensolve.lanczos_ground.calls": (
            len(by_name["eigensolve.lanczos_ground"]), "count"),
        "eigensolve.lanczos_ground.s": (
            busy("eigensolve.lanczos_ground"), "s"),
        "eigensolve.lanczos_ground.self_s": (
            self_time("eigensolve.lanczos_ground"), "s"),
        "eigensolve.matvec.count": (
            len(by_name["eigensolve.matvec"]), "count"),
        "eigensolve.matvec.s": (busy("eigensolve.matvec"), "s"),
        "eigensolve.matvecs_per_point.p50": (
            statistics.median(per_point) if per_point else 0, "count"),
        "eigensolve.matvecs_per_point.max": (max(per_point, default=0),
                                             "count"),
        "eigensolve.krylov_bytes": (krylov, "B"),
        "entanglement.reduce_state.s": (
            busy("entanglement.reduce_state"), "s"),
        "entanglement.pt_eig.s": (busy("entanglement.pt_eig"), "s"),
        "entanglement.von_neumann.s": (
            busy("entanglement.von_neumann"), "s"),
        "observables.s": (busy("observables"), "s"),
        "sweeps.run_sweep.s": (busy("sweeps.run_sweep"), "s"),
        "sweeps.run_sweep.uncovered_s": (
            busy("sweeps.run_sweep") - sum(
                union_length(children[s[0]])
                for s in by_name["sweeps.run_sweep"]), "s"),
        "sweeps.workers": (workers, "count"),
        "sweeps.points": (len(point_s), "count"),
        "sweeps.point_s.p50": (statistics.median(point_s) if point_s else 0.0,
                               "s"),
        # p90 once there are 100 points (10 beyond it), else the maximum
        "sweeps.point_s.tail": (
            _quantile(point_s, 0.9) if len(point_s) >= 100
            else max(point_s, default=0.0), "s"),
        "sweeps.point_s.union_s": (
            union_length(list(extent.values())), "s"),
        "sweeps.write_csv.s": (busy("sweeps.write_csv"), "s"),
        "sweeps.csv_bytes": (info_sum("sweeps.write_csv", "bytes"), "B"),
    }
