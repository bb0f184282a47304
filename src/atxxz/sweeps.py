"""Parameter sweeps over ground states, figure presets, CSV emission."""

import logging
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .basis import K0
from .models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                     build_hamiltonian, check_real, ground_sector, k0_domain)
from .eigensolve import (ConvergenceError, check_solver_args, ground_state,
                         solver_path)
from .entanglement import (InvalidStateError, check_sites, dsb, negativity,
                           reduce_state, von_neumann)
from .observables import correlator_x, finite_difference, magnetization_x

_log = logging.getLogger("atxxz")

CSV_HEADER = "model,chain_spins,delta,beta,block,quantity,value,converged"

BASE_QUANTITIES = ("energy", "entropy", "negativity", "dsb", "m", "g")

BLOCK_PRESETS = {
    # site lists follow the bit conventions of the models module
    "frontal-pair": {ASHKIN_TELLER: (0, 1)},
    "quartet": {ASHKIN_TELLER: (0, 1, 2, 3), STAGGERED_XXZ: (0, 1, 2, 3)},
    "nn-pair": {STAGGERED_XXZ: (0, 1)},
    "sigma-sigma-pair": {ASHKIN_TELLER: (0, 2)},
    "sigma-tau-cross-pair": {ASHKIN_TELLER: (0, 3)},
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a parameter grid, a block, and the quantities per point."""

    model: str
    m_sites: int
    sweep: str  # "delta" or "beta"
    start: float
    stop: float
    step: float
    delta: float = 1.0  # fixed value when sweeping beta
    beta: float = 1.0  # fixed value when sweeping delta
    quantities: Sequence[str] = ("entropy",)
    block: object = "frontal-pair"  # preset name or explicit site list
    out: Optional[str] = None
    tol: float = 1e-10
    # draws the ARPACK start of a sweep outside K0, and (as seed + 1) of
    # every retry; a K0 sweep starts from sqrt(sizes) or the last psi0
    seed: int = 0
    # ignored, since sweeps run serially; perfbench/layer_report.py still sets it
    threads: Optional[int] = None

    def __post_init__(self):
        # everything a sweep cannot compute is refused here, before any build
        if self.sweep not in ("delta", "beta"):
            raise ValueError("sweep parameter must be 'delta' or 'beta'")
        for name in ("start", "stop", "step"):
            check_real(name, getattr(self, name))
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.start >= self.stop + 1e-12:
            raise ValueError("start must be below stop")
        check_solver_args(self.tol, self.seed)
        if not self.quantities:
            raise ValueError("a sweep needs at least one quantity")
        if len(set(self.quantities)) != len(self.quantities):
            raise ValueError(f"repeated quantity in {tuple(self.quantities)}")
        for q in self.quantities:
            base = q.split(":", 1)[-1]
            if base not in BASE_QUANTITIES or (
                    ":" in q and q.split(":", 1)[0] not in ("d1", "d2")):
                raise ValueError(f"unknown quantity {q!r}")
            if base in ("m", "g") and self.model != ASHKIN_TELLER:
                raise ValueError(f"quantity {q!r} needs the Ashkin-Teller chain")
        if any(":" in q for q in self.quantities) and len(self.grid()) < 3:
            raise ValueError("derivative quantities need at least 3 grid points")
        # valid couplings, and the lowest delta in the ground sector's domain
        p = ModelParams(self.model, self.m_sites, delta=self.delta, beta=self.beta)
        ground_sector(replace(p, **{self.sweep: self.start}))
        _, sites = resolve_block(self.block, self.model, 2 * self.m_sites)
        if len(sites) < 2 and any(q.split(":", 1)[-1] in ("negativity", "dsb")
                                  for q in self.quantities):
            raise ValueError("negativity and dsb need a block of two or more sites")

    def grid(self):
        # the tolerance absorbs float drift in (stop - start) / step
        n = math.floor((self.stop - self.start) / self.step + 1e-9) + 1
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class Row:
    model: str
    chain_spins: int
    delta: float
    beta: float
    block: str
    quantity: str
    value: float
    converged: bool


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list = field(default_factory=list)


def resolve_block(block, model, n_spins):
    """Preset name or site list -> (label, site tuple)."""
    if not isinstance(block, str):
        sites = check_sites(block, n_spins)
        return "+".join(str(s) for s in sites), sites
    preset = BLOCK_PRESETS.get(block)
    if preset is None:
        raise ValueError(f"unknown block preset {block!r}")
    if model not in preset:
        raise ValueError(f"block preset {block!r} undefined for model {model!r}")
    return block, check_sites(preset[model], n_spins)


def _warn(spec, p, reason):
    _log.warning("%s, %d spins, %s=%.12g: %s", p.model, p.n_spins,
                 spec.sweep, getattr(p, spec.sweep), reason)


def _evaluate_point(spec, h, base_quantities, sites, v0, k):
    """Values and converged flags of each base quantity at one point, and
    the solve of its ``k`` lowest levels (None where the point failed);
    ``v0`` starts the solver."""
    p = h.params
    try:
        res = ground_state(h, k=k, tol=spec.tol, seed=spec.seed, v0=v0)
        psi = res.ground_state
        out = {}
        rho = None
        for q in base_quantities:
            if q == "energy":
                out[q] = res.ground_energy
                continue
            if q in ("m", "g"):
                out[q] = magnetization_x(psi, p) if q == "m" else correlator_x(psi, p)
                continue
            if rho is None:
                rho = reduce_state(psi, sites)
            if q == "entropy":
                out[q] = von_neumann(rho)
            else:
                half = sites[:max(1, len(sites) // 2)]
                out[q] = negativity(rho, half) if q == "negativity" else dsb(rho, half)
    except (ConvergenceError, InvalidStateError) as exc:
        _warn(spec, p, f"{type(exc).__name__}: {exc}")
        return p, {q: float("nan") for q in base_quantities}, dict.fromkeys(
            base_quantities, False), None
    if res.degenerate:
        gap = "n/a" if res.gap is None else f"{res.gap:.1e}"
        _warn(spec, p, f"degenerate ground state (gap {gap}, "
                       f"translation overlap {res.overlap:.6f}); "
                       "state-dependent rows flagged unconverged")
    return p, out, {q: q == "energy" or not res.degenerate
                    for q in base_quantities}, res


def run_sweep(spec):
    """Solve every grid point and emit rows (and the CSV, if requested).

    Where both grid ends lie in ``k0_domain``, so does every point, and the
    sweep solves in the K0 refinement of the ground sector. There the
    ground level is simple and its state nodeless (Perron-Frobenius), so
    each point solves only that level (``k = 1``; a dense solve still
    solves level 1 for its gap). An ARPACK solve after a converged,
    nondegenerate point starts from that point's psi0; the first point,
    and a point after a failed or degenerate one, start from sqrt(sizes),
    the K0 coordinates of the uniform parent-sector state. Points outside
    K0 solve two levels from ``spec.seed``.
    """
    n_spins = 2 * spec.m_sites
    label, sites = resolve_block(spec.block, spec.model, n_spins)
    grid = spec.grid()
    base = sorted({q.split(":", 1)[-1] for q in spec.quantities})

    p = ModelParams(spec.model, spec.m_sites, delta=spec.delta, beta=spec.beta)
    p0 = replace(p, **{spec.sweep: 0.0})
    sector = ground_sector(p0)
    if all(k0_domain(replace(p, **{spec.sweep: x})) for x in (grid[0], grid[-1])):
        sector = K0(sector)
    h = build_hamiltonian(p0, sector, spec.sweep)  # H(x) = A + x B
    a, b = h.matrix.data, h.slope
    h.matrix.data = np.empty_like(a)
    k = 1 if isinstance(sector, K0) else 2
    # the K0 ground state is nodeless, so it overlaps sqrt(sizes), the
    # uniform parent-sector state in K0 coordinates; only ARPACK reads v0
    uniform = (np.sqrt(h.basis.sizes)
               if k == 1 and solver_path(h.dim, k) == "arpack" else None)
    points, v0 = [], uniform
    for x in grid:
        np.multiply(b, x, out=h.matrix.data)
        h.matrix.data += a
        h.params = replace(p, **{spec.sweep: x})
        *point, res = _evaluate_point(spec, h, base, sites, v0, k)
        points.append(point)
        v0 = uniform
        if uniform is not None and res is not None and not res.degenerate:
            v0 = res.ground_state.amplitudes

    result = SweepResult(spec)
    values = {q: np.array([pt[1][q] for pt in points]) for q in base}
    conv = {q: np.array([pt[2][q] for pt in points]) for q in base}
    for q in spec.quantities:
        if ":" in q:
            order, name = int(q[1]), q.split(":", 1)[1]
            col = finite_difference(values[name], spec.step, order)
            # a derivative row is converged when every point its stencil
            # reads is: push NaN marks of failed points through that stencil
            marks = np.where(conv[name], 0.0, np.nan)
            col_conv = ~np.isnan(finite_difference(marks, spec.step, order))
        else:
            col, col_conv = values[q], conv[q]
        for (p, _, _), v, ok in zip(points, col, col_conv):
            result.rows.append(Row(spec.model, n_spins, p.delta, p.beta,
                                   label, q, float(v), bool(ok)))
    if spec.out:
        write_csv(result, spec.out)
    return result


def write_csv(result, path):
    """Atomic long-format CSV: temp file then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in result.rows:
                fh.write(f"{r.model},{r.chain_spins},{r.delta:.12g},"
                         f"{r.beta:.12g},{r.block},{r.quantity},"
                         f"{r.value:.12g},{int(r.converged)}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path):
    """Parse an emitted sweep CSV back into Row records."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            model, spins, d, b, block, q, v, c = line.strip().split(",")
            rows.append(Row(model, int(spins), float(d), float(b), block, q,
                            float(v), bool(int(c))))
    return rows


# --- figure presets -------------------------------------------------------

def figure_presets(name, full=False, out_dir="."):
    """Sweep specs for one of the named reference figures (reduced sizes).

    The ``full`` flag raises chain lengths to 20 spins, at matching
    runtime cost.
    """
    specs = []

    def add(m_sites, tag, **kw):
        out = os.path.join(out_dir, f"{name}_{tag}_spins{2 * m_sites}.csv")
        specs.append(SweepSpec(m_sites=m_sites, out=out, **kw))

    if name == "fig3":
        # pairwise negativity and separability distance, three pair choices
        for m in ([10] if full else [6]):
            for block in ("sigma-sigma-pair", "sigma-tau-cross-pair",
                          "frontal-pair"):
                add(m, block, model=ASHKIN_TELLER, sweep="delta",
                    start=-0.5, stop=2.0, step=0.025, beta=1.0,
                    quantities=("negativity", "dsb"), block=block)
    elif name == "fig4":
        for m in ([3, 4, 10] if full else [3, 4, 6]):
            add(m, "frontal-pair", model=ASHKIN_TELLER, sweep="delta",
                start=-0.5, stop=2.0, step=0.025, beta=1.0,
                quantities=("negativity", "dsb"), block="frontal-pair")
    elif name == "fig6":
        for m in ([3, 4, 5, 6, 7, 10] if full else [3, 4, 5, 6, 7, 8]):
            add(m, "frontal-pair", model=ASHKIN_TELLER, sweep="delta",
                start=0.5, stop=1.5, step=0.025, beta=1.0,
                quantities=("entropy", "d1:entropy"), block="frontal-pair")
    elif name == "fig7":
        # four-site sublattices with an increasing number of boundary bonds:
        # (a) two adjacent frontal pairs, (b) two separated frontal pairs,
        # (c) four alternating sigma spins
        blocks = {"contiguous": (0, 1, 2, 3), "split": (0, 1, 4, 5),
                  "alternating": (0, 2, 4, 6)}
        for m in ([10] if full else [6]):
            for tag, sites in blocks.items():
                add(m, tag, model=ASHKIN_TELLER, sweep="delta",
                    start=0.5, stop=1.5, step=0.025, beta=1.0,
                    quantities=("entropy", "d1:entropy"), block=sites)
    elif name in ("fig8", "fig9"):
        block = "frontal-pair" if name == "fig8" else "quartet"
        for m in ([10] if full else [6]):
            for beta in (0.5, 0.75, 1.0, 1.25, 1.75):
                add(m, f"beta{beta:g}", model=ASHKIN_TELLER, sweep="delta",
                    start=0.5, stop=1.5, step=0.025, beta=beta,
                    quantities=("entropy", "d1:entropy"), block=block)
    elif name == "fig10":
        for m in ([4, 10] if full else [4]):
            add(m, "quartet", model=ASHKIN_TELLER, sweep="beta",
                start=0.1, stop=3.0, step=0.025, delta=5.0,
                quantities=("entropy", "d1:entropy"), block="quartet")
    else:
        raise ValueError(f"unknown figure preset {name!r}")
    return specs
