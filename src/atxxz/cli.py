"""Command-line front end.

Exit codes: 0 success, 1 argument error, 2 solver failure, 3 verification
failure.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .basis import CapacityError, Full, build_basis
from .models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                     build_hamiltonian, ground_sector)
from .eigensolve import (DENSE_LIMIT, ConvergenceError, dense_spectrum,
                         ground_state)
from .sweeps import SweepSpec, figure_presets, run_sweep
from . import verify as verify_mod

EXIT_OK = 0
EXIT_ARGUMENT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

FIGURES = ("fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10")
SUITES = ("link-algebra", "constraints", "energy", "density",
          "spectral-inclusion", "all")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _parse_range(text):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise _ArgumentError(f"range must be start:stop:step, got {text!r}")
    return start, stop, step


def _parse_block(text):
    if "," in text or text.isdigit():
        return tuple(int(x) for x in text.split(","))
    return text


def _load_config(path):
    """Flat key=value file mirroring CLI flag names (dashes or underscores)."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _ArgumentError(f"malformed config line {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _build_parser():
    parser = _Parser(prog="atxxz", description=__doc__)
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        subparsers[name] = p
        return p

    def common(p):
        p.add_argument("--model", choices=(ASHKIN_TELLER, STAGGERED_XXZ),
                       default=ASHKIN_TELLER)
        p.add_argument("--m-sites", type=int, default=4,
                       help="M; the chain carries 2M spins")
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10)

    p_sweep = add_parser("sweep", help="general ground-state sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=("delta", "beta"), default="delta")
    p_sweep.add_argument("--range", default="0.5:1.5:0.025",
                         help="swept grid as start:stop:step")
    p_sweep.add_argument("--block", default="frontal-pair",
                         help="preset name or comma-separated site list")
    p_sweep.add_argument("--quantity", action="append", default=None,
                         help="repeatable; e.g. entropy, negativity, d1:entropy")
    p_sweep.add_argument("--out", default="sweep.csv")

    p_fig = add_parser("figure", help="named figure-reproduction preset")
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--full", action="store_true",
                       help="use the original 20-spin chain sizes")

    p_spec = add_parser("spectrum", help="low-lying energies of one chain")
    common(p_spec)
    p_spec.add_argument("--sector", choices=("ground", "full"), default="ground")
    p_spec.add_argument("--levels", type=int, default=2)

    p_ver = add_parser("verify", help="equivalence and algebra checks")
    p_ver.add_argument("suites", nargs="+", choices=SUITES)
    p_ver.add_argument("--m", dest="m_sites", type=int, default=3)
    p_ver.add_argument("--delta", type=float, default=1.0)
    p_ver.add_argument("--beta", type=float, default=1.0)
    p_ver.add_argument("--out", default=None, help="write the report here too")

    p_info = add_parser("info", help="build and capacity information")
    common(p_info)
    return parser, subparsers


def _cmd_sweep(args):
    start, stop, step = _parse_range(args.range)
    quantities = args.quantity or ["entropy"]
    if isinstance(quantities, str):  # config-file value
        quantities = quantities.replace(",", " ").split()
    spec = SweepSpec(
        model=args.model, m_sites=args.m_sites, sweep=args.sweep,
        start=start, stop=stop, step=step, delta=args.delta, beta=args.beta,
        quantities=tuple(quantities),
        block=_parse_block(args.block), out=args.out, tol=args.tol,
        seed=args.seed)
    result = run_sweep(spec)
    bad = sum(1 for r in result.rows if not r.converged)
    print(f"wrote {len(result.rows)} rows to {args.out}"
          + (f" ({bad} unconverged)" if bad else ""))
    return EXIT_SOLVER if bad else EXIT_OK


def _cmd_figure(args):
    code = EXIT_OK
    for spec in figure_presets(args.name, full=args.full, out_dir=args.out):
        result = run_sweep(spec)
        bad = sum(1 for r in result.rows if not r.converged)
        print(f"{spec.out}: {len(result.rows)} rows"
              + (f" ({bad} unconverged)" if bad else ""))
        if bad:
            code = EXIT_SOLVER
    return code


def _cmd_spectrum(args):
    p = ModelParams(args.model, args.m_sites, delta=args.delta, beta=args.beta)
    sector = ground_sector(p) if args.sector == "ground" else Full()
    if args.levels < 1:
        raise _ArgumentError("--levels must be at least 1")
    h = build_hamiltonian(p, sector)
    if args.levels <= 2:
        res = ground_state(h, k=args.levels, tol=args.tol, seed=args.seed)
    elif h.dim <= DENSE_LIMIT:
        res = dense_spectrum(h, k=args.levels)
    else:
        raise _ArgumentError(
            f"--levels {args.levels} needs the dense solver, which is limited "
            f"to dimension {DENSE_LIMIT} (this chain has {h.dim}); "
            f"use --levels 2 or fewer")
    print(f"model={p.model} spins={p.n_spins} sector={sector} dim={h.dim}")
    for i, e in enumerate(res.energies):
        print(f"E{i} = {e:.12f}")
    if res.degenerate:
        print("note: near-degenerate ground state")
    return EXIT_OK


def _cmd_verify(args):
    suites = set(args.suites)
    if "all" in suites:
        suites = set(SUITES) - {"all"}
    m = args.m_sites
    reports = []
    if "link-algebra" in suites:
        for model in (ASHKIN_TELLER, STAGGERED_XXZ):
            reports.append(verify_mod.check_link_algebra(model, min(m, 4)))
    if "constraints" in suites:
        for model in (ASHKIN_TELLER, STAGGERED_XXZ):
            p = ModelParams(model, min(m, 6), delta=args.delta, beta=args.beta)
            reports.append(verify_mod.check_constraints_on_ground_state(p))
    if "energy" in suites:
        reports.append(verify_mod.check_energy_equivalence(
            args.delta, args.beta, min(m, 7)))
    if "density" in suites:
        reports.append(verify_mod.check_density_equality(
            args.delta, args.beta, min(m, 6)))
    if "spectral-inclusion" in suites:
        reports.append(verify_mod.check_spectral_inclusion(
            args.delta, args.beta, min(m, 3)))

    lines = [r.summary() for r in reports]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    failed = [r for r in reports if not r.passed and not np.isnan(r.max_deviation)]
    inconclusive = [r for r in reports if np.isnan(r.max_deviation)]
    if inconclusive:
        print(f"{len(inconclusive)} inconclusive check(s)")
    if failed:
        print(f"{len(failed)} check(s) FAILED")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _cmd_info(args):
    p = ModelParams(args.model, args.m_sites, delta=args.delta, beta=args.beta)
    sector = ground_sector(p)
    basis = build_basis(p.n_spins, sector,
                        frame="x" if p.model == ASHKIN_TELLER else "z")
    print(f"atxxz {__version__}")
    print(f"model={p.model} M={p.m_sites} spins={p.n_spins}")
    print(f"ground sector {sector}: dimension {basis.dim} of {1 << p.n_spins}")
    return EXIT_OK


def _apply_config(parser, subparser, path):
    defaults = _load_config(path)
    coerced = {}
    for act in subparser._actions:
        if act.dest not in defaults:
            continue
        raw = defaults[act.dest]
        if isinstance(act.default, bool):
            coerced[act.dest] = raw.lower() in ("1", "true", "yes")
        elif act.type is not None:
            coerced[act.dest] = act.type(raw)
        else:
            coerced[act.dest] = raw
    unknown = set(defaults) - {a.dest for a in subparser._actions}
    if unknown:
        raise _ArgumentError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**coerced)


def main(argv=None):
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config supplies defaults; explicit CLI flags win on the reparse
            _apply_config(parser, subparsers[args.command], args.config)
            args = parser.parse_args(argv)
        handler = {"sweep": _cmd_sweep, "figure": _cmd_figure,
                   "spectrum": _cmd_spectrum, "verify": _cmd_verify,
                   "info": _cmd_info}[args.command]
        return handler(args)
    except (_ArgumentError, ValueError, KeyError, FileNotFoundError,
            CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
