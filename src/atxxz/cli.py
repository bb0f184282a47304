"""Command-line front end.

Exit codes: 0 success, 1 argument error, 2 solver failure, 3 verification
failure.
"""

import argparse
import os
import sys

from . import __version__
from .basis import CapacityError, Full, K0, build_basis, sector_dim
from .models import (ASHKIN_TELLER, FRAMES, ModelParams, build_hamiltonian,
                     ground_sector, k0_domain)
from .eigensolve import (ConvergenceError, check_solver_args, ground_state,
                         solver_path)
from .sweeps import SweepSpec, figure_presets, run_sweep
from . import verify as verify_mod

EXIT_OK = 0
EXIT_ARGUMENT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

FIGURES = ("fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10")


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


def _check_out(path, directory=False):
    """Refuse an ``--out`` of the wrong kind before any solve: a directory
    where a file goes, or a file where a directory goes or above it."""
    d = os.path.abspath(path)
    while not os.path.exists(d):  # each writer makes missing directories
        d = os.path.dirname(d)
    want_dir = directory or d != os.path.abspath(path)
    if os.path.isdir(d) != want_dir:
        raise _ArgumentError(f"--out {path!r}: {d} is {'not ' * want_dir}a directory")


def _build_parser():
    parser = _Parser(prog="atxxz", description=__doc__)
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", choices=tuple(FRAMES), default=ASHKIN_TELLER)
        p.add_argument("--m-sites", type=int, default=4,
                       help="M; the chain carries 2M spins")
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10)

    p_sweep = sub.add_parser("sweep", help="general ground-state sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=("delta", "beta"), default="delta")
    p_sweep.add_argument("--range", default="0.5:1.5:0.025",
                         help="swept grid as start:stop:step")
    p_sweep.add_argument("--block", default="frontal-pair",
                         help="preset name or comma-separated site list")
    p_sweep.add_argument("--quantity", action="append", default=None,
                         help="repeatable; e.g. entropy, negativity, d1:entropy")
    p_sweep.add_argument("--out", default="sweep.csv")

    p_fig = sub.add_parser("figure", help="named figure-reproduction preset")
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--full", action="store_true",
                       help="use the original 20-spin chain sizes")

    p_spec = sub.add_parser("spectrum", help="low-lying energies of one chain")
    common(p_spec)
    p_spec.add_argument("--sector", choices=("ground", "full"), default="ground")
    p_spec.add_argument("--levels", type=int, default=2)

    p_ver = sub.add_parser("verify", help="equivalence and algebra checks")
    p_ver.add_argument("suites", nargs="+", choices=(*verify_mod.SUITE_MAX_M, "all"))
    p_ver.add_argument("--m", dest="m_sites", type=int, default=3)
    p_ver.add_argument("--delta", type=float, default=1.0)
    p_ver.add_argument("--beta", type=float, default=1.0)
    p_ver.add_argument("--out", default=None, help="write the report here too")

    common(sub.add_parser("info", help="build and capacity information"))
    return parser, sub.choices


def _rows_exit(rows, head):
    """Print ``head`` with the unconverged-row count; exit 2 if there are any."""
    bad = sum(1 for r in rows if not r.converged)
    print(head + (f" ({bad} unconverged)" if bad else ""))
    return EXIT_SOLVER if bad else EXIT_OK


def _cmd_sweep(args):
    _check_out(args.out)
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
    rows = run_sweep(spec).rows
    return _rows_exit(rows, f"wrote {len(rows)} rows to {args.out}")


def _cmd_figure(args):
    _check_out(args.out, directory=True)
    code = EXIT_OK
    for spec in figure_presets(args.name, full=args.full, out_dir=args.out):
        rows = run_sweep(spec).rows
        code = max(code, _rows_exit(rows, f"{spec.out}: {len(rows)} rows"))
    return code


def _cmd_spectrum(args):
    check_solver_args(args.tol, args.seed)
    p = ModelParams(args.model, args.m_sites, delta=args.delta, beta=args.beta)
    sector = ground_sector(p) if args.sector == "ground" else Full()
    # refuse a solve beyond capacity before any basis is enumerated
    solver_path(sector_dim(p.n_spins, sector), args.levels)
    h = build_hamiltonian(p, sector)
    res = ground_state(h, k=args.levels, tol=args.tol, seed=args.seed)
    print(f"model={p.model} spins={p.n_spins} sector={sector} dim={h.dim}")
    for i, e in enumerate(res.energies):
        print(f"E{i} = {e:.12f}")
    if res.degenerate:
        print("note: degenerate ground state")
    return EXIT_OK


def _cmd_verify(args):
    if args.out:
        _check_out(args.out)
    reports = verify_mod.run_suites(args.suites, args.m_sites, args.delta, args.beta)
    text = "\n".join(r.summary() for r in reports)
    print(text)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    failed = sum(not r.passed and not r.inconclusive for r in reports)
    inconclusive = sum(r.inconclusive for r in reports)
    if inconclusive:
        print(f"{inconclusive} inconclusive check(s)")
    if failed:
        print(f"{failed} check(s) FAILED")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _cmd_info(args):
    p = ModelParams(args.model, args.m_sites, delta=args.delta, beta=args.beta)
    sector = ground_sector(p)
    basis = build_basis(p.n_spins, K0(sector), frame=FRAMES[p.model])
    print(f"atxxz {__version__}")
    print(f"model={p.model} M={p.m_sites} spins={p.n_spins}")
    print(f"ground sector {sector}: dimension {basis.parent.dim} of {1 << p.n_spins}")
    proven = "holds" if k0_domain(p) else "is not proven to hold"
    print(f"k=0 sector: dimension {basis.dim}; it {proven} the ground state")
    return EXIT_OK


def _apply_config(subparser, path):
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
            _apply_config(subparsers[args.command], args.config)
            args = parser.parse_args(argv)
        handler = {"sweep": _cmd_sweep, "figure": _cmd_figure,
                   "spectrum": _cmd_spectrum, "verify": _cmd_verify,
                   "info": _cmd_info}[args.command]
        return handler(args)
    except (_ArgumentError, ValueError, KeyError, OSError,
            CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
