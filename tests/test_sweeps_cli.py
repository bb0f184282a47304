import dataclasses
import logging

import numpy as np
import pytest

from atxxz import cli, kernels
from atxxz.basis import K0, CapacityError, SpinBasis, SzFixed, XParity
from atxxz.eigensolve import ConvergenceError, ground_state
from atxxz.entanglement import (InvalidStateError, negativity, reduce_state,
                                von_neumann)
from atxxz.models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                          ground_sector)
from atxxz.observables import (SymmetryViolationError, correlator_x,
                               finite_difference, magnetization_x)
from atxxz.sweeps import (SweepSpec, figure_presets, read_csv, resolve_block,
                          run_sweep, write_csv)
import atxxz.models as models_mod
import atxxz.sweeps as sweeps_mod
from oracles import series


def small_spec(**kw):
    base = dict(model=ASHKIN_TELLER, m_sites=2, sweep="delta",
                start=0.5, stop=0.7, step=0.1, beta=1.0,
                quantities=("energy", "entropy"), block="frontal-pair",
                out=None)
    base.update(kw)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_grid(self):
        assert np.allclose(small_spec().grid(), [0.5, 0.6, 0.7])

    def test_grid_avoids_float_drift(self):
        g = small_spec(start=0.5, stop=1.5, step=0.025).grid()
        assert len(g) == 41
        assert g[-1] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("start,stop,step", [
        (0.0, 1.0, 0.6), (0.5, 0.7, 0.15), (-0.5, 2.0, 0.3), (0.5, 1.5, 0.025)])
    def test_grid_never_passes_stop(self, start, stop, step):
        g = small_spec(start=start, stop=stop, step=step).grid()
        assert g.max() <= stop + 1e-12
        assert g[-1] > stop - step  # and it stops less than one step short

    def test_derivative_needs_three_points(self):
        with pytest.raises(ValueError, match="3 grid points"):
            small_spec(stop=0.55, step=0.05, quantities=("d1:entropy",))
        assert len(small_spec(stop=0.55, step=0.05).grid()) == 2

    @pytest.mark.parametrize("kw", [
        {"sweep": "gamma"}, {"step": 0.0}, {"start": 2.0, "stop": 1.0},
        {"quantities": ("volume",)}, {"quantities": ("d3:entropy",)}])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            small_spec(**kw)

    def test_refuses_delta_below_ground_sector_domain(self):
        with pytest.raises(ValueError, match="--sector full"):
            small_spec(start=-1.05, stop=0.0, step=0.05)
        with pytest.raises(ValueError, match="--sector full"):
            small_spec(sweep="beta", delta=-1.05)
        small_spec(start=-1.0, stop=0.0, step=0.05)
        small_spec(delta=-3.0)  # the fixed delta is not used on a delta sweep

    @pytest.mark.parametrize("kw", [
        {"model": STAGGERED_XXZ, "block": "quartet",
         "quantities": ("entropy", "m")},
        {"model": STAGGERED_XXZ, "block": "quartet", "quantities": ("d1:g",)},
        {"block": "no-such-preset"}, {"block": "nn-pair"}, {"block": (0, 4)},
        {"block": (1, 1)}, {"stop": np.inf}, {"start": np.nan},
        {"step": np.nan}, {"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0},
        {"beta": np.nan}, {"block": ()},
        {"block": (0,), "quantities": ("negativity",)},
        {"block": (1,), "quantities": ("energy", "d1:dsb")}, {"quantities": ()},
        {"quantities": ("entropy", "entropy")}, {"seed": -1}])
    def test_refused_before_any_build(self, kw, monkeypatch):
        builds = []
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian",
                            lambda *a: builds.append(a))
        with pytest.raises(ValueError):
            run_sweep(small_spec(**kw))
        assert builds == []
        with pytest.raises(ValueError):
            small_spec(**kw)  # the spec itself refuses, not run_sweep

    def test_block_beyond_dense_trace_refused_before_any_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian",
                            lambda *a: builds.append(a))
        with pytest.raises(CapacityError):
            run_sweep(small_spec(m_sites=8, block=tuple(range(15))))
        assert builds == []


class TestResolveBlock:
    def test_presets(self):
        assert resolve_block("frontal-pair", ASHKIN_TELLER, 8) == ("frontal-pair", (0, 1))
        assert resolve_block("nn-pair", STAGGERED_XXZ, 8) == ("nn-pair", (0, 1))
        assert resolve_block("sigma-sigma-pair", ASHKIN_TELLER, 8)[1] == (0, 2)

    def test_explicit_sites(self):
        assert resolve_block((0, 3), ASHKIN_TELLER, 8) == ("0+3", (0, 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_block("no-such-preset", ASHKIN_TELLER, 8)
        with pytest.raises(ValueError):
            resolve_block("nn-pair", ASHKIN_TELLER, 8)
        with pytest.raises(ValueError):
            resolve_block((0, 9), ASHKIN_TELLER, 8)
        with pytest.raises(ValueError):
            resolve_block((), ASHKIN_TELLER, 8)
        with pytest.raises(CapacityError):
            resolve_block(range(15), ASHKIN_TELLER, 16)


class TestRunSweep:
    def test_rows_and_series(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 6  # 3 grid points x 2 quantities
        grid, energy = series(result, "energy")
        assert np.allclose(grid, [0.5, 0.6, 0.7])
        assert np.all(np.diff(energy) < 0)  # energy decreases with delta

    def test_derivative_quantity(self):
        spec = small_spec(stop=0.9, quantities=("entropy", "d1:entropy"))
        result = run_sweep(spec)
        _, s = series(result, "entropy")
        _, d = series(result, "d1:entropy")
        inner = (s[2:] - s[:-2]) / (2 * 0.1)
        assert np.allclose(d[1:-1], inner, atol=1e-12)

    @pytest.mark.parametrize("sweep", ["delta", "beta"])
    def test_derivative_columns_are_numpy_stencils(self, sweep):
        # d1: is numpy's gradient and d2: the three-point stencil, whose end
        # rows repeat their neighbours, both of the sweep's own entropy column
        spec = small_spec(sweep=sweep, start=0.6, stop=1.3, step=0.1,
                          quantities=("entropy", "d1:entropy", "d2:entropy"))
        result = run_sweep(spec)
        grid, s = series(result, "entropy")
        assert np.allclose(grid, spec.grid(), rtol=0, atol=1e-15)
        want = {"d1:entropy": np.gradient(s, 0.1),
                "d2:entropy": np.pad(np.diff(s, 2) / 0.1**2, 1, mode="edge")}
        for q, w in want.items():
            _, d = series(result, q)
            assert np.abs(d - w).max() <= 1e-12
        assert all(r.converged for r in result.rows)

    def test_m_and_g_quantities(self):
        result = run_sweep(small_spec(quantities=("m", "g")))
        for q in ("m", "g"):
            _, vals = series(result, q)
            assert np.all(np.abs(vals) <= 1.0)

    def test_unconverged_rows_are_nan(self, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceError("forced", best_residual=1.0)
        monkeypatch.setattr(sweeps_mod, "ground_state", boom)
        result = run_sweep(small_spec())
        assert all(not r.converged for r in result.rows)
        assert all(np.isnan(r.value) for r in result.rows)

    def test_derivative_rows_flag_their_own_stencil(self, monkeypatch):
        real = sweeps_mod.ground_state

        def fail_first_point(h, *a, **k):
            if h.params.delta == 0.5:
                raise ConvergenceError("forced", best_residual=1.0)
            return real(h, *a, **k)
        monkeypatch.setattr(sweeps_mod, "ground_state", fail_first_point)
        quantities = ("entropy", "d1:entropy", "d2:entropy")
        result = run_sweep(small_spec(stop=0.9, quantities=quantities))
        flags = {q: [r.converged for r in result.rows if r.quantity == q]
                 for q in quantities}
        assert flags["entropy"] == [False, True, True, True, True]
        # d1 reads (0, 1) at the left end and i +- 1 inside; d2 reads
        # (0, 1, 2) at the left end and i-1..i+1 inside
        assert flags["d1:entropy"] == [False, False, True, True, True]
        assert flags["d2:entropy"] == [False, False, True, True, True]
        assert all(np.isfinite(r.value) == r.converged for r in result.rows)

    @pytest.mark.parametrize("error", [SymmetryViolationError,
                                       InvalidStateError])
    def test_bad_point_becomes_nan_row(self, monkeypatch, caplog, error):
        real = sweeps_mod.magnetization_x

        def fail_middle_point(psi, p):
            if abs(p.delta - 0.6) < 1e-9:
                raise error("forced")
            return real(psi, p)
        monkeypatch.setattr(sweeps_mod, "magnetization_x", fail_middle_point)
        with caplog.at_level(logging.WARNING, logger="atxxz"):
            result = run_sweep(small_spec(quantities=("energy", "m")))
        assert [r.converged for r in result.rows] == [True, False, True] * 2
        assert all(np.isnan(r.value) != r.converged for r in result.rows)
        assert "delta=0.6" in caplog.text and error.__name__ in caplog.text

    @pytest.mark.parametrize("m_sites", [1, 2, 3])
    @pytest.mark.parametrize("sweep", ["delta", "beta"])
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_rows_match_per_point_builds(self, monkeypatch, model, sweep,
                                         m_sites):
        builds = []
        real = sweeps_mod.build_hamiltonian

        def counted(p, sector, pencil):
            builds.append((getattr(p, sweep), pencil))
            return real(p, sector, pencil)
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian", counted)
        bases = []
        real_basis = models_mod.build_basis

        def counted_basis(*args, **kw):
            bases.append(args)
            return real_basis(*args, **kw)
        monkeypatch.setattr(models_mod, "build_basis", counted_basis)
        kernel_calls, lookups = [], []
        for attr in ("at_entries", "xxz_entries"):
            real_kernel = getattr(kernels, attr)
            monkeypatch.setattr(kernels, attr, lambda *a, f=real_kernel: (
                kernel_calls.append(a) or f(*a)))
        real_index_of = SpinBasis.index_of
        monkeypatch.setattr(SpinBasis, "index_of", lambda b, labels: (
            lookups.append(labels) or real_index_of(b, labels)))
        spec = small_spec(model=model, m_sites=m_sites, sweep=sweep,
                          start=-0.4, stop=0.4, step=0.2, delta=0.7, beta=1.2,
                          block=(0, 1),
                          quantities=("energy", "entropy", "negativity"))
        rows = run_sweep(spec).rows
        # one pencil build, whatever the grid length
        assert builds == [(0.0, sweep)]
        assert len(bases) == len(kernel_calls) == len(lookups) == 1
        for i, x in enumerate(spec.grid()):
            p = ModelParams(model, m_sites, **{"delta": 0.7, "beta": 1.2, sweep: x})
            res = ground_state(real(p, ground_sector(p)), k=2, seed=0)
            rho = reduce_state(res.ground_state, (0, 1))
            want = (res.ground_energy, von_neumann(rho), negativity(rho, (0,)))
            for r, w in zip(rows[i::len(spec.grid())], want):
                assert (r.delta, r.beta) == (p.delta, p.beta) and r.converged
                assert abs(r.value - w) <= 1e-12

    @pytest.mark.parametrize("m_sites", [2, 5, 7])
    @pytest.mark.parametrize("sweep", ["delta", "beta"])
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_k0_rows_match_ground_sector(self, monkeypatch, model, sweep,
                                         m_sites):
        sectors = []
        real = sweeps_mod.build_hamiltonian

        def spy(p, sector, pencil):
            sectors.append(sector)
            return real(p, sector, pencil)
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian", spy)
        base = ("energy", "entropy", "negativity") + (
            ("m", "g") if model == ASHKIN_TELLER else ())
        spec = small_spec(model=model, m_sites=m_sites, sweep=sweep,
                          start=0.6, stop=1.4, step=0.2, delta=0.8, beta=1.1,
                          block=(0, 1, 2),
                          quantities=base + ("d1:entropy",))
        rows = run_sweep(spec).rows
        assert sectors == [K0(ground_sector(ModelParams(model, m_sites)))]
        grid = spec.grid()
        want = {q: [] for q in base}
        for x in grid:
            p = ModelParams(model, m_sites, **{"delta": 0.8, "beta": 1.1, sweep: x})
            res = ground_state(real(p, ground_sector(p)), k=2, seed=0)
            assert not res.degenerate
            psi = res.ground_state
            rho = reduce_state(psi, (0, 1, 2))
            point = {"energy": res.ground_energy, "entropy": von_neumann(rho),
                     "negativity": negativity(rho, (0,))}
            if model == ASHKIN_TELLER:
                point.update(m=magnetization_x(psi, p), g=correlator_x(psi, p))
            for q in base:
                want[q].append(point[q])
        want["d1:entropy"] = finite_difference(want["entropy"], spec.step)
        for q in spec.quantities:
            got = [r for r in rows if r.quantity == q]
            assert all(r.converged for r in got)
            assert np.abs([r.value for r in got] - np.asarray(want[q])).max() <= 1e-9

    @pytest.mark.parametrize("model,sweep,start,fixed,sector", [
        (ASHKIN_TELLER, "delta", -0.2, {}, XParity(1, 1)),
        (ASHKIN_TELLER, "beta", 0.6, {"delta": -0.3}, XParity(1, 1)),
        (ASHKIN_TELLER, "beta", -0.2, {}, XParity(1, 1)),
        (STAGGERED_XXZ, "beta", -0.2, {}, SzFixed(3)),
        (ASHKIN_TELLER, "delta", 0.0, {}, K0(XParity(1, 1))),
        (STAGGERED_XXZ, "delta", -0.9, {}, K0(SzFixed(3)))])
    def test_sector_from_grid_ends(self, monkeypatch, model, sweep, start,
                                   fixed, sector):
        # K0 only where both grid ends have beta > 0 (and, on the
        # Ashkin-Teller chain, delta >= 0); elsewhere the ground sector
        sectors = []
        real = sweeps_mod.build_hamiltonian

        def spy(p, sec, pencil):
            sectors.append(sec)
            return real(p, sec, pencil)
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian", spy)
        run_sweep(small_spec(model=model, m_sites=3, sweep=sweep, start=start,
                             stop=start + 0.4, step=0.2, block=(0, 1), **fixed))
        assert sectors == [sector]

    def test_degenerate_point_flags_state_rows(self, caplog):
        # at delta = -1 the Ashkin-Teller ground level is degenerate and the
        # entropy depends on the solver's start vector
        quantities = ("energy", "entropy", "negativity", "d1:entropy")
        with caplog.at_level(logging.WARNING, logger="atxxz"):
            rows = run_sweep(small_spec(m_sites=6, start=-1.0, stop=-0.9,
                                        step=0.05, quantities=quantities)).rows
        flags = {q: [r.converged for r in rows if r.quantity == q]
                 for q in quantities}
        assert flags == {"energy": [True] * 3, "entropy": [False, True, True],
                         "negativity": [False, True, True],
                         "d1:entropy": [False, False, True]}
        assert "delta=-1: degenerate" in caplog.text


def spy_solves(monkeypatch, fail=None):
    """Record ``(v0, result)`` of each solve ``run_sweep`` makes; ``fail``
    may replace the result of a solve, given its index."""
    calls = []
    real = sweeps_mod.ground_state

    def solve(h, *a, v0=None, **k):
        # the solver gets the real matrix, not a strided view of the complex one
        data = h.matrix.data
        assert data.dtype == np.float64 and data.flags.c_contiguous
        res = real(h, *a, v0=v0, **k)
        calls.append((v0, res))
        return res if fail is None else fail(len(calls) - 1, res)
    monkeypatch.setattr(sweeps_mod, "ground_state", solve)
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("m_sites", [5, 6, 7])
    @pytest.mark.parametrize("sweep", ["delta", "beta"])
    @pytest.mark.parametrize("model", [ASHKIN_TELLER, STAGGERED_XXZ])
    def test_k0_rows_match_cold_solves(self, monkeypatch, model, sweep,
                                       m_sites):
        calls = spy_solves(monkeypatch)
        spec = small_spec(model=model, m_sites=m_sites, sweep=sweep,
                          start=0.5, stop=1.5, step=0.1, delta=0.8, beta=1.1,
                          block=(0, 1), quantities=("energy", "entropy"))
        rows = run_sweep(spec).rows
        grid = spec.grid()
        # only M = 7 has a K0 dimension (181, 155) on the ARPACK path
        assert [v0 is not None for v0, _ in calls] == (
            [False] + [m_sites == 7] * (len(grid) - 1))
        for i, x in enumerate(grid):
            v0, res = calls[i]
            if v0 is not None:
                prev = calls[i - 1][1].states
                assert np.array_equal(v0, prev[0].amplitudes + prev[1].amplitudes)
            p = ModelParams(model, m_sites, **{"delta": 0.8, "beta": 1.1, sweep: x})
            h = models_mod.build_hamiltonian(p, K0(ground_sector(p)))
            cold = ground_state(h, k=2, seed=0)
            assert np.abs(res.energies - cold.energies).max() <= 1e-9  # E0, E1
            want = (cold.ground_energy,
                    von_neumann(reduce_state(cold.ground_state, (0, 1))))
            for r, w in zip(rows[i::len(grid)], want):
                assert r.converged and abs(r.value - w) <= 1e-9

    @pytest.mark.parametrize("model,sweep,start,fixed", [
        (ASHKIN_TELLER, "delta", -0.3, {}),
        (ASHKIN_TELLER, "beta", 0.5, {"delta": -0.2}),
        (STAGGERED_XXZ, "beta", -0.3, {})])
    def test_fallback_sweeps_start_cold(self, monkeypatch, model, sweep,
                                        start, fixed):
        # ground-sector dims 256 (AT) and 252 (XXZ) take the ARPACK path;
        # each solve repeats the seeded cold solve of the same matrix bit
        # for bit, so the rows are those of a sweep without warm starts
        solves = []
        real = sweeps_mod.ground_state

        def solve(h, *a, v0=None, **k):
            res = real(h, *a, v0=v0, **k)
            solves.append((v0, res, real(h, *a, **k)))
            return res
        monkeypatch.setattr(sweeps_mod, "ground_state", solve)
        run_sweep(small_spec(model=model, m_sites=5, sweep=sweep, start=start,
                             stop=start + 0.4, step=0.1, block=(0, 1), **fixed))
        assert len(solves) == 5
        for v0, res, cold in solves:
            assert v0 is None
            assert np.array_equal(res.energies, cold.energies)
            for a, b in zip(res.states, cold.states):
                assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("failure", ["convergence", "degenerate"])
    def test_cold_start_after_failed_point(self, monkeypatch, failure):
        def fail_second(i, res):
            if i != 1:
                return res
            if failure == "convergence":
                raise ConvergenceError("forced", best_residual=1.0)
            return dataclasses.replace(res, degenerate=True)
        calls = spy_solves(monkeypatch, fail_second)
        rows = run_sweep(small_spec(m_sites=7, start=0.8, stop=1.2, step=0.1,
                                    quantities=("energy", "entropy"))).rows
        assert [v0 is not None for v0, _ in calls] == [False, True, False,
                                                      True, True]
        assert [r.converged for r in rows if r.quantity == "entropy"] == [
            True, False, True, True, True]

    def test_fig6_sweep_takes_fewer_matvecs(self, monkeypatch):
        matvecs = []
        real_build = sweeps_mod.build_hamiltonian

        def counted_build(*args):
            h = real_build(*args)
            matvec = h.matvec
            h.matvec = lambda v: matvecs.append(1) or matvec(v)
            return h
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian", counted_build)
        spec = dataclasses.replace(figure_presets("fig6")[-1], out=None)
        assert spec.m_sites == 8
        warm_rows = run_sweep(spec).rows
        warm = len(matvecs)
        real = sweeps_mod.ground_state
        monkeypatch.setattr(sweeps_mod, "ground_state",
                            lambda h, *a, v0=None, **k: real(h, *a, **k))
        matvecs.clear()
        cold_rows = run_sweep(spec).rows
        assert warm < len(matvecs)
        for a, b in zip(warm_rows, cold_rows):
            assert a.converged == b.converged and abs(a.value - b.value) <= 1e-9


class TestCsv:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_sweep(small_spec(out=str(out)))
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "model,chain_spins,delta,beta,block,quantity,value,converged"
        rows = read_csv(str(out))
        assert len(rows) == len(result.rows)
        for a, b in zip(rows, result.rows):
            assert a.value == pytest.approx(b.value, rel=1e-11)
            assert (a.model, a.chain_spins, a.quantity) == \
                (b.model, b.chain_spins, b.quantity)

    def test_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_csv(str(bad))


class TestFigurePresets:
    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig6", "fig7",
                                      "fig8", "fig9", "fig10"])
    def test_specs_construct(self, name, tmp_path):
        specs = figure_presets(name, out_dir=str(tmp_path))
        assert specs
        for spec in specs:
            assert spec.out.startswith(str(tmp_path))
            spec.grid()

    def test_full_raises_sizes(self):
        small = figure_presets("fig6")
        big = figure_presets("fig6", full=True)
        assert max(s.m_sites for s in big) > max(s.m_sites for s in small)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            figure_presets("fig99")


class TestCli:
    def test_info(self, capsys):
        assert cli.main(["info", "--model", "xxz", "--m-sites", "3"]) == 0
        out = capsys.readouterr().out
        assert "spins=6" in out
        assert "dimension 20" in out
        assert "k=0 sector: dimension 4; it holds the ground state" in out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--model", "at", "--m-sites", "2",
                         "--range", "0.5:0.7:0.1", "--quantity", "entropy",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert len(read_csv(str(out))) == 3

    def test_figure(self, tmp_path, monkeypatch):
        # shrink the preset through run_sweep capture to keep runtime small
        calls = []
        real = sweeps_mod.run_sweep

        def tiny(spec):
            import dataclasses
            calls.append(spec)
            return real(dataclasses.replace(spec, m_sites=2, stop=spec.start + 2 * spec.step))
        monkeypatch.setattr(cli, "run_sweep", tiny)
        assert cli.main(["figure", "fig4", "--out", str(tmp_path)]) == 0
        assert len(calls) == 3

    def test_spectrum(self, capsys, monkeypatch):
        # one basis serves the capacity refusal and the build
        bases = []
        for module in (cli, models_mod):
            def counted(*args, real=module.build_basis, **kw):
                bases.append(args)
                return real(*args, **kw)
            monkeypatch.setattr(module, "build_basis", counted)
        assert cli.main(["spectrum", "--model", "xxz", "--m-sites", "2",
                         "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "E0" in out and "E2" in out
        assert len(bases) == 1

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_negative_seed_refused_before_any_build(self, command, capsys,
                                                    monkeypatch):
        bases = []
        for module in (cli, models_mod):
            monkeypatch.setattr(module, "build_basis",
                                lambda *a, **k: bases.append(a))
        code = cli.main([command, "--m-sites", "8", "--seed", "-1"])
        assert code == cli.EXIT_ARGUMENT
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert bases == []

    def test_spectrum_refuses_levels_beyond_dense_limit(self, capsys,
                                                        monkeypatch):
        # three levels need the dense solver; both dimensions exceed its
        # limit, and the refusal comes before any Hamiltonian entry
        calls = []
        monkeypatch.setattr(kernels, "at_entries", lambda *a: calls.append(a))
        for m, dim in ((8, 16384), (10, 262144)):
            code = cli.main(["spectrum", "--model", "at", "--m-sites", str(m),
                             "--levels", "3"])
            assert code == cli.EXIT_ARGUMENT
            assert f"dimension {dim} > 4096" in capsys.readouterr().err
        assert calls == []

    def test_verify_ok(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code = cli.main(["verify", "link-algebra", "energy", "--m", "2",
                         "--out", str(report)])
        assert code == 0
        assert "[PASS]" in report.read_text()

    def test_argument_errors(self, capsys):
        assert cli.main(["sweep", "--range", "oops"]) == 1
        assert cli.main(["sweep", "--model", "heisenberg"]) == 1
        assert cli.main(["figure", "fig99"]) == 1
        assert cli.main(["sweep", "--block", "no-such-preset"]) == 1
        assert cli.main(["spectrum", "--levels", "0"]) == 1
        assert cli.main(["sweep", "--threads", "2"]) == 1
        assert cli.main(["figure", "fig6", "--threads", "2"]) == 1
        assert cli.main(["sweep", "--range=-1.05:0:0.05"]) == 1
        capsys.readouterr()
        assert cli.main(["spectrum", "--delta=-1.05"]) == 1
        assert "--sector full" in capsys.readouterr().err
        capsys.readouterr()
        for argv in (["info", "--m-sites", "15"],  # 30 > MAX_SPINS
                     ["spectrum", "--tol", "-1"], ["spectrum", "--delta", "nan"],
                     ["sweep", "--range", "0:inf:1"],
                     ["sweep", "--tol", "inf"]):  # every residual <= inf
            assert cli.main(argv) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise ConvergenceError("forced", best_residual=1.0)
        monkeypatch.setattr(sweeps_mod, "ground_state", boom)
        code = cli.main(["sweep", "--m-sites", "2", "--range", "0.5:0.6:0.1",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_point_writes_csv_and_exits_2(self, tmp_path, monkeypatch,
                                              capsys):
        def boom(*a, **k):
            raise SymmetryViolationError("forced")
        monkeypatch.setattr(sweeps_mod, "magnetization_x", boom)
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--m-sites", "2", "--range", "0.5:0.6:0.1",
                         "--quantity", "m", "--out", str(out)])
        assert code == 2
        rows = read_csv(str(out))
        assert len(rows) == 2 and not any(r.converged for r in rows)

    def test_config_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("m-sites = 3\nrange = 0.5:0.6:0.1\n"
                       "out = {}\n".format(tmp_path / "c.csv"))
        code = cli.main(["--config", str(cfg), "sweep", "--m-sites", "2"])
        assert code == 0
        rows = read_csv(str(tmp_path / "c.csv"))
        assert rows[0].chain_spins == 4  # CLI flag overrode the config value

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("volume = 3\n")
        assert cli.main(["--config", str(cfg), "info"]) == 1

    def test_config_missing_file(self):
        assert cli.main(["--config", "/no/such/file", "info"]) == 1
