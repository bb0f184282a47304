import logging

import numpy as np
import pytest

from atxxz import cli, kernels
from atxxz.eigensolve import ConvergenceError, ground_state
from atxxz.entanglement import (InvalidStateError, negativity, reduce_state,
                                von_neumann)
from atxxz.models import (ASHKIN_TELLER, STAGGERED_XXZ, ModelParams,
                          ground_sector)
from atxxz.observables import SymmetryViolationError
from atxxz.sweeps import (SweepSpec, figure_presets, read_csv, resolve_block,
                          run_sweep, write_csv)
import atxxz.sweeps as sweeps_mod


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


class TestRunSweep:
    def test_rows_and_series(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 6  # 3 grid points x 2 quantities
        s = result.series("energy")
        assert np.allclose(s.grid, [0.5, 0.6, 0.7])
        assert np.all(np.diff(s.values) < 0)  # energy decreases with delta

    def test_derivative_quantity(self):
        spec = small_spec(stop=0.9, quantities=("entropy", "d1:entropy"))
        result = run_sweep(spec)
        s = result.series("entropy")
        d = result.series("d1:entropy")
        inner = (s.values[2:] - s.values[:-2]) / (2 * 0.1)
        assert np.allclose(d.values[1:-1], inner, atol=1e-12)

    def test_m_and_g_quantities(self):
        result = run_sweep(small_spec(quantities=("m", "g")))
        for q in ("m", "g"):
            vals = result.series(q).values
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

        def counted(p, sector):
            builds.append(p)
            return real(p, sector)
        monkeypatch.setattr(sweeps_mod, "build_hamiltonian", counted)
        spec = small_spec(model=model, m_sites=m_sites, sweep=sweep,
                          start=-0.4, stop=0.4, step=0.2, delta=0.7, beta=1.2,
                          j_coupling=1.3, block=(0, 1),
                          quantities=("energy", "entropy", "negativity"))
        rows = run_sweep(spec).rows
        assert len(builds) == 2  # H(0) and H(1), whatever the grid length
        for i, x in enumerate(spec.grid()):
            p = ModelParams(model, m_sites, j_coupling=1.3,
                            **{"delta": 0.7, "beta": 1.2, sweep: x})
            res = ground_state(real(p, ground_sector(p)), k=2, seed=0)
            rho = reduce_state(res.ground_state, (0, 1))
            want = (res.ground_energy, von_neumann(rho), negativity(rho, (0,)))
            for r, w in zip(rows[i::len(spec.grid())], want):
                assert (r.delta, r.beta) == (p.delta, p.beta) and r.converged
                assert abs(r.value - w) <= 1e-12

    def test_pattern_guard(self, monkeypatch):
        real = kernels.at_entries

        def drop_zeros(*args):
            rows, cols, vals = real(*args)
            keep = vals != 0  # a pattern that depends on delta
            return rows[keep], cols[keep], vals[keep]
        monkeypatch.setattr(kernels, "at_entries", drop_zeros)
        with pytest.raises(RuntimeError, match="sparsity pattern"):
            run_sweep(small_spec())


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

    def test_spectrum(self, capsys):
        assert cli.main(["spectrum", "--model", "xxz", "--m-sites", "2",
                         "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "E0" in out and "E2" in out

    def test_spectrum_refuses_levels_beyond_dense_limit(self, capsys):
        # three levels need the dense solver; dim 16384 exceeds its limit
        code = cli.main(["spectrum", "--model", "at", "--m-sites", "8",
                         "--levels", "3"])
        assert code == cli.EXIT_ARGUMENT
        assert "--levels 3" in capsys.readouterr().err

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
        assert cli.main(["info", "--m-sites", "15"]) == 1  # 30 > MAX_SPINS
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
