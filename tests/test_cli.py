import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cdlmg.ansatz import DEFAULT_SEGMENTS
from cdlmg.cli import _build_parser, main
from cdlmg.dynamics import DEFAULT_STEPS
from cdlmg.output import write_csv


def run_cli(args):
    return main([str(a) for a in args])


def test_evolve_two_particle_exact(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["evolve", "--n", 2, "--protocol", "exact_cd",
                    "--ramp", "linear:0.75,0.5", "--steps", 800, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "exact_cd" in printed
    data = np.loadtxt(out / "trajectory_exact_cd.csv", delimiter=",", skiprows=1)
    assert data[:, 2].min() >= 0.9999
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 2
    assert manifest["config"]["ramp"] == "linear:0.75,0.5"
    assert "version" in manifest and "wall_time_s" in manifest
    assert manifest["final_fidelity"]["exact_cd"] >= 0.9999


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    # the manifest's version asks git once, whatever the number of commands
    import cdlmg.cli
    run, calls = cdlmg.cli.subprocess.run, []
    monkeypatch.setattr(cdlmg.cli.subprocess, "run",
                        lambda *a, **kw: calls.append(a) or run(*a, **kw))
    cdlmg.cli._code_version.cache_clear()
    versions = []
    for name in ("first", "second"):
        assert run_cli(["evolve", "--n", 2, "--protocol", "bare", "--ramp", "linear:0.75,0.5",
                        "--steps", 10, "--out", tmp_path / name]) == 0
        versions.append(json.loads((tmp_path / name / "manifest.json").read_text())["version"])
    assert len(calls) == 1
    assert versions[0] == versions[1] and versions[0].startswith("cdlmg ")


def test_evolve_figure_preset(tmp_path):
    out = tmp_path / "preset"
    code = run_cli(["evolve", "--figure", "fig1a", "--steps", 600, "--out", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    finals = manifest["final_fidelity"]
    assert set(finals) == {"exact_cd", "truncated(1)", "hp", "bare"}
    assert min(finals.values()) == finals["bare"]
    assert len(manifest["files"]) == 4


def test_evolve_multiple_protocols(tmp_path):
    out = tmp_path / "multi"
    code = run_cli(["evolve", "--n", 12, "--protocol", "bare",
                    "--protocol", "truncated:1", "--ramp", "linear:0.75,0.5",
                    "--steps", 300, "--out", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    finals = manifest["final_fidelity"]
    assert finals["truncated(1)"] > finals["bare"]
    assert sorted(manifest["files"]) == ["trajectory_bare.csv",
                                         "trajectory_truncated_1.csv"]


def test_evolve_validation_failures(tmp_path, capsys):
    assert run_cli(["evolve", "--n", 0, "--protocol", "bare",
                    "--ramp", "linear:0.75,0.5", "--out", tmp_path]) == 1
    assert "error" in capsys.readouterr().err
    assert run_cli(["evolve", "--n", 4, "--ramp", "linear:0.75,0.5",
                    "--out", tmp_path]) == 1  # no protocol
    assert run_cli(["evolve", "--n", 4, "--protocol", "bare",
                    "--out", tmp_path]) == 1  # no ramp
    assert run_cli(["evolve", "--n", 4, "--protocol", "warp",
                    "--ramp", "linear:0.75,0.5", "--out", tmp_path]) == 1
    assert run_cli(["evolve", "--figure", "nope", "--out", tmp_path]) == 1
    for gamma in ("nan", "inf"):
        assert run_cli(["evolve", "--n", 10, "--gamma", gamma, "--protocol", "bare",
                        "--ramp", "linear:0.75,0.5", "--steps", 10, "--out", tmp_path]) == 1


def test_non_finite_ramp_exit_code(tmp_path, capsys):
    for ramp in ("linear:nan,0.5", "linear:inf,0.5", "constant:nan"):
        assert run_cli(["evolve", "--n", 4, "--protocol", "bare", "--ramp", ramp,
                        "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "ramp parameters must be finite" in err and "Warning" not in err


def test_evolve_rejects_a_repeated_protocol(tmp_path, capsys):
    out = tmp_path / "twice"
    for repeated in (["bare", "bare"], ["exact", "exact_cd"]):
        argv = ["evolve", "--n", 6, "--ramp", "linear:0.75,0.5", "--steps", 20, "--out", out]
        for p in repeated:
            argv += ["--protocol", p]
        assert run_cli(argv) == 1
        assert "given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_step_and_segment_defaults_come_from_the_library():
    parser = _build_parser()
    for argv in (["evolve"], ["optimize"], ["fit", "--harmonics", "1"]):
        args = parser.parse_args(argv)
        assert args.steps == DEFAULT_STEPS
        assert args.segments == DEFAULT_SEGMENTS


def test_spectrum_gap_table(tmp_path):
    out = tmp_path / "spec"
    code = run_cli(["spectrum", "--n", 30, "--h-min", 0.5, "--h-max", 1.5,
                    "--h-points", 51, "--out", out])
    assert code == 0
    lines = (out / "gaps.csv").read_text().splitlines()
    assert lines[0] == "h,gap01,gap23,gap45"
    assert len(lines) == 52
    # N=4 has five levels: the default pairs that fit
    assert run_cli(["spectrum", "--n", 4, "--h-min", 0.5, "--h-max", 1.5,
                    "--out", out]) == 0
    assert (out / "gaps.csv").read_text().startswith("h,gap01,gap23\n")
    # the manifest records only the options spectrum takes
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == {"command", "n", "gamma", "seed", "out",
                           "h_min", "h_max", "h_points"}


def test_spectrum_validation(tmp_path):
    assert run_cli(["spectrum", "--n", 30, "--out", tmp_path]) == 1
    assert run_cli(["spectrum", "--n", 30, "--h-min", 1.5, "--h-max", 0.5,
                    "--out", tmp_path]) == 1
    assert run_cli(["spectrum", "--n", 30, "--h-min", 0.5, "--h-max", 1.5,
                    "--h-points", 1, "--out", tmp_path]) == 1
    # spectrum and decompose propagate nothing: no --steps or --segments
    for args in (["spectrum", "--h-min", 0.5, "--h-max", 1.5, "--steps", 10],
                 ["decompose", "--ramp", "linear:0.75,0.5", "--segments", 10]):
        assert run_cli(args + ["--n", 30, "--out", tmp_path]) == 1


def test_optimize_and_determinism(tmp_path):
    args = ["optimize", "--n", 10, "--bands", 1, "--ramp", "linear:0.75,0.5",
            "--segments", 10, "--steps", 400, "--seed", 3]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    first = (out1 / "schedule_ansatz_k1.csv").read_bytes()
    second = (out2 / "schedule_ansatz_k1.csv").read_bytes()
    assert first == second
    traj1 = (out1 / "trajectory_ansatz_k1.csv").read_bytes()
    traj2 = (out2 / "trajectory_ansatz_k1.csv").read_bytes()
    assert traj1 == traj2
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["results"]["ansatz(k=1)"]["min_fidelity"] > 0.99
    assert manifest["results"]["ansatz(k=1)"]["nfev"] > 0
    schedule_json = json.loads((out1 / "schedule_ansatz_k1.json").read_text())
    assert set(schedule_json) == {"boundaries", "values"}


def test_optimize_manifest_records_optimizer_warnings(tmp_path):
    # a constant field leaves zero drive optimal in every segment
    assert run_cli(["optimize", "--n", 6, "--bands", 1, "--ramp", "constant:0.9",
                    "--segments", 10, "--steps", 100, "--out", tmp_path]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["ansatz(k=1)"]["warnings"] == [
        f"segment {s}: no improvement over zero drive (F=1.000000)" for s in range(10)]


def test_optimize_validation(tmp_path):
    # a band count below 1 or a negative seed is bad configuration for every
    # command that takes one, as is a decompose time outside the ramp
    for args in (["optimize", "--bands", 0], ["decompose", "--bands", 0],
                 ["decompose", "--bands", -1], ["fit", "--bands", 0, "--harmonics", 1],
                 ["optimize", "--bands", 1, "--seed", -1], ["decompose", "--seed", -1],
                 ["decompose", "--t", 1.5], ["decompose", "--t", -0.1]):
        assert run_cli(args + ["--n", 10, "--ramp", "linear:0.75,0.5",
                               "--out", tmp_path]) == 1


def test_fit_command(tmp_path):
    out = tmp_path / "fit"
    code = run_cli(["fit", "--n", 10, "--harmonics", 3,
                    "--ramp", "linear:0.75,0.5", "--segments", 12,
                    "--steps", 600, "--out", out])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["max_fidelity_discrepancy"] <= 0.01
    fit = json.loads((out / "harmonic_fit.json").read_text())
    assert len(fit["a"]) == 3
    assert json.loads((out / "manifest.json").read_text())["nfev"] > 0
    assert "nfev" not in report
    assert run_cli(["fit", "--n", 10, "--harmonics", 5,
                    "--ramp", "linear:0.75,0.5", "--out", tmp_path]) == 1
    assert run_cli(["fit", "--n", 10, "--harmonics", 1, "--out", tmp_path]) == 1  # no ramp


def test_decompose_command(tmp_path):
    out = tmp_path / "dec"
    code = run_cli(["decompose", "--n", 6, "--ramp", "linear:0.75,0.5",
                    "--t", 0.3, "--bands", 2, "--out", out])
    assert code == 0
    payload = json.loads((out / "decomposition.json").read_text())
    assert payload["h"] == pytest.approx(0.9)
    assert set(payload["bands"]) == {"1", "2"}
    for band in payload["bands"].values():
        assert band["residual"] < 1e-10
        assert all({"label", "coefficient"} == set(t) for t in band["terms"])
    beta = np.array(payload["first_band_beta"])
    assert beta.shape == (5, 5)
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == {"command", "n", "gamma", "ramp", "seed", "out",
                           "bands", "t_eval"}


def _stub_figure(monkeypatch):
    """Replace the preset runner with one fast bare trajectory."""
    import cdlmg.cli
    from cdlmg import ModelParams, RampSchedule, evolve

    ramp = RampSchedule.linear(0.75, 0.5)
    traj = evolve(ModelParams(6, 0.0, ramp), "bare", 50)
    calls = []

    def fake_run_figure(figure_id, **kwargs):
        calls.append(figure_id)
        return {"bare": traj}

    monkeypatch.setattr(cdlmg.cli, "run_figure", fake_run_figure)
    return calls


def test_optimize_figure_needs_no_bands(tmp_path, monkeypatch):
    calls = _stub_figure(monkeypatch)
    assert run_cli(["optimize", "--figure", "fig3a", "--out", tmp_path]) == 0
    assert calls == ["fig3a"]
    assert (tmp_path / "trajectory_bare.csv").is_file()


def test_commands_write_identical_trajectory_csv(tmp_path, monkeypatch):
    _stub_figure(monkeypatch)
    assert run_cli(["evolve", "--figure", "fig2", "--out", tmp_path / "e"]) == 0
    assert run_cli(["optimize", "--figure", "fig2", "--out", tmp_path / "o"]) == 0
    written = (tmp_path / "e" / "trajectory_bare.csv").read_bytes()
    assert written == (tmp_path / "o" / "trajectory_bare.csv").read_bytes()
    assert b"\r" not in written
    assert written.startswith(b"t,h,fidelity\n")


def test_figure_rejects_options_it_would_ignore(tmp_path, monkeypatch, capsys):
    calls = _stub_figure(monkeypatch)
    assert run_cli(["evolve", "--figure", "fig1a", "--n", 20, "--out", tmp_path]) == 1
    assert "--n" in capsys.readouterr().err
    assert run_cli(["optimize", "--figure", "fig2", "--bands", 3, "--out", tmp_path]) == 1
    assert "--bands" in capsys.readouterr().err
    assert run_cli(["evolve", "--figure", "fig1a", "--gamma", 0.3, "--out", tmp_path]) == 1
    assert "--gamma" in capsys.readouterr().err
    assert run_cli(["evolve", "--figure", "s1b", "--protocol", "bare",
                    "--ramp", "linear:0.75,0.5", "--out", tmp_path]) == 1
    assert "--ramp, --protocol" in capsys.readouterr().err
    assert calls == []
    assert run_cli(["evolve", "--figure", "fig1a", "--gamma", 0.0, "--out", tmp_path]) == 0
    assert calls == ["fig1a"]


def test_segments_rejected_where_nothing_is_optimized(tmp_path, monkeypatch, capsys):
    calls = _stub_figure(monkeypatch)
    for figure in ("fig1a", "s1b"):
        assert run_cli(["evolve", "--figure", figure, "--segments", 7,
                        "--out", tmp_path]) == 1
        assert "--segments" in capsys.readouterr().err
    assert run_cli(["evolve", "--n", 6, "--protocol", "bare", "--ramp", "linear:0.75,0.5",
                    "--steps", 20, "--segments", 12, "--out", tmp_path]) == 1
    assert "--segments" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "manifest.json").exists()
    # the default segment count, and --seed, are accepted everywhere
    assert run_cli(["evolve", "--figure", "fig1a", "--segments", DEFAULT_SEGMENTS,
                    "--seed", 3, "--out", tmp_path]) == 0
    assert run_cli(["evolve", "--figure", "fig2", "--segments", 12, "--out", tmp_path]) == 0
    assert calls == ["fig1a", "fig2"]
    assert run_cli(["evolve", "--n", 6, "--protocol", "bare", "--ramp", "linear:0.75,0.5",
                    "--steps", 20, "--seed", 5, "--out", tmp_path]) == 0


def test_output_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_csv(tmp_path / "table.csv", ["x"], [(1.0,)])
    finally:
        os.umask(old)
    assert (tmp_path / "table.csv").stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_preset_runs_every_protocol_on_the_calling_thread(monkeypatch):
    # and on one tracked run: the ground series is solved once for the preset
    import cdlmg.dynamics
    from cdlmg.figures import FIGURES, run_figure

    steps = cdlmg.dynamics._steps
    ground_series = cdlmg.dynamics.sector_ground_series
    threads, solved = [], []

    def recording_steps(*args, **kwargs):
        # one stream per protocol, recorded on the thread that steps it
        threads.append(threading.get_ident())
        yield from steps(*args, **kwargs)

    def counting_ground_series(*args, **kwargs):
        solved.append(args)
        return ground_series(*args, **kwargs)

    monkeypatch.setattr(cdlmg.dynamics, "_steps", recording_steps)
    monkeypatch.setattr(cdlmg.dynamics, "sector_ground_series", counting_ground_series)
    curves = run_figure("fig1a", steps=20)
    assert list(curves) == [p.label for p in FIGURES["fig1a"].protocols]
    assert len(solved) == 1
    assert threads == [threading.get_ident()] * 4


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the first band at N=30 leaves a decomposition residual of about 2e-5
    code = run_cli(["decompose", "--n", 30, "--ramp", "linear:0.75,0.5",
                    "--bands", 1, "--out", tmp_path])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    # a state norm drifting beyond NORM_TOL
    from cdlmg.dynamics import _planned_step

    def drifting(plan, j, psi):
        psi, terms = _planned_step(plan, j, psi)
        return psi * (1 + 1e-6), terms

    monkeypatch.setattr("cdlmg.dynamics._planned_step", drifting)
    code = run_cli(["evolve", "--n", 6, "--protocol", "bare",
                    "--ramp", "linear:0.75,0.5", "--steps", 20, "--out", tmp_path])
    assert code == 2
    assert "state norm drifted" in capsys.readouterr().err


def test_bug_propagates(tmp_path, monkeypatch):
    import cdlmg.cli

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(cdlmg.cli, "evolve_all", broken)
    with pytest.raises(TypeError, match="injected"):
        run_cli(["evolve", "--n", 4, "--protocol", "bare",
                 "--ramp", "linear:0.75,0.5", "--out", tmp_path])


def test_decomposition_gate_failure_exit_code(tmp_path, capsys):
    # the per-midpoint gate of decomposed:1 fails at midpoint 84 of this run
    code = run_cli(["evolve", "--n", 26, "--ramp", "linear:1.25,-0.5",
                    "--protocol", "decomposed:1", "--steps", 100, "--out", tmp_path])
    assert code == 2
    assert "band-1 decomposition residual" in capsys.readouterr().err


def test_only_the_optimizer_commands_load_scipy_linalg_optimize_or_special(tmp_path):
    # cdlmg.ansatz binds scipy.optimize on first use: importing the package
    # or the CLI, or running a command that neither optimizes nor fits, must
    # not load it.  Nor scipy.special, which nothing but scipy.optimize
    # loads: the Chebyshev step computes its own Bessel coefficients.  Nor
    # scipy.linalg: cdlmg._lapack loads LAPACK's wrapper module on its own
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys, cdlmg, cdlmg.cli\n"
             "def check(when):\n"
             "    for name in ('scipy.linalg', 'scipy.optimize', 'scipy.special'):\n"
             "        assert name not in sys.modules, (name, when)\n"
             "check('on import')\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    code = cdlmg.cli.main(argv)\n"
             "    assert code == 0, (argv[0], code)\n"
             "    check('after ' + argv[0])\n")
    commands = [
        ["spectrum", "--n", "10", "--h-min", "0.5", "--h-max", "1.5", "--h-points", "5",
         "--out", str(tmp_path / "spec")],
        ["evolve", "--n", "10", "--ramp", "linear:0.75,0.5", "--steps", "40",
         "--protocol", "bare", "--protocol", "exact_cd", "--out", str(tmp_path / "evolve")],
        ["decompose", "--n", "6", "--ramp", "linear:0.75,0.5", "--t", "0.3", "--bands", "2",
         "--out", str(tmp_path / "dec")],
    ]
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("first", ["cdlmg", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_load_order(first):
    # whichever of cdlmg and scipy.linalg loads first, both hold the same
    # LAPACK function objects, and scipy.linalg and scipy.optimize still run
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (f"import {first}\n"
             "import numpy as np\n"
             "import cdlmg.counterdiabatic as cd, cdlmg.spectrum as sp\n"
             "import scipy.linalg, scipy.optimize\n"
             "from scipy.linalg import lapack\n"
             "assert lapack.dstevd is cd.dstevd\n"
             "assert lapack.dstebz is sp.dstebz and lapack.dstein is sp.dstein\n"
             "w = scipy.linalg.eigh(np.diag([3.0, 1.0, 2.0]), eigvals_only=True)\n"
             "assert np.allclose(w, [1.0, 2.0, 3.0]), w\n"
             "fit = scipy.optimize.least_squares(lambda x: x - 2.0, [0.0])\n"
             "assert fit.success and abs(fit.x[0] - 2.0) < 1e-8, fit\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_missing_lapack_wrapper_is_an_import_error_naming_scipy(tmp_path):
    # a scipy without linalg/_flapack: importing cdlmg fails at once
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    done = subprocess.run([sys.executable, "-c", "import cdlmg"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert "ImportError: cdlmg needs scipy" in done.stderr
