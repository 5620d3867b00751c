import ast
import csv
import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from motc.bench import (
    ExperimentConfig,
    TrajectoryLog,
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    config_hash,
    count_high_frequency_modes,
    emit_results,
    field_power_spectrum,
    run_efficiency_comparison,
    run_gradient_flow,
    run_gramian_distribution,
    substream,
)
from motc import landscape, tracking
from motc.bench import experiments
from motc.bench.cli import build_parser, config_from_args, main as cli_main
from motc.dynamics import ControlField, propagate
from motc.errors import BranchBoundaryError, ConfigError
from motc.tracking import linear_target_observables


def _cells(*values):
    """The LOG_COLUMNS cells of one record, in column order."""
    return dict(zip(experiments.LOG_COLUMNS, values))


def _count_calls(monkeypatch, fn) -> list:
    """Rebind every motc module attribute that is ``fn`` to a wrapper that
    appends to the returned list on each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "motc" or name.startswith("motc."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 2008
        assert cfg.observables == (2, 4, 10)

    def test_roundtrip_dict(self):
        cfg = ExperimentConfig(samples=5, state="thermal")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert config_hash(cfg) == config_hash(again)

    def test_hash_sensitive_to_seed(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize(
        "kw",
        [
            {"state": "rank99"},
            {"state": "banana"},
            {"correction": "beta=-1"},
            {"correction": "sometimes"},
            {"free_fn": "fluence"},
            {"integrator": "rk4"},
            {"observables": (0,)},
            {"samples": 0},
            {"track": "spiral"},
            {"correction": "beta=1.2.3"},
            {"integrator": "euler:ds=1e"},
            {"q": 1},
            {"t_final": 0},
            {"max_steps": 2.5},
            {"grad_s_max": -1},
            {"max_steps": 0},
            {"observables": 2},
            {"observables": ("x",)},
            {"observables": None},
            {"seed": "x"},
            {"samples": 2.5},
            {"t_final": "x"},
            {"t_final": float("nan")},
            {"experiment": 3},
            {"grad_s_max": float("inf"), "integrator": "euler:ds=0.5"},
            {"integrator": "euler:ds=1e-310"},
            {"state": 3},
            {"integrator": 7},
            {"correction": None},
            {"correction": "beta=1e999"},
            {"integrator": "rkck:atol=1e999,rtol=1e-6"},
            {"free_fn": "fluence:eta=1e999"},
            {"observables": (2, 2)},
            {"n_levels": 3},
            {"workers": 2},
            {"seed": -1},
        ],
    )
    def test_validation_rejects(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize(
        "changes",
        [{"t_final": float("nan")}, {"grad_s_max": float("inf"), "integrator": "euler:ds=0.5"}],
        ids=["t_final-nan", "grad_s_max-inf"],
    )
    def test_non_finite_value_exit_2(self, tmp_path, capsys, changes):
        # json.dumps writes NaN and Infinity, which json.load reads back.
        tiny = {"n_levels": 3, "state": "pure", "t_final": 20.0, "q": 32, "observables": [2]}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**tiny, **changes}))
        rc = cli_main(["grad-flow", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 2
        key = next(iter(changes))
        assert f"config error: {key} must be a finite number" in capsys.readouterr().err

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"volume": 11})

    # kinematic_s_max went when the target W became closed-form; the other
    # four held one value in every run and are constants now (see
    # ExperimentConfig's docstring).
    @pytest.mark.parametrize(
        "key", ["kinematic_s_max", "temperature", "ds_min", "ds_max", "threshold_fraction"]
    )
    def test_removed_key_rejected(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            ExperimentConfig.from_dict({key: 1.0})
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: 1.0}))
        rc = cli_main(["motc-track", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_correction_spec_parsing(self):
        assert ExperimentConfig(correction="off").correction_beta() is None
        assert ExperimentConfig(correction="beta=3.5").correction_beta() == 3.5

    def test_free_fn_parsing(self):
        cfg = ExperimentConfig(free_fn="fluence:eta=100")
        f = cfg.free_function(np.ones(8))
        assert np.allclose(f, -0.01)
        assert ExperimentConfig().free_function(np.ones(8)) is None


def _golden_tool_tables() -> dict:
    """BASE and GOLDENS of tools/goldens.py, read without importing it
    (importing it sets the BLAS thread variables for this process)."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "tools" / "goldens.py").read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) in ("BASE", "GOLDENS")
    }


class TestGoldenTool:
    """Every byte-identity check runs tools/goldens.py: its configs must not
    rest on a default that a change could move."""

    def test_base_pins_every_field(self):
        fields = set(ExperimentConfig.__dataclass_fields__)
        assert set(_golden_tool_tables()["BASE"]) == fields - {"experiment"}

    def test_goldens_change_only_fields(self):
        tables = _golden_tool_tables()
        fields = set(ExperimentConfig.__dataclass_fields__) - {"experiment"}
        for name, (command, changes) in tables["GOLDENS"].items():
            assert set(changes) <= fields, name
            ExperimentConfig.from_dict({**tables["BASE"], **changes, "experiment": command})


class TestSubstreams:
    def test_deterministic_and_disjoint(self):
        a1 = substream(9, 2, 5).standard_normal(4)
        a2 = substream(9, 2, 5).standard_normal(4)
        b = substream(9, 2, 6).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestObservableSetBuilder:
    def test_structure(self):
        oset = build_observable_set(11, 3, np.random.default_rng(0))
        assert oset.m == 3
        # Theta_2 = |1><1|, Theta_3 = |2><2| (1-based kets)
        assert oset.operators[1][0, 0] == 1.0 and np.abs(oset.operators[1]).sum() == 1.0
        assert oset.operators[2][1, 1] == 1.0 and np.abs(oset.operators[2]).sum() == 1.0

    def test_theta1_nondegenerate_diagonal(self):
        oset = build_observable_set(11, 10, np.random.default_rng(1))
        d = np.diag(oset.operators[0]).real
        assert np.all((0 < d) & (d <= 1))
        assert np.diff(np.sort(d)).min() >= 1e-6
        off = oset.operators[0] - np.diag(np.diag(oset.operators[0]))
        assert np.abs(off).max() == 0.0

    def test_all_commute(self):
        oset = build_observable_set(6, 6, np.random.default_rng(2))
        for a in oset.operators:
            for b in oset.operators:
                assert np.abs(a @ b - b @ a).max() < 1e-14

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            build_observable_set(4, 5, np.random.default_rng(0))


class TestRankTruncatedState:
    def test_rank7(self):
        sys_ = build_model_system(11, t_final=10.0, q=16)
        st = build_rank_truncated_state(sys_, 7)
        assert st.rank == 7
        assert st.degeneracies == (1,) * 7
        lam = np.sort(np.diag(st.rho0).real)[::-1]
        assert np.isclose(lam.sum(), 1.0)
        assert (lam[7:] == 0).all() if lam.size > 7 else True


class TestSpectrum:
    def test_single_mode_peak(self):
        sys_ = build_model_system(11, t_final=100.0, q=1024)
        omega0 = 0.6
        samples = np.sin(omega0 * sys_.times)
        omega, power = field_power_spectrum(sys_, samples)
        assert abs(omega[np.argmax(power)] - omega0) < 2 * np.pi / 100.0 + 1e-9

    def test_high_mode_count(self):
        sys_ = build_model_system(11, t_final=100.0, q=1024)
        low = np.sin(0.5 * sys_.times)
        assert count_high_frequency_modes(*field_power_spectrum(sys_, low)) == 0
        mixed = np.sin(0.5 * sys_.times) + 0.5 * np.sin(2.5 * sys_.times)
        assert count_high_frequency_modes(*field_power_spectrum(sys_, mixed)) >= 1


class TestTrajectoryLog:
    def test_pathlength_monotone(self):
        # The recorder sums the distances between consecutive U(T) and
        # between consecutive fields, starting from 0.
        run = experiments._Run(
            ExperimentConfig(n_levels=3, state="pure", t_final=10.0, q=16, observables=(2,))
        )
        track = linear_target_observables(np.zeros(2), np.ones(2), run.state, run.oset_full)
        log = TrajectoryLog(label="x", m=2)
        recorder = experiments._Recorder(run, track, log)
        fields = [ControlField(np.full(16, c)) for c in (0.0, 0.5, 0.8)]
        for s, control in zip((0.0, 0.1, 0.2), fields):
            recorder(s, control)
        u = [propagate(run.system, control).final for control in fields]
        du = [np.linalg.norm(u[1] - u[0]), np.linalg.norm(u[2] - u[1])]
        assert log.columns["u_pathlength"] == [0.0, du[0], pytest.approx(du[0] + du[1])]
        assert log.columns["field_pathlength"] == [0.0, 2.0, pytest.approx(3.2)]
        with pytest.raises(ValueError, match="expectation values"):
            log.add(0.3, np.array([0.1, 0.2]), tracking_error=0.0)

    def test_rows_match_columns(self):
        log = TrajectoryLog(label="x", m=3)
        log.add(0.0, np.array([1.0, 2.0, 3.0]), **_cells(0.1, 0.2, 0.0, 0.0, 4.0, 5.0))
        rows = list(log.rows())
        assert len(rows[0]) == len(log.columns)
        assert list(rows[0]) == [0, 0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.0, 0.0, 4.0, 5.0]


class TestGramianDistributionSmall:
    def test_small_run_summary(self):
        cfg = ExperimentConfig(
            experiment="gramian-dist", samples=3, q=256, t_final=50.0, observables=(10,)
        )
        out = run_gramian_distribution(cfg)
        assert out["summary"]["samples"] == 3
        assert out["summary"]["failures"] == 0
        header, table = out["table"]
        assert table.shape == (3, 4)
        assert np.all(np.isfinite(table[:, 2]))  # thermal Gamma conditions

    def test_numerically_singular_counted(self):
        # At N=3 with observables [1, 2, 3] every Gamma is singular to
        # roundoff (conditions 1e16-1e18, above 1/(3 eps) = 1.5e15); G, with
        # conditions near 1e8, is not.  The table keeps the values.
        cfg = ExperimentConfig(
            experiment="gramian-dist", n_levels=3, state="pure", t_final=30.0, q=64,
            observables=(1, 2, 3), samples=6,
        )
        out = run_gramian_distribution(cfg)
        summary, table = out["summary"], out["table"][1]
        assert summary["cond_g"]["numerically_singular"] == 0
        assert np.all(table[:, 1] < 1.0 / (9 * np.finfo(float).eps))
        for i, name in [(2, "cond_gamma_thermal"), (3, "cond_gamma_pure")]:
            assert summary[name]["numerically_singular"] == 6
            assert np.all(np.isfinite(table[:, i]))
            assert summary[name]["log10_median"] == pytest.approx(np.median(np.log10(table[:, i])))

    def test_setup_built_once(self, monkeypatch):
        # The system, observables and states do not depend on the sample.
        calls = []
        build = ExperimentConfig.build_system
        monkeypatch.setattr(ExperimentConfig, "build_system", lambda cfg: calls.append(1) or build(cfg))
        cfg = ExperimentConfig(
            experiment="gramian-dist", n_levels=3, state="pure", t_final=30.0, q=64,
            observables=(2,), samples=4,
        )
        assert run_gramian_distribution(cfg)["summary"]["failures"] == 0
        assert len(calls) == 1

    def test_no_model_left_behind(self, monkeypatch):
        # The survey's model lives as long as the run that built it.
        systems = []
        build = ExperimentConfig.build_system
        monkeypatch.setattr(
            ExperimentConfig, "build_system",
            lambda cfg: systems.append(weakref.ref(system := build(cfg))) or system,
        )
        cfg = ExperimentConfig(
            experiment="gramian-dist", n_levels=3, state="pure", t_final=30.0, q=64,
            observables=(2,), samples=2,
        )
        run_gramian_distribution(cfg)
        gc.collect()
        assert len(systems) == 1 and systems[0]() is None

    def test_deterministic_across_runs_and_workers(self):
        # Samples run on threads only; TestSpreadSurvey compares the table
        # on one and two of them.
        cfg = ExperimentConfig(
            experiment="gramian-dist", samples=4, q=128, t_final=30.0, observables=(4,)
        )
        t1 = run_gramian_distribution(cfg)["table"][1]
        t2 = run_gramian_distribution(cfg)["table"][1]
        assert np.array_equal(t1, t2)


class TestEmitResults(object):
    def _bundle(self):
        log = TrajectoryLog(label="demo", m=1)
        log.add(0.0, np.array([0.5]), **_cells(0.0, 0.0, 0.0, 0.0, float("nan"), 1.0))
        log.add(0.5, np.array([0.6]), **_cells(0.01, 0.01, 0.2, 0.1, float("nan"), 10.0))
        return {
            "name": "unit",
            "logs": {"demo": log},
            "summary": {"final": 0.6, "nan_value": float("nan")},
        }

    def test_csv_and_json(self, tmp_path):
        cfg = ExperimentConfig(samples=2)
        paths = emit_results(self._bundle(), cfg, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["unit_demo.csv", "unit_summary.json"]
        with open(tmp_path / "unit_demo.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["step", "s"]
        assert len(rows) == 3  # header + steps (includes s0)
        summary = json.loads((tmp_path / "unit_summary.json").read_text())
        assert summary["seed"] == cfg.seed
        assert summary["config_hash"] == config_hash(cfg)

    def test_round_trip_hash(self, tmp_path):
        cfg = ExperimentConfig(samples=2, state="pure")
        emit_results(self._bundle(), cfg, tmp_path)
        summary = json.loads((tmp_path / "unit_summary.json").read_text())
        rebuilt = ExperimentConfig.from_dict(summary["config"])
        assert config_hash(rebuilt) == summary["config_hash"]

    def test_bit_stable(self, tmp_path):
        cfg = ExperimentConfig(samples=2)
        emit_results(self._bundle(), cfg, tmp_path / "a")
        emit_results(self._bundle(), cfg, tmp_path / "b")
        for name in ("unit_demo.csv", "unit_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_log_header_only(self, tmp_path):
        cfg = ExperimentConfig(samples=2)
        bundle = {"name": "unit", "logs": {"empty": TrajectoryLog(label="empty", m=1)}}
        emit_results(bundle, cfg, tmp_path)
        with open(tmp_path / "unit_empty.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_io_error_has_path_context(self):
        cfg = ExperimentConfig(samples=2)
        with pytest.raises(OSError, match="/proc"):
            emit_results(self._bundle(), cfg, "/proc/does-not-exist/x")


class TestGradientFlowRunner:
    def test_short_run_monotone(self):
        cfg = ExperimentConfig(
            q=128, t_final=30.0, observables=(2,), grad_s_max=2.0,
            integrator="euler:ds=0.5", state="rank7",
        )
        out = run_gradient_flow(cfg)
        log = out["logs"]["gradient"]
        phi1 = log.columns["phi_1"]
        assert len(phi1) == 5  # s0 + 4 accepted euler steps
        assert all(b >= a - 1e-12 for a, b in zip(phi1, phi1[1:]))

    def test_euler_honours_max_steps(self):
        # The step budget ends an Euler run as it ends a Cash-Karp one:
        # 5 of the 100 steps to grad_s_max = 1, termination max_steps.
        cfg = ExperimentConfig(
            n_levels=3, state="pure", t_final=20.0, q=32, observables=(2,),
            integrator="euler:ds=0.01", grad_s_max=1.0, max_steps=5,
        )
        summary = run_gradient_flow(cfg)["summary"]["log"]
        assert summary["termination"] == "max_steps"
        counts = (summary["accepted_steps"], summary["rejected_steps"], summary["rhs_evaluations"])
        assert counts == (5, 0, 5)
        assert summary["records"] == 6
        assert summary["final_s"] == pytest.approx(0.05)


class TestEfficiencyRunner:
    def test_setup_built_once(self, monkeypatch):
        # Both legs start from one model, state, observable set and eps_0.
        calls = []
        run = experiments._Run
        monkeypatch.setattr(experiments, "_Run", lambda config: calls.append(config) or run(config))
        cfg = ExperimentConfig(
            experiment="efficiency", n_levels=3, state="pure", t_final=20.0, q=32,
            observables=(2,), max_steps=3,
        )
        run_efficiency_comparison(cfg)
        assert len(calls) == 1


class TestCli:
    def test_help_runs(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0

    def test_bad_config_exit_2(self, tmp_path):
        rc = cli_main(
            ["gramian-dist", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_invalid_config_value_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"max_steps": 0}))
        rc = cli_main(["motc-track", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: max_steps must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,key,expected",
        [
            ("--correction", "off", "correction", "off"),
            ("--free-fn", "fluence:eta=2", "free_fn", "fluence:eta=2"),
        ],
    )
    def test_flag_reaches_config(self, flag, value, key, expected):
        args = build_parser().parse_args(["motc-track", flag, value])
        assert getattr(config_from_args(args), key) == expected

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        rc = cli_main(["motc-track", *_TINY, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: seed must be non-negative" in capsys.readouterr().err

    def test_bad_flag_value_exit_2(self, tmp_path):
        rc = cli_main(["gramian-dist", "--observables", "2,x", "--out", str(tmp_path)])
        assert rc == 2

    def test_gramian_dist_end_to_end(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"q": 128, "t_final": 30.0, "samples": 2}))
        rc = cli_main(
            [
                "gramian-dist",
                "--config", str(cfg_file),
                "--seed", "7",
                "--out", str(tmp_path / "out"),
                "--observables", "4",
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "gramian-dist_summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["config"]["samples"] == 2
        assert (tmp_path / "out" / "gramian-dist_table.csv").exists()

    def test_io_error_exit_4(self, tmp_path):
        rc = cli_main(
            [
                "gramian-dist",
                "--samples", "1",
                "--grid", "64",
                "--t-final", "10",
                "--observables", "2",
                "--out", "/proc/nope",
            ]
        )
        assert rc == 4

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "motc.bench.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gramian-dist" in proc.stdout


_TINY = ["--levels", "3", "--state", "pure", "--t-final", "20", "--grid", "32", "--observables", "2"]
_LOOSE = ["--integrator", "rkck:atol=1e-4,rtol=1e-4"]


class TestTrackingEndToEnd:
    """The headline runners at a tiny config, through the CLI: every run
    ends with exit code 0 and a recorded termination reason, logs each
    accepted step, and repeats byte for byte."""

    @pytest.mark.parametrize(
        "command,flags,config,summary_path,csv_name,termination",
        [
            ("motc-track", _LOOSE, {}, ("per_m", "2"), "motc-track_2.csv", "completed"),
            # m = N: Gamma is singular (Theta_1 lies in span{I, P_0, P_1}),
            # but the rates stay in its range and the solve truncates.
            (
                "motc-track", [*_LOOSE, "--observables", "3"], {}, ("per_m", "3"),
                "motc-track_3.csv", "completed",
            ),
            ("efficiency", _LOOSE, {}, ("motc",), "efficiency_motc_m2.csv", "observer"),
            ("unitary-track", [], {}, ("log",), "unitary-track_unitary.csv", "stall"),
            (
                "unitary-track", _LOOSE, {"max_steps": 20}, ("log",),
                "unitary-track_unitary.csv", "max_steps",
            ),
        ],
        ids=[
            "motc-completed", "motc-m-equals-n", "efficiency-observer", "unitary-stall",
            "unitary-max-steps",
        ],
    )
    def test_runner(self, tmp_path, command, flags, config, summary_path, csv_name, termination):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = cli_main([command, "--config", str(cfg_file), *_TINY, *flags, "--out", str(out)])
            assert rc == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

        summary = json.loads(outputs[0][f"{command}_summary.json"])["summary"]
        for key in summary_path:
            summary = summary[key]
        rows = list(csv.reader(outputs[0][csv_name].decode().splitlines()))
        s = np.array([float(row[rows[0].index("s")]) for row in rows[1:]])
        assert s[0] == 0.0 and np.all(np.diff(s) > 0) and s[-1] <= 1.0
        assert summary["termination"] == termination
        assert (s[-1] == 1.0) == (termination == "completed")
        assert summary["accepted_steps"] == summary["records"] - 1 == len(s) - 1
        assert ("error" in summary) == (termination == "stall")

    def test_non_finite_field_recorded(self, tmp_path):
        # At eta = 1e-300 the minimum-fluence free function of eps_0 is
        # finite, but the squared norm of the Gramian right-hand side it
        # gives overflows at the first stage: the leg ends in a recorded
        # error before any solve, not a traceback or a warning, and the
        # run's outputs are written.
        flags = ["--free-fn", "fluence:eta=1e-300", "--out", str(tmp_path)]
        assert cli_main(["motc-track", *_TINY, *flags]) == 0
        summary = json.loads((tmp_path / "motc-track_summary.json").read_text())["summary"]
        leg = summary["per_m"]["2"]
        assert leg["termination"] == "error"
        assert leg["error"] == "ConsistencyError: non-finite Gramian right-hand side at s = 0"
        assert leg["records"] == leg["accepted_steps"] + 1
        assert summary["high_mode_counts"] == {}

    @pytest.mark.parametrize("max_steps,termination", [(20000, "completed"), (5, "max_steps")])
    def test_high_modes_of_completed_legs_only(self, tmp_path, max_steps, termination):
        # Every leg with a final field emits its spectrum, but only a
        # completed leg's field is the tracked one whose modes are counted.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"max_steps": max_steps}))
        args = ["--config", str(cfg_file), *_TINY, *_LOOSE, "--out", str(tmp_path)]
        assert cli_main(["motc-track", *args]) == 0
        summary = json.loads((tmp_path / "motc-track_summary.json").read_text())["summary"]
        assert summary["per_m"]["2"]["termination"] == termination
        assert ("2" in summary["high_mode_counts"]) == (termination == "completed")
        assert (tmp_path / "motc-track_spectrum_m2.csv").is_file()


class TestOnePropagationPerField:
    """Each run propagates a field once even when the recorder, the flow
    target and the integrator's next first stage all ask for it, so a run
    that ends on an accepted step makes one propagation per rhs evaluation
    plus one for eps_0.  The count goes through the module attribute that a
    wrapper (such as the benchmark's probe) rebinds."""

    @pytest.mark.parametrize(
        "command,flags,config,summary_path",
        [
            ("motc-track", _LOOSE, {}, ("per_m", "2")),
            ("grad-flow", [], {"grad_s_max": 1.0}, ("log",)),
        ],
        ids=["motc-completed", "grad-flow"],
    )
    def test_calls(self, tmp_path, monkeypatch, command, flags, config, summary_path):
        calls = []
        propagate = experiments.propagate
        monkeypatch.setattr(
            experiments, "propagate", lambda *args: calls.append(1) or propagate(*args)
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg_file), *_TINY, *flags, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / f"{command}_summary.json").read_text())["summary"]
        for key in summary_path:
            summary = summary[key]
        assert summary["termination"] == "completed"
        assert len(calls) == summary["rhs_evaluations"] + 1


class TestOneGramianPerField:
    """Tracks hold no state: every rhs evaluation builds its own Gramian,
    and every record one more for the condition it logs, so a run builds
    one Gramian per rhs evaluation plus one per record.  Every motc binding
    of ``gramian_motc`` is counted."""

    @pytest.mark.parametrize(
        "command,config,summary_path",
        [
            ("motc-track", {}, ("per_m", "2")),
            # Ten attempts, the last of them accepted.
            ("unitary-track", {"max_steps": 10}, ("log",)),
        ],
        ids=["motc-completed", "unitary-max-steps"],
    )
    def test_calls(self, tmp_path, monkeypatch, command, config, summary_path):
        calls = _count_calls(monkeypatch, tracking.gramian_motc)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg_file), *_TINY, *_LOOSE, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / f"{command}_summary.json").read_text())["summary"]
        for key in summary_path:
            summary = summary[key]
        assert summary["records"] > 2
        assert len(calls) == summary["rhs_evaluations"] + summary["records"]


class TestNoKinematicFlowInRunners:
    """The tracking target is closed-form: no runner integrates the flow."""

    @pytest.mark.parametrize(
        "runner", ["run_motc_experiment", "run_unitary_experiment", "run_efficiency_comparison"]
    )
    def test_zero_calls(self, monkeypatch, runner):
        calls = _count_calls(monkeypatch, landscape.kinematic_flow)
        cfg = ExperimentConfig(
            n_levels=3, state="pure", t_final=20.0, q=32, observables=(2,), max_steps=3
        )
        summary = getattr(experiments, runner)(cfg)["summary"]
        assert calls == []
        assert 0 < summary["kinematic_max_phi1"] <= 1


class TestOneGeodesicPerRun:
    """A run builds its geodesic from U_0 to W once: `_Run.geodesic`'s
    branch-cut probe is the track every leg uses, so one principal log is
    taken per run whatever the number of observable sets."""

    @pytest.mark.parametrize(
        "runner,observables",
        [("run_motc_experiment", (1, 2)), ("run_efficiency_comparison", (2,))],
    )
    def test_one_log(self, monkeypatch, runner, observables):
        calls = _count_calls(monkeypatch, tracking.log_unitary_principal)
        cfg = ExperimentConfig(
            n_levels=3, state="pure", t_final=20.0, q=32, observables=observables, max_steps=3
        )
        getattr(experiments, runner)(cfg)
        assert len(calls) == 1


class TestBranchCutRetry:
    """`_Run.geodesic` nudges W off the log branch cut and tries the
    geodesic again, up to five times; then the run ends in
    BranchBoundaryError."""

    CONFIG = ExperimentConfig(
        n_levels=3, state="pure", t_final=20.0, q=32, observables=(2,), max_steps=3
    )

    @staticmethod
    def _fail_first(monkeypatch, failures: int) -> list:
        """Make the geodesic raise on its first ``failures`` calls; returns
        the W of every call."""
        seen = []

        def flaky(u0, w):
            seen.append(w.copy())
            if len(seen) <= failures:
                raise BranchBoundaryError("W on the branch cut")
            return tracking.geodesic_target_unitary(u0, w)

        monkeypatch.setattr(experiments, "geodesic_target_unitary", flaky)
        return seen

    def test_nudged_once(self, monkeypatch):
        plain = experiments.run_motc_experiment(self.CONFIG)["summary"]
        seen = self._fail_first(monkeypatch, 1)
        summary = experiments.run_motc_experiment(self.CONFIG)["summary"]
        first, nudged = seen
        assert np.abs(nudged.conj().T @ nudged - np.eye(3)).max() < 1e-12
        assert 0 < np.linalg.norm(nudged - first) <= 1e-3
        assert summary["kinematic_max_phi1"] == plain["kinematic_max_phi1"]
        assert summary["per_m"]["2"]["accepted_steps"] > 0

    def test_five_failures_end_the_run(self, monkeypatch, tmp_path):
        seen = self._fail_first(monkeypatch, 5)
        with pytest.raises(BranchBoundaryError):
            experiments.run_motc_experiment(self.CONFIG)
        assert len(seen) == 5
        seen.clear()
        rc = cli_main(["motc-track", *_TINY, "--out", str(tmp_path)])
        assert rc == 3
        assert len(seen) == 5


class TestTrackStallCounters:
    def test_short_run_pinned(self):
        # track-stall's config (perfbench/workloads.py) cut to 30 attempts:
        # the integrator's counters repeat exactly, the reached s to roundoff.
        # Eight rejections, each followed by another attempt that reuses
        # k[0]: 6 * 30 - 8 = 172 evaluations.  The target W is the exact
        # maximizer, so Phi_1(W) is the trace-inequality bound.
        cfg = ExperimentConfig(
            n_levels=11, state="rank7", t_final=20.0, q=128, observables=(2,),
            correction="beta=10", integrator="rkck:atol=1e-6,rtol=1e-6", seed=2008,
            max_steps=30,
        )
        out = experiments.run_motc_experiment(cfg)["summary"]
        summary = out["per_m"]["2"]
        counts = (summary["accepted_steps"], summary["rejected_steps"], summary["rhs_evaluations"])
        assert counts == (22, 8, 172)
        assert summary["termination"] == "max_steps"
        assert summary["final_s"] == pytest.approx(0.18349678454623236, rel=1e-9)
        system = cfg.build_system()
        rho, theta = cfg.build_state(system).rho0, cfg.build_observables().operators[0]
        bound = np.sort(np.linalg.eigvalsh(rho)) @ np.sort(np.linalg.eigvalsh(theta))
        assert out["kinematic_max_phi1"] == pytest.approx(bound, abs=1e-12)
