import json

import numpy as np
import pytest

from qmemsim.cli import EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, main
from qmemsim.fitting import closed_form_fidelity


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def small_config(tmp_path):
    return write_json(
        tmp_path / "small.json",
        {"pulses_per_setting": 2000, "mc_resamples": 10, "output_dir": str(tmp_path / "out")},
    )


class TestReproduce:
    def test_fig3_writes_both_formats(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["reproduce", "fig3", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "fig3.csv").exists()
        assert (out / "fig3.json").exists()
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "fig3.csv") in printed
        assert str(out / "fig3.json") in printed

    def test_format_csv_only(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "fig3", "--out", str(out), "--format", "csv"])
        assert code == EXIT_OK
        assert (out / "fig3.csv").exists()
        assert (out / "fig3.config.json").exists()
        assert not (out / "fig3.json").exists()

    def test_reruns_byte_identical(self, tmp_path, small_config):
        out = tmp_path / "out"
        argv = ["reproduce", "table1", "--config", small_config, "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = {n: (out / n).read_bytes() for n in ("table1.csv", "table1.json")}
        assert main(argv) == EXIT_OK
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_seed_override_changes_samples(self, tmp_path, small_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["reproduce", "table1", "--config", small_config, "--out", str(a), "--seed", "1"])
        main(["reproduce", "table1", "--config", small_config, "--out", str(b), "--seed", "2"])
        assert (a / "table1.csv").read_bytes() != (b / "table1.csv").read_bytes()

    def test_pulses_override_recorded_in_echo(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "reproduce",
                "table1",
                "--out",
                str(out),
                "--pulses",
                "1000",
                "--expected-counts",
            ]
        )
        payload = json.loads((out / "table1.json").read_text())
        assert payload["config"]["pulses_per_setting"] == 1000
        assert payload["meta"]["mode"] == "expected"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"taus": 1.0})
        code = main(["reproduce", "fig3", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "unknown key taus" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"memory": {"tau": -1}})
        code = main(["reproduce", "fig3", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "memory.tau must be > 0" in capsys.readouterr().err

    def test_non_finite_value_exits_2_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"memory": {"sigma_gamma": Infinity}}')
        code = main(["reproduce", "fig5", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "memory.sigma_gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_count_basis_exits_3_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["reproduce", "table1", "--pulses", "1", "--out", str(out)])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("numerical error: zero total counts")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["reproduce", "fig5"], ["reproduce", "table1"], ["simulate"]]
    )
    def test_degenerate_input_states_exit_2_writing_nothing(self, tmp_path, capsys, command):
        # H, V, D, A span only two Stokes axes: not informationally complete.
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "hvda.json", {"input_states": ["H", "V", "D", "A"]})
        code = main([*command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: input_states")
        assert "informationally complete" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fit_failure_exits_3_but_persists_points(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "one.json",
            {"storage_times": [0.005], "output_dir": str(tmp_path / "out")},
        )
        code = main(["reproduce", "fig4", "--config", cfg, "--expected-counts"])
        assert code == EXIT_FIT
        assert "fit failed" in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "fig4.json").read_text())
        assert len(payload["rows"]) == 1
        assert "error" in payload["meta"]["fit"]

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["reproduce", "fig3", "--out", str(blocker / "sub")])
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_bad_target_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])


class TestSimulate:
    def test_grid_artifact(self, tmp_path):
        cfg = write_json(
            tmp_path / "sim.json",
            {
                "channels": [{"id": "X", "theta": 1.0}],
                "storage_times": [0.005, 1.0],
                "output_dir": str(tmp_path / "out"),
            },
        )
        code = main(["simulate", "--config", cfg, "--expected-counts"])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0][0] == "X"


class TestFit:
    def test_exponential_csv(self, tmp_path, capsys):
        times = np.linspace(0.5, 5.0, 8)
        values = 0.127 * np.exp(-times / 2.9)
        lines = ["t_ms,efficiency"] + [f"{t},{v}" for t, v in zip(times, values)]
        path = tmp_path / "decay.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["fit", str(path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "exponential"
        assert report["converged"]
        assert report["params"]["r0"] == pytest.approx(0.127, abs=1e-9)
        assert report["params"]["tau"] == pytest.approx(2.9, abs=1e-9)

    def test_exponential_json_with_sigmas_and_out(self, tmp_path, capsys):
        times = np.linspace(0.5, 5.0, 8)
        payload = {
            "times": list(times),
            "values": list(0.1 * np.exp(-times / 2.0)),
            "sigmas": [1e-4] * len(times),
        }
        path = write_json(tmp_path / "decay.json", payload)
        out = tmp_path / "report"
        code = main(["fit", path, "--out", str(out)])
        assert code == EXIT_OK
        on_disk = json.loads((out / "fit.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)
        assert on_disk["params"]["tau"] == pytest.approx(2.0, abs=1e-9)

    def test_sigma_gamma_model(self, tmp_path, capsys):
        times = np.array([0.005, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        values = closed_form_fidelity(times, r0=0.127, tau=2.9, gamma0=1.0, sigma_gamma=104.0)
        path = write_json(
            tmp_path / "fid.json", {"times": list(times), "values": list(values)}
        )
        code = main(["fit", path, "--model", "sigma-gamma"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["sigma_gamma"] == pytest.approx(104.0, rel=1e-4)
        assert not report["at_bound"]

    def test_missing_dataset_exits_4(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "absent.csv")])
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,v\n1,2\n3,not_a_number\n")
        code = main(["fit", str(path)])
        assert code == EXIT_CONFIG

    def test_single_row_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,v\n1.0,0.1\n")
        code = main(["fit", str(path)])
        assert code == EXIT_CONFIG
        assert "at least 2 samples" in capsys.readouterr().err

    def test_unfittable_values_exit_3(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text("t,v\n1.0,-0.1\n2.0,-0.05\n")
        code = main(["fit", str(path)])
        assert code == EXIT_FIT
        assert "fit error" in capsys.readouterr().err

    def test_unknown_channel_for_sigma_gamma_exits_2(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "fid.json", {"times": [1.0, 2.0], "values": [0.9, 0.8]}
        )
        code = main(["fit", path, "--model", "sigma-gamma", "--channel", "S9"])
        assert code == EXIT_CONFIG


class TestCalibrate:
    def test_default_targets(self, capsys):
        code = main(["calibrate"])
        assert code == EXIT_OK
        fragment = json.loads(capsys.readouterr().out)
        gammas = fragment["memory"]["static_gamma"]
        assert set(gammas) == {f"S{i}" for i in range(7)}
        assert gammas["S2"] == pytest.approx(0.8917592722497402, abs=1e-12)

    def test_explicit_targets_and_out(self, tmp_path, capsys):
        targets = write_json(tmp_path / "targets.json", {"S2": 0.914})
        out = tmp_path / "cal"
        code = main(["calibrate", "--targets", targets, "--out", str(out)])
        assert code == EXIT_OK
        fragment = json.loads((out / "calibration.json").read_text())
        assert set(fragment["memory"]["static_gamma"]) == {"S2"}

    def test_invalid_target_value_exits_2(self, tmp_path, capsys):
        targets = write_json(tmp_path / "targets.json", {"S2": 1.5})
        code = main(["calibrate", "--targets", targets])
        assert code == EXIT_CONFIG
        assert "fidelity must be in" in capsys.readouterr().err

    def test_unknown_channel_target_exits_2(self, tmp_path, capsys):
        targets = write_json(tmp_path / "targets.json", {"S9": 0.9})
        code = main(["calibrate", "--targets", targets])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown channel 'S9' (configured: S0, S1, S2, S3, S4, S5, S6)\n"
        )

    def test_unreachable_target_exits_3(self, tmp_path, capsys):
        targets = write_json(tmp_path / "targets.json", {"S2": 0.999})
        code = main(["calibrate", "--targets", targets])
        assert code == EXIT_FIT
        assert "outside achievable range" in capsys.readouterr().err
