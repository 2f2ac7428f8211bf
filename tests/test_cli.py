import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmemsim.cli import EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, MAX_ERROR_CHARS, main
from qmemsim.config import config_from_dict, effective_config
from qmemsim.fitting import closed_form_fidelity
from qmemsim.memory import DEFAULT_CHANNELS

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: No background, and a lifetime so short that the signal underflows to 0
#: at every t > 0: those units detect no photons and have no fidelity.
ZERO_RATE_CONFIG = {
    "channels": [{"id": "S2", "theta": 0.8}],
    "detection": {"background_n": 0},
    "memory": {"tau": 1e-300},
    "mc_resamples": 2,
}


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

    @pytest.mark.parametrize(
        "argv, name",
        [(["reproduce", "fig3"], "fig3"), (["simulate", "--expected-counts"], "simulate")],
        ids=["fig3", "simulate"],
    )
    def test_format_csv_only(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out), "--format", "csv"])
        assert code == EXIT_OK
        written = [str(out / f"{name}.csv"), str(out / f"{name}.config.json")]
        assert capsys.readouterr().out.splitlines() == written
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in written)

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

    def test_mean_past_numpys_poisson_limit_exits_3_writing_nothing(self, tmp_path, capsys):
        # numpy's Generator.poisson refuses a mean above POISSON_LAM_MAX, and
        # so does the transcription the runs draw with.
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "huge.json", {"detection": {"background_n": 1e30}})
        code = main(["reproduce", "table1", "--config", cfg, "--out", str(out)])
        assert code == EXIT_FIT
        assert capsys.readouterr().err == "numerical error: lam value too large\n"
        assert not out.exists()

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 522. GiB"), MemoryError()])
    def test_memory_error_exits_3_writing_nothing(self, tmp_path, capsys, monkeypatch, error):
        # A grid whose bootstrap does not fit in memory: the kernel raising
        # stands in for the allocation, so nothing large is allocated.
        def out_of_memory(counts, resamples, keys):
            raise error

        monkeypatch.setattr("qmemsim.scenarios.monte_carlo_error", out_of_memory)
        out = tmp_path / "out"
        code = main(["reproduce", "table1", "--out", str(out)])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err == f"memory error: {str(error) or 'out of memory'}\n"
        assert not out.exists()

    def test_too_many_resamples_exit_2_without_traceback(self, tmp_path):
        # The resample array is allocated before any resample runs, so an
        # unbounded count would fail there with a memory error.
        cfg = write_json(tmp_path / "huge.json", {"mc_resamples": 10**13})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "qmemsim", "simulate", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert "mc_resamples must be in [2, 1000000]" in proc.stderr
        assert not out.exists()

    def test_storage_time_keyed_past_2_to_the_64_picoseconds_exits_2(self, tmp_path):
        # The next float above the largest accepted time, 18446744073.70955 ms.
        cfg = write_json(tmp_path / "far.json", {"storage_times": [0.005, 18446744073.709553]})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "qmemsim", "simulate", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (
            "config error: storage_times must be in [0, 2**64) picoseconds, "
            "got 18446744073.709553 ms\n"
        )
        assert not out.exists()

    def test_largest_accepted_storage_time_runs_without_a_numpy_warning(self, tmp_path):
        # 18446744073.70955 ms keys to just below 2**64 ps; any numpy warning
        # on the way (an overflow in the decay, say) fails the test.
        cfg = write_json(
            tmp_path / "far.json",
            {"storage_times": [0.005, 18446744073.70955], "mc_resamples": 50},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(json.loads((out / "simulate.json").read_text())["rows"]) == 14

    @pytest.mark.parametrize(
        "config, path",
        [
            ({"input_states": ["H", "V", "D", "R"]}, "input_states"),
            ({"detection": {"eta_fiber": 0.8}}, "detection.eta_fiber"),
            ({"detection": {"eta_total": None}}, "detection.eta_total"),
            ({"rep_rate_hz": 20.0}, "rep_rate_hz"),
            ({"memory": {"r0_overrides": {"0.8": 0.127}}}, "memory.r0_overrides"),
            ({"detection": {"n_bar": 1.0}}, "detection.n_bar"),
            ({"memory": {"theta_w": 6.684}}, "memory.theta_w"),
            (
                {
                    "channels": [{"id": "S2", "theta": 0.8}],
                    "storage_times": [0.005],
                    "memory": {"static_gamma": {"s2": 0.5}},
                },
                "memory.static_gamma.s2",
            ),
        ],
        ids=[
            "input_states",
            "eta_fiber",
            "eta_total_null",
            "rep_rate_hz",
            "r0_overrides",
            "n_bar",
            "theta_w",
            "static_gamma_typo",
        ],
    )
    def test_removed_keys_exit_2_writing_nothing(self, tmp_path, capsys, config, path):
        # The input quartet is fixed, eta_total is the one efficiency (the mean
        # photon number is 1) and the measured R0, the rep rate and the
        # walk-off width are constants, so a config that still sets the old
        # keys is refused, as is a static_gamma key that names no channel.
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "old.json", config)
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and path in err
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

    def test_missing_config_exits_4(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code = main(["reproduce", "fig3", "--config", str(path)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith(f"io error: cannot read config {path}: ")

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["reproduce", "fig3", "--out", str(blocker / "sub")])
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_bad_target_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["reproduce", "fig9"])
        assert stop.value.code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: qmemsim reproduce ")
        assert err[-1] == (
            "qmemsim reproduce: error: argument target: invalid choice: 'fig9' "
            "(choose from 'fig3', 'fig4', 'fig5', 'table1')"
        )

    def test_long_parser_error_is_cut_to_one_line(self, capsys):
        # argparse quotes the value whole (int() refuses past 4300 digits): the
        # line is escaped and cut as every error line is, after the usage.
        with pytest.raises(SystemExit) as stop:
            main(["simulate", "--seed", "9" * 4999 + "\n"])
        assert stop.value.code == EXIT_CONFIG
        usage, line = capsys.readouterr().err.split("\nqmemsim simulate: error: ")
        assert usage.startswith("usage: qmemsim simulate ")
        assert line.startswith("argument --seed: invalid int value: '999")
        assert line.endswith("999\\n'\n") and line.count("\n") == 1
        assert " characters left out] ... " in line and len(line) < MAX_ERROR_CHARS + 40

    @pytest.mark.parametrize("target", ["fig4", "fig5"])
    def test_channel_flag_runs_a_config_without_s2(self, tmp_path, capsys, target):
        cfg = write_json(tmp_path / "a.json", {"channels": [{"id": "A", "theta": 0.8}]})
        argv = ["reproduce", target, "--config", cfg, "--out", str(tmp_path / "out")]
        assert main([*argv, "--expected-counts"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown channel 'S2' (configured: A)\n"
        assert main([*argv, "--expected-counts", "--channel", "A"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / f"{target}.json").read_text())["meta"]
        assert (meta["channel"], meta["theta_deg"]) == ("A", 0.8)

    @pytest.mark.parametrize("target", ["fig4", "fig5"])
    def test_channel_flag_default_is_s2(self, tmp_path, target):
        out = tmp_path / "out"
        runs = []
        argv = ["reproduce", target, "--expected-counts", "--out", str(out)]
        for extra in ([], ["--channel", "S2"]):
            assert main([*argv, *extra]) == EXIT_OK
            runs.append([(out / f"{target}.{ext}").read_bytes() for ext in ("csv", "json")])
        assert runs[0] == runs[1]

    def test_unknown_channel_flag_exits_2_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "fig5", "--channel", "S9", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown channel 'S9' (configured: S0, S1, S2, S3, S4, S5, S6)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("target", ["fig3", "table1"])
    def test_channel_flag_exits_2_for_per_channel_tables(self, tmp_path, capsys, target):
        out = tmp_path / "out"
        assert main(["reproduce", target, "--channel", "S2", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: --channel applies to fig4 and fig5, not {target}\n"
        assert not out.exists()


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


class TestImportCost:
    # numpy loads numpy.random on first use, at ~6 MB of RSS and 13-15 ms:
    # no run loads it, because streams.poisson draws every sample.
    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        code = "import sys, qmemsim.cli; sys.exit('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def imported_packages(tmp_path, *command):
        # -X importtime logs every module the run imports to stderr.
        cfg = write_json(tmp_path / "few.json", {"mc_resamples": 5, "pulses_per_setting": 10**4})
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qmemsim", *command, "--config", cfg]
            + ["--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        packages = {".".join(name.split(".")[:2]) for name in modules}
        assert "qmemsim.scenarios" in packages
        return packages

    def test_expected_counts_simulate_never_imports_numpy_random(self, tmp_path):
        packages = self.imported_packages(tmp_path, "simulate", "--expected-counts")
        assert "numpy.random" not in packages

    @pytest.mark.parametrize(
        "command", ["simulate", "reproduce fig4", "reproduce fig5", "reproduce table1"]
    )
    def test_sampled_runs_never_import_numpy_random(self, tmp_path, command):
        packages = self.imported_packages(tmp_path, *command.split())
        # numpy.ma (~15 ms) comes in with np.unique, which no run calls either.
        assert "numpy.random" not in packages and "numpy.ma" not in packages


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

    def test_exponential_late_start(self, tmp_path, capsys):
        # At short trial taus exp(-t / tau) underflows to 0 at every
        # sample; under the fit's errstate a 0/0 amplitude would raise.
        times = np.linspace(100.0, 106.0, 8)
        values = 0.127 * np.exp(-times / 2.9)
        lines = ["t_ms,efficiency"] + [f"{t},{v}" for t, v in zip(times, values)]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["r0"] == pytest.approx(0.127, rel=1e-6)
        assert report["params"]["tau"] == pytest.approx(2.9, rel=1e-6)

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

    def test_values_spanning_too_many_decades_exit_3(self, tmp_path, capsys):
        path = tmp_path / "steep.csv"
        path.write_text("t,v\n0.0,1.0\n1.0,1e-200\n")
        assert main(["fit", str(path)]) == EXIT_FIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fit error: values span too many decades to fit")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, detail",
        [
            ({"times": {"a": 1}, "values": [1, 2]}, ""),
            ({"times": [0, 10**400], "values": [1, 2]}, ""),
            # "sigma" is a typo for "sigmas": it must not fit unweighted.
            ({"times": [1, 2], "values": [0.1, 0.05], "sigma": [0.01, 0.01]}, "unknown key sigma"),
            # The columns follow the config's leaf rules: a bool or a string is no number.
            (
                {"times": [True, 2.0, 3.0], "values": [0.1, 0.05, 0.02]},
                "times[0]: expected float, got bool",
            ),
            (
                {"times": ["0", "2", "3"], "values": [0.1, 0.05, 0.02]},
                "times[0]: expected number, got str",
            ),
        ],
        ids=["object-column", "int-too-large", "unknown-key", "bool-time", "string-time"],
    )
    def test_non_numeric_json_column_exits_2_naming_the_file(
        self, tmp_path, capsys, payload, detail
    ):
        path = write_json(tmp_path / "bad.json", payload)
        assert main(["fit", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {detail}")
        assert err.count("\n") == 1

    def test_ragged_csv_row_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("t,v\n1,0.1\n2,0.05,9\n3,0.02\n")
        assert main(["fit", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {path}: line 3: expected 2 cells, got 3\n"
        )

    @pytest.mark.parametrize(
        "cell, detail",
        [
            # float() would read "1_0" as 10 and fit it.
            ("1_0", "'1_0' is not a JSON number"),
            ("nan", "'nan' is not a JSON number"),
            ("1e400", "expected a finite number"),
            ("true", "expected float, got bool"),
        ],
    )
    def test_csv_cell_that_is_no_json_number_exits_2_naming_the_line(
        self, tmp_path, capsys, cell, detail
    ):
        path = tmp_path / "cells.csv"
        path.write_text(f"t,v\n0,0.1\n{cell},0.05\n2,0.02\n")
        assert main(["fit", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {path}: line 3: {detail}\n"

    def test_header_only_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("t,v\n")
        assert main(["fit", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {path}: no data rows after the header\n"

    def test_oversized_csv_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("t,v\n1," + "9" * 200_000 + "\n")
        assert main(["fit", str(path)]) == EXIT_CONFIG
        assert "field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["exponential", "sigma-gamma"])
    def test_overflowing_fit_exits_3_printing_nothing(self, tmp_path, capsys, model):
        # The exponential fit scales values by max|v|; a sigma 1e200 below
        # it still overflows the weights.
        path = write_json(
            tmp_path / "huge.json",
            {"times": [0.0, 1.0], "values": [1.0, 1e200], "sigmas": [1.0, 1e-100]},
        )
        assert main(["fit", path, "--model", model]) == EXIT_FIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: overflow")

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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"S2": "0.9"}, ".S2: expected number, got str"),
            ({"S2": True}, ".S2: expected float, got bool"),
            ([0.9], ": expected an object"),
            ({}, ": expected a non-empty channel->fidelity object"),
        ],
        ids=["string", "bool", "list", "empty"],
    )
    def test_malformed_targets_exit_2_naming_the_file(self, tmp_path, capsys, payload, message):
        targets = write_json(tmp_path / "targets.json", payload)
        assert main(["calibrate", "--targets", targets]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {targets}{message}\n"

    def test_missing_targets_exit_4_and_malformed_json_exits_2(self, tmp_path, capsys):
        # The targets file and --config share one reader, and so their exit codes.
        absent, broken = tmp_path / "absent.json", tmp_path / "broken.json"
        broken.write_text("{not json")
        for path, code, message in [(absent, EXIT_IO, "io error: cannot read targets"),
                                    (broken, EXIT_CONFIG, "config error: invalid JSON in")]:
            assert main(["calibrate", "--targets", str(path)]) == code
            assert capsys.readouterr().err.startswith(f"{message} {path}: ")

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


@pytest.mark.parametrize(
    "argv, suffix",
    [(["simulate", "--config"], ".json"), (["calibrate", "--targets"], ".json"),
     (["fit"], ".json"), (["fit"], ".csv")],
    ids=["config", "targets", "json-dataset", "csv-dataset"],
)
def test_deeply_nested_json_exits_2_in_one_line(tmp_path, capsys, argv, suffix):
    # 100,000 open arrays pass json's recursion limit, in a whole file or in one CSV cell.
    path, deep = tmp_path / f"deep{suffix}", "[" * 100_000
    path.write_text(f"t_ms,value\n{deep},1\n" if suffix == ".csv" else deep + "]" * 100_000)
    assert main([*argv, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


_LONG = "x" * 100_000


@pytest.mark.parametrize(
    "command, config, data, left_out",
    [
        (["fit"], None, f"t_ms,value\n0,1\n{_LONG},1\n", True),
        (["simulate"], {_LONG: 1}, None, True),
        (["simulate"], {"channels": [{"id": _LONG, "theta": 91}]}, None, True),
        (["reproduce", "fig4", "--channel", _LONG[:50_000]], None, None, True),
        (["simulate"], {"channels": [{"id": "S\n2", "theta": 91}]}, None, False),
        (["simulate"], {"memory": {"ta\nu": 1}}, None, False),
    ],
    ids=["csv-cell", "config-key", "theta-channel", "channel-flag", "newline-id", "newline-key"],
)
def test_user_text_in_an_error_prints_one_bounded_line(
    tmp_path, capsys, command, config, data, left_out
):
    # A long cell, key or channel id is cut in the middle, and a newline in
    # one is escaped, so every error is one line of at most about
    # MAX_ERROR_CHARS characters.
    argv = [*command, "--out", str(tmp_path / "out")]
    if data is not None:
        (tmp_path / "data.csv").write_text(data)
        argv.insert(1, str(tmp_path / "data.csv"))
    if config is not None:
        argv += ["--config", write_json(tmp_path / "config.json", config)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
    cut = re.search(r" \.\.\. \[(\d+) characters left out\] \.\.\. ", err)
    assert bool(cut) == left_out
    assert len(err) <= MAX_ERROR_CHARS + (len(cut[0]) if cut else 0) + 1
    if cut:
        assert int(cut[1]) > len(_LONG if data or config else _LONG[:50_000]) - MAX_ERROR_CHARS
    else:
        assert "\\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "calibrate"])
def test_failed_report_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, command):
    if command == "fit":
        times = [0.5, 1.0, 2.0, 4.0]
        dataset = write_json(
            tmp_path / "decay.json",
            {"times": times, "values": [0.1 * np.exp(-t / 2.0) for t in times]},
        )
        argv, name = ["fit", dataset], "fit.json"
    else:
        argv, name = ["calibrate"], "calibration.json"
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    assert main([*argv, "--out", str(existing)]) == EXIT_OK
    before = (existing / name).read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    for out in (fresh, existing):
        assert main([*argv, "--out", str(out)]) == EXIT_IO
    assert "io error" in capsys.readouterr().err
    assert os.listdir(fresh) == []
    assert os.listdir(existing) == [name]
    assert (existing / name).read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [["reproduce", "table1"], ["simulate", "--expected-counts"], ["calibrate"]],
    ids=["table1", "simulate", "calibrate"],
)
def test_unit_with_no_photons_exits_3_writing_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "dark.json", ZERO_RATE_CONFIG)
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_FIT
    err = capsys.readouterr().err
    assert err.startswith("numerical error: zero detection rate")
    assert err.count("\n") == 1
    assert not out.exists()


_numbers = st.one_of(st.floats(), st.integers(), st.booleans())
_leaves = st.one_of(_numbers, st.none(), st.text(max_size=4))
_json_values = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=10,
)
_json_columns = _json_values | st.lists(_numbers, max_size=6)
_csv_cells = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", "x", "nan", "-inf", "1e999", " 0.5", "[1]"]),
)
# Equal-length finite columns, so that many datasets reach the fitters.
_numeric_columns = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
        | st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n),
    )
)


def _json_text(data):
    return ".json", json.dumps(data)


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return ".csv", buf.getvalue()


_datasets = st.one_of(
    _json_values.map(_json_text),
    st.fixed_dictionaries(
        {"times": _json_columns, "values": _json_columns}, optional={"sigmas": _json_columns}
    ).map(_json_text),
    _numeric_columns.map(lambda c: _json_text({"times": c[0], "values": c[1]})),
    st.lists(st.lists(_csv_cells, max_size=4), max_size=7).map(_csv_text),
    _numeric_columns.map(lambda c: _csv_text([("t_ms", "value"), *zip(*c)])),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    dataset=_datasets,
    model=st.sampled_from(["exponential", "sigma-gamma"]),
)
def test_fit_exit_codes_on_generated_datasets(dataset, model):
    suffix, text = dataset
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data" + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fit", path, "--model", model])
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_FIT, EXIT_IO}
        assert err.getvalue().count("\n") == (code != EXIT_OK), err.getvalue()


_scenario_configs = st.fixed_dictionaries(
    {
        "pulses_per_setting": st.integers(1, 100_000),
        "mc_resamples": st.integers(2, 5),
        "storage_times": st.lists(
            st.floats(0.0, 10.0), min_size=1, max_size=3, unique_by=lambda t: round(t * 1e9)
        ),
        "channels": st.lists(
            st.sampled_from(DEFAULT_CHANNELS), min_size=1, max_size=2, unique=True
        ).map(lambda chs: [{"id": ch.id, "theta": ch.theta} for ch in chs]),
        "detection": st.fixed_dictionaries({"background_n": st.sampled_from([0.0, 1e-6, 7e-4])}),
        "memory": st.fixed_dictionaries({"tau": st.sampled_from([1e-300, 0.01, 2.9])}),
    }
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(config=_scenario_configs)
@example(config=ZERO_RATE_CONFIG)
def test_scenario_exit_codes_on_generated_configs(config):
    # Every generated config loads, and its echo loads back as the same config.
    cfg = config_from_dict(config)
    assert config_from_dict(effective_config(cfg)) == cfg
    # A warning raised inside main is an error under this suite's filterwarnings.
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "config.json", config)
        channel = ["--channel", config["channels"][0]["id"]]
        commands = [["reproduce", "table1"], ["simulate"]]
        commands += [["reproduce", target, *channel] for target in ("fig4", "fig5")]
        for command in commands:
            for flags in ([], ["--expected-counts"]):
                argv = [*command, *flags, "--config", path, "--out", os.path.join(tmp, "out")]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in {EXIT_OK, EXIT_CONFIG, EXIT_FIT, EXIT_IO}, argv
                assert err.getvalue().count("\n") == (code != EXIT_OK), (argv, err.getvalue())
