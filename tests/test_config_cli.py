import json
import subprocess
import sys

import numpy as np
import pytest

from sclab.cli import main as cli_main
from sclab.config import GLOBAL_FIELDS, SCHEMAS, _as_float, _as_float_list, parse_config
from sclab.errors import ParseError, ValidationError
from sclab.exit_time import EXIT_TIME_TOL
from sclab.harness import run_experiment


MINIMAL_SPECTRAL = """
experiment = spectral
seed = 7
spectral.N = 8
"""

STEER_DEMO = """
experiment = steer
seed = 1
steer.maneuver = impulse
steer.k = 1.0
steer.eps_sweep = 1e-1,1e-2,1e-3
steer.v.name = harmonic
steer.w.name = linear
"""

OBSTRUCTION_SMALL = """
experiment = obstruction
seed = 5
obstruction.eps_grid = 0.01,0.02
obstruction.ensemble = 4
obstruction.n_seeds = 600
obstruction.w.name = linear
obstruction.w.slope = 0.0
obstruction.w.offset = 1.0
"""

OBSTRUCTION_BROKEN = """
experiment = obstruction
seed = 5
obstruction.eps_grid = 0.01
obstruction.ensemble = 2
obstruction.n_seeds = 600
obstruction.w.name = linear
obstruction.w.slope = 1.0
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_SPECTRAL)
        assert cfg.kind == "spectral"
        assert cfg.seed == 7
        assert cfg["spectral.N"] == 8
        assert cfg["spectral.a"] == -1.0  # documented default filled in

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = spectral\nfoo.bar = 1\n")
        assert "foo.bar" in str(err.value)

    def test_negative_ensemble_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("experiment = exit-time\nexit.ensemble = -5\n")
        assert "exit.ensemble" in str(err.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("experiment = spectral\nnot a pair\n")
        assert err.value.line == 2

    def test_missing_experiment(self):
        with pytest.raises(ValidationError):
            parse_config("seed = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("experiment = spectral\nseed = 1\nseed = 2\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400", "0.5,nan", "-Infinity,1"])
    def test_non_finite_float_rejected_naming_the_key(self, raw):
        # every float and float-list key of every kind refuses a value that
        # is not a finite number, and names its key; no key reads a bare
        # float(), which would let one through
        fields = [*GLOBAL_FIELDS.values(), *(f for sc in SCHEMAS.values() for f in sc.values())]
        assert all(f.caster is not float for f in fields)
        keys = [(kind, key) for kind, schema in SCHEMAS.items()
                for key, fld in schema.items()
                if fld.caster is _as_float_list or (fld.caster is _as_float and "," not in raw)]
        assert ("exit-time", "exit.horizon") in keys or "," in raw
        for kind, key in keys:
            with pytest.raises(ValidationError) as err:
                parse_config(f"experiment = {kind}\n{key} = {raw}\n")
            assert err.value.key == key
            assert str(err.value).startswith(f"{key}: not a finite number")

    def test_hash_stable(self):
        a = parse_config(MINIMAL_SPECTRAL)
        b = parse_config(MINIMAL_SPECTRAL)
        assert a.content_hash() == b.content_hash()


class TestRunExperiment:
    @pytest.mark.parametrize("body, key, message", [
        # gaussian takes one amplitude; a second one was dropped unread
        ("steer.v.name = gaussian\nsteer.v.amplitude = 1.0, 5.0", "steer.v.amplitude",
         "a gaussian takes one amplitude, got 2"),
        ("steer.dimension = 2\nsteer.v.name = harmonic\nsteer.v.k = 1,2,3", "steer.v.k",
         "needs 1 or 2 values, got 3"),
    ], ids=["gaussian-amplitude", "harmonic-k"])
    def test_potential_coefficient_count_names_its_key(self, tmp_path, body, key, message):
        cfg = parse_config(f"experiment = steer\n{body}\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error_kind"] == "ValidationError"
        assert summary["error"] == f"{key}: {message}"

    def test_spectral_runner(self, tmp_path):
        cfg = parse_config(MINIMAL_SPECTRAL + f"out = {tmp_path}/spec\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "spec" / "summary.json").read_text())
        # (1-a)^{-1/2}·e^{b²/(4(1-a))+c} at the defaults a=-1, b=1, c=0
        assert summary["b00"] == pytest.approx(np.exp(0.125) / np.sqrt(2), abs=1e-10)
        assert summary["disc_invariant"] is True
        for name in ("coupling.csv", "gaps.csv", "connectivity.csv"):
            text = (tmp_path / "spec" / name).read_text()
            assert text.startswith("# config_hash=")

    def test_spectral_relation_floor_at_defaults(self, tmp_path):
        cfg = parse_config(f"experiment = spectral\nout = {tmp_path}/spec\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "spec" / "summary.json").read_text())
        gaps_csv = (tmp_path / "spec" / "gaps.csv").read_text().splitlines()[2:]
        gaps = np.array([float(row.split(",")[2]) for row in gaps_csv[:-1]])
        assert gaps.size == 11
        # B·Σ|g_i|/((B+1)^m − 1) with B = 50, m = 11
        assert summary["relation_floor"] == pytest.approx(
            50 * np.sum(gaps) / (51.0 ** 11 - 1), rel=1e-12)
        assert 1e-16 < summary["relation_floor"] < 3e-16
        assert summary["informative"] is False

    def test_steer_runner(self, tmp_path):
        cfg = parse_config(STEER_DEMO + f"out = {tmp_path}/steer\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "steer" / "summary.json").read_text())
        assert summary["loglog_slope"] >= 0.9
        assert (tmp_path / "steer" / "steer_sweep.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = parse_config(OBSTRUCTION_SMALL + f"out = {tmp_path}/{sub}\n")
            assert run_experiment(cfg) == 0
            texts.append((tmp_path / sub / "records.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_obstruction_hypothesis_violation_status(self, tmp_path):
        cfg = parse_config(OBSTRUCTION_BROKEN + f"out = {tmp_path}/broken\n")
        assert run_experiment(cfg) == 2
        summary = json.loads((tmp_path / "broken" / "summary.json").read_text())
        assert summary["error_kind"] == "HypothesisViolated"

    def test_exit_time_runner_small(self, tmp_path):
        cfg = parse_config(
            "experiment = exit-time\nseed = 2\nexit.ensemble = 20\n"
            "exit.horizon = 2.0\n" + f"out = {tmp_path}/exit\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "exit" / "summary.json").read_text())
        assert summary["bound_respected"] is True
        assert summary["analytic_bound"] == pytest.approx(np.sqrt(2.0), abs=1e-3)

    @pytest.mark.parametrize("p0", ["0.0,0.0", "1.5,0.0"])
    def test_exit_time_summary_spread(self, tmp_path, p0):
        # the benchmark's two exit-time configs at 12 controls: from rest no
        # member exits; from p0 = 1.5 all exit at asin(2/3), so their spread
        # is event-location noise, within EXIT_TIME_TOL
        cfg = parse_config(f"experiment = exit-time\nexit.ensemble = 12\nexit.p0 = {p0}\n"
                           + f"out = {tmp_path}/exit\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "exit" / "summary.json").read_text())
        assert summary["halving_allowed"] == 1e-5 * 3.0
        if p0 == "0.0,0.0":
            assert summary["ensemble_spread"] == 0.0
            assert summary["members_exited"] == 0
            assert summary["halving_drift"] == 0.0
        else:
            assert 0.0 <= summary["ensemble_spread"] <= EXIT_TIME_TOL
            assert summary["members_exited"] == 12
            assert 0.0 < summary["halving_drift"] <= summary["halving_allowed"]

    @pytest.mark.parametrize("size, p0, march_ticks", [
        (300, "0.0,0.0", 3004), (100, "1.5,0.0", 732)])
    def test_exit_time_summary_ticks(self, tmp_path, size, p0, march_ticks):
        # the benchmark's exit-time configs at seed 0: the ensemble stack
        # runs until the longest fine schedule ends (from rest) or the last
        # row leaves Ω (p0 = 1.5).  The comparison bound is closed form (√2
        # from rest, √4.25 − 1.5 from p0 = 1.5), so no other stack marches
        cfg = parse_config(f"experiment = exit-time\nseed = 0\nexit.ensemble = {size}\n"
                           f"exit.p0 = {p0}\nout = {tmp_path}/exit\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "exit" / "summary.json").read_text())
        assert summary["march_ticks"] == march_ticks
        assert "bound_ticks" not in summary

    def test_exit_time_bound_safe_on_a_wide_omega(self, tmp_path):
        # Ω = (−4, 4): |∂ₓV| = |x| reaches 4 there, so c = 1 alone is no
        # bound; x = −3.96 cos t + 1.5 sin t leaves through x = 4 at 2.445,
        # before the t = 2.763 that c = 1 would give
        cfg = parse_config("experiment = exit-time\nexit.ensemble = 5\nexit.omega = -4.0,4.0\n"
                           "exit.x0 = -3.96,0.0\nexit.p0 = 1.5,0.0\n"
                           + f"out = {tmp_path}/exit\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "exit" / "summary.json").read_text())
        assert summary["sampled_min_exit"] == pytest.approx(2.4451, abs=1e-4)
        assert summary["bound_respected"] is True
        assert summary["analytic_bound"] <= summary["sampled_min_exit"]

    @pytest.mark.parametrize("body", [
        "experiment = exit-time\nexit.p0 = 1.5,0.0\nexit.ensemble = 100\nexit.step = 10",
        "experiment = wkb\nwkb.step = 10",
    ], ids=["exit-time", "wkb"])
    def test_step_past_every_segment_refused(self, tmp_path, body):
        # a step so coarse that the halved pass takes the same steps cannot
        # fail the halving check, so it is refused, not reported as checked
        cfg = parse_config(f"{body}\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error_kind"] == "StepTooCoarse"
        assert "step halving checks nothing" in summary["error"]

    @pytest.mark.parametrize("line", ["exit.horizon = inf", "exit.amplitude = inf"])
    def test_cli_non_finite_exit_value_named(self, tmp_path, capsys, line):
        # refused while the config is read: no numpy traceback, no output
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(f"experiment = exit-time\n{line}\n")
        out = tmp_path / "out"
        assert cli_main(["exit-time", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {line.split(' =')[0]}: not a finite number: 'inf'" in err
        assert "Traceback" not in err and not out.exists()

    def test_wkb_runner(self, tmp_path):
        cfg = parse_config(
            "experiment = wkb\nwkb.s0.name = harmonic\nwkb.a0.name = gaussian\n"
            "wkb.a0.width = 0.25\nwkb.horizon = 0.4\nwkb.snapshot_t = 0.2\n"
            + f"out = {tmp_path}/wkb\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "wkb" / "summary.json").read_text())
        assert summary["jacobian_identity_max_rel_error"] < 1e-4
        for name in ("fan.csv", "field.csv", "conjugate_times.csv"):
            assert (tmp_path / "wkb" / name).exists()

    @pytest.mark.parametrize("asked, used", [(0.2002, 0.2), (0.2004, 0.2005), (9.0, 0.4)])
    def test_wkb_snapshot_snaps_to_a_fan_time(self, tmp_path, asked, used):
        # a snapshot between the fan's stored times (every 5e-4, the halved
        # step) or past its horizon takes the nearest stored time, which
        # summary.json reports
        cfg = parse_config(
            "experiment = wkb\nwkb.n_seeds = 64\nwkb.horizon = 0.4\n"
            f"wkb.snapshot_t = {asked}\nout = {tmp_path}\n")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["snapshot_t"] == pytest.approx(used, abs=1e-12)


class TestCLI:
    def test_cli_spectral_with_flags(self, tmp_path, capsys):
        # the model's coefficients come from the config file; the flag is --out
        cfg_path = tmp_path / "spec.cfg"
        cfg_path.write_text("experiment = spectral\nseed = 7\n"
                            "spectral.b = 0.0\nspectral.N = 6\n")
        status = cli_main(["spectral", "--config", str(cfg_path),
                           "--out", str(tmp_path / "out")])
        assert status == 0
        out = capsys.readouterr().out
        assert "b00" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["b01"] == pytest.approx(0.0, abs=1e-12)  # parity at b=0

    def test_cli_kind_mismatch(self, tmp_path):
        cfg_path = tmp_path / "spec.cfg"
        cfg_path.write_text(MINIMAL_SPECTRAL)
        assert cli_main(["steer", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("kind,body,key", [
        ("steer", "steer.maneuver = full-rank\nsteer.dimension = 2", "steer.x0"),
        ("steer", "steer.maneuver = full-rank\nsteer.dimension = 2\n"
                  "steer.x0 = 0.0, 0.0\nsteer.p0 = 0.0, 0.0", "steer.target"),
        ("exit-time", "exit.x0 = 0.0", "exit.x0"),
        ("exit-time", "exit.omega = 1.0", "exit.omega"),
        ("obstruction", "obstruction.omega_prime = 0.6", "obstruction.omega_prime"),
        ("exit-time", "exit.omega = -1,1,7", "exit.omega"),
        ("exit-time", "exit.x0 = 0,0,9", "exit.x0"),
        ("obstruction", "obstruction.omega_prime = -0.6,0.6,0.2", "obstruction.omega_prime"),
    ], ids=["steer-x0", "steer-target", "exit-x0", "exit-omega", "obstruction-omega_prime",
            "exit-omega-long", "exit-x0-long", "obstruction-omega_prime-long"])
    def test_cli_short_list_key_named(self, tmp_path, kind, body, key):
        # a list key with fewer or more entries than it needs ends in an
        # error record naming it; an extra entry is not dropped
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(f"experiment = {kind}\n{body}\n")
        out = tmp_path / "out"
        assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_kind"] == "ValidationError"
        assert summary["error"].startswith(f"{key}: needs")

    @pytest.mark.parametrize("kind, key", [("steer", "steer.eps_sweep"),
                                           ("obstruction", "obstruction.eps_grid")])
    def test_cli_empty_sweep_key_named(self, tmp_path, capsys, kind, key):
        # an empty sweep is refused while the config is read, before any output
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(f"experiment = {kind}\n{key} = ,\n")
        out = tmp_path / "out"
        assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"error: {key}: needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, line, message", [
        ("spectral", "spectral.N = 30", "need N ≤ N_big/2"),
        ("obstruction", "obstruction.omega_prime = -1.0,1.0", "compactly inside omega"),
        ("obstruction", "obstruction.eps_grid = 0.04,0.02", "positive and ascending"),
        ("exit-time", "exit.omega = 1,-1", "degenerate interval"),
        # two entries on one fan time would march the ensemble twice
        ("obstruction", "obstruction.eps_grid = 0.01,0.01\nobstruction.ensemble = 2",
         "snaps to the fan times [0.01, 0.01]"),
        ("obstruction", "obstruction.eps_grid = 0.0100,0.0101\nobstruction.ensemble = 2",
         "snaps to the fan times [0.0101, 0.0101]"),
    ], ids=["spectral-N", "obstruction-omega_prime", "obstruction-eps_grid", "exit-omega",
            "obstruction-eps_grid-repeated", "obstruction-eps_grid-snapped"])
    def test_cli_library_value_error_recorded(self, tmp_path, capsys, kind, line, message):
        # a library check that refuses the config's values ends, like any
        # SclabError, in exit 1 and an error record, not a traceback
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"experiment = {kind}\n{line}\n")
        out = tmp_path / "out"
        assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_kind"] == "ValueError"
        assert message in summary["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_cli_seed_override_checked(self, tmp_path, capsys):
        # --seed obeys the config's seed rule: refused before any output
        cfg_path = tmp_path / "spec.cfg"
        cfg_path.write_text(MINIMAL_SPECTRAL)
        out = tmp_path / "out"
        assert cli_main(["spectral", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "error: seed: value -1 out of range" in err and "Traceback" not in err
        assert not out.exists()

    def test_cli_missing_config(self):
        assert cli_main(["spectral", "--config", "/nonexistent.cfg"]) == 1

    def test_console_entry_point(self, tmp_path):
        cfg_path = tmp_path / "steer.cfg"
        cfg_path.write_text(STEER_DEMO)
        proc = subprocess.run(
            [sys.executable, "-m", "sclab.cli", "steer", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "exit status: 0" in proc.stdout
