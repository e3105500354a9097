import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import FunctionType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from dynosc import (ConfigError, DomainError, OscillatorParams,
                    PrecisionWarning, StateSpec, eval_momentum, eval_psi,
                    uniform_grid)
from dynosc import cli, pool
from dynosc import verification as ver
from dynosc.cli import main
from dynosc.config import (MAX_FRAMES, MAX_GRID_POINTS, OUTPUT_KINDS,
                           PRESET_NAMES, GridSpec, RunConfig, TimeSpec,
                           config_from_dict, load_config, preset_config)
from dynosc.csvtext import CsvText
from dynosc.hermite import N_MAX
from dynosc.states import MIN_GRID_POINTS

from conftest import EDGE_VALUES, assert_no_child_left, run_cli, texts

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_DIR = Path(__file__).parent / "golden"


def valid_config():
    return {
        "schema_version": 1,
        "params": {"mu0": 1.0, "alpha0": 0.0, "beta0": 1.0, "gamma0": 0.0,
                   "delta0": 0.0, "eps0": 0.0, "kappa0": 0.0},
        "n": 0,
        "grid": {"x_min": -10.0, "x_max": 10.0, "points": 64},
        "time": {"t_start": 0.0, "t_end": 1.0, "frames": 3},
        "outputs": ["position_density", "wavefunction"],
    }


# Every field of a valid config, as a key path.
CONFIG_FIELDS = [(key,) for key in valid_config()] + [
    (key, sub) for key, value in valid_config().items()
    if isinstance(value, dict) for sub in value]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.integers() | st.integers(min_value=2 ** 1000, max_value=2 ** 1100),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


LEFT_OUT = object()


def with_value(field, value):
    """A valid config with the field at key path `field` set to value, or
    without that field if value is LEFT_OUT."""
    raw = valid_config()
    *parents, key = field
    target = raw
    for parent in parents:
        target = target[parent]
    if value is LEFT_OUT:
        del target[key]
    else:
        target[key] = value
    return raw


# The one message that a config with one error in one place gets: a missing
# key, a non-number, a non-finite number, a non-integer (the number fields
# of params take any finite number), an unknown key in each section and a
# section that is not an object.
SINGLE_ERRORS = [
    (("params",), LEFT_OUT, "missing params.'mu0'"),
    (("params", "mu0"), LEFT_OUT, "missing params.'mu0'"),
    (("params", "beta0"), LEFT_OUT, "missing params.'beta0'"),
    (("params", "alpha0"), "0.5", "params.'alpha0' must be a number"),
    (("params", "kappa0"), True, "params.'kappa0' must be a number"),
    (("params", "mu0"), math.inf, "params.'mu0' must be a finite number"),
    (("params", "delta0"), math.nan, "params.'delta0' must be a finite number"),
    (("params", "gamma0"), 10 ** 400,
     "params.'gamma0' must be a finite number"),
    (("params", "mu_0"), 1.0,
     "unknown keys in params: ['mu_0']; allowed: ['mu0', 'alpha0', 'beta0', "
     "'gamma0', 'delta0', 'eps0', 'kappa0']"),
    (("grid",), 3, "grid must be a JSON object"),
    (("grid",), LEFT_OUT, "missing grid.'x_min'"),
    (("grid", "points"), LEFT_OUT, "missing grid.'points'"),
    (("grid", "x_max"), "10", "grid.'x_max' must be a number"),
    (("grid", "x_min"), math.nan, "grid.'x_min' must be a finite number"),
    (("grid", "points"), 64.0, "grid.'points' must be an integer"),
    (("grid", "points"), math.inf, "grid.'points' must be an integer"),
    (("grid", "step"), 0.1,
     "unknown keys in grid: ['step']; allowed: ['x_min', 'x_max', 'points']"),
    (("time",), [], "time must be a JSON object"),
    (("time", "t_start"), LEFT_OUT, "missing time.'t_start'"),
    (("time", "frames"), LEFT_OUT, "missing time.'frames'"),
    (("time", "t_end"), [1.0], "time.'t_end' must be a number"),
    (("time", "t_end"), -math.inf, "time.'t_end' must be a finite number"),
    (("time", "frames"), 3.0, "time.'frames' must be an integer"),
    (("time", "frames"), "3", "time.'frames' must be an integer"),
    (("time", "frame"), 3,
     "unknown keys in time: ['frame']; allowed: ['t_start', 't_end', "
     "'frames']"),
    (("n",), LEFT_OUT, "missing 'n'"),
    (("n",), "0", "'n' must be an integer"),
    (("n",), math.inf, "'n' must be an integer"),
    (("n",), 1.5, "'n' must be an integer"),
    (("n",), False, "'n' must be an integer"),
    (("colour",), "red",
     "unknown keys in config: ['colour']; allowed: ['schema_version', "
     "'params', 'n', 'grid', 'time', 'outputs']"),
    (("params",), [1.0], "params must be a JSON object"),
    (("grid",), "x", "grid must be a JSON object"),
]

FINITE = st.floats(min_value=-1e6, max_value=1e6)
VALID_CONFIGS = st.builds(
    RunConfig,
    params=st.builds(
        OscillatorParams, mu0=st.floats(min_value=1e-6, max_value=1e6),
        alpha0=FINITE, gamma0=FINITE, delta0=FINITE, eps0=FINITE,
        kappa0=FINITE,
        beta0=st.floats(min_value=1e-3, max_value=1e3)
        | st.floats(min_value=-1e3, max_value=-1e-3)),
    n=st.integers(min_value=0, max_value=N_MAX),
    grid=st.builds(
        lambda ends, points: GridSpec(*ends, points),
        st.lists(FINITE, min_size=2, max_size=2, unique=True).map(sorted),
        st.integers(min_value=MIN_GRID_POINTS, max_value=MAX_GRID_POINTS)),
    time=st.builds(
        lambda ends, frames: TimeSpec(*ends, frames),
        st.lists(FINITE, min_size=2, max_size=2).map(sorted),
        st.integers(min_value=1, max_value=MAX_FRAMES)),
    outputs=st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1,
                     max_size=4).map(tuple))


def write_config(tmp_path, **overrides):
    raw = valid_config()
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.params.mu0 == 1.0
        assert cfg.grid.points == 64
        assert cfg.time.frames == 3
        assert cfg.outputs == ("position_density", "wavefunction")

    def test_preset_clock_matches_animation_frames(self):
        cfg = preset_config("example1")
        times = cfg.time.times()
        assert len(times) == 1001
        # t = pi (T - 1) / 500 for T = 1..1001
        assert times[0] == 0.0
        assert times[250] == pytest.approx(math.pi / 2.0, abs=1e-14)
        assert times[1000] == pytest.approx(2.0 * math.pi, abs=1e-14)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_densities_are_normalized(self, name):
        cfg = preset_config(name)
        assert cfg.params.mu0 * abs(cfg.params.beta0) == pytest.approx(
            1.0, abs=1e-12)

    def test_example2_is_first_excited(self):
        assert preset_config("example2").n == 1
        assert preset_config("example1").n == 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("example9")

    @pytest.mark.parametrize("overrides,fragment", [
        ({"schema_version": 2}, "schema_version"),
        ({"params": {"beta0": 0.0}}, "beta0 must be nonzero"),
        ({"params": {"mu0": -1.0}}, "mu0 must be positive"),
        ({"grid": {"points": 8}}, "points"),
        ({"grid": {"x_min": 3.0, "x_max": -3.0}}, "x_min"),
        ({"time": {"frames": 0}}, "frames"),
        ({"outputs": ["density"]}, "unknown outputs"),
        ({"outputs": []}, "outputs"),
        ({"n": -1}, "n must be"),
        ({"params": {"alpha0": [1]}}, "alpha0' must be a number"),
        ({"params": {"gamma0": "1.5"}}, "gamma0' must be a number"),
        ({"params": {"kappa0": True}}, "kappa0' must be a number"),
        ({"params": {"mu0": 10 ** 400}}, "mu0' must be a finite number"),
        ({"time": {"t_end": math.inf}}, "t_end' must be a finite number"),
        ({"grid": {"x_max": math.nan}}, "x_max' must be a finite number"),
        ({"params": {"beta0": 1e-200}}, "finite nonzero fourth power"),
        ({"params": {"beta0": -1e100}}, "finite nonzero fourth power"),
        ({"colour": "red"}, "unknown keys in config"),
        ({"params": {"alpha_0": 0.5}}, "unknown keys in params"),
        ({"grid": {"point": 64}}, "unknown keys in grid"),
        ({"time": {"frame": 3}}, "unknown keys in time"),
        ({"grid": {"points": 8193}}, "points must be in"),
        ({"grid": {"points": 100_000}}, "points must be in"),
        ({"time": {"frames": 100_001}}, "frames must be in"),
    ])
    def test_validation_errors(self, tmp_path, overrides, fragment):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    def test_size_caps_admit_presets_and_largest_battery_grid(self):
        for name in PRESET_NAMES:
            cfg = preset_config(name)
            assert config_from_dict(cfg.to_dict()) == cfg
        raw = valid_config()
        raw["grid"]["points"] = MAX_GRID_POINTS
        raw["time"]["frames"] = MAX_FRAMES
        cfg = config_from_dict(raw)
        assert (cfg.grid.points, cfg.time.frames) == (8192, 100_000)

    @pytest.mark.parametrize("field,value,message", SINGLE_ERRORS)
    def test_single_error_message(self, field, value, message):
        with pytest.raises(ConfigError) as caught:
            config_from_dict(with_value(field, value))
        assert str(caught.value) == message

    def test_params_but_mu0_and_beta0_default_to_zero(self):
        raw = valid_config()
        raw["params"] = {"mu0": 1.0, "beta0": 1.0}
        assert config_from_dict(raw) == config_from_dict(valid_config())

    @given(cfg=VALID_CONFIGS)
    def test_to_dict_round_trips_through_json(self, cfg):
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_config_from_dict_requires_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    @given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
    def test_any_value_in_any_field_is_config_or_config_error(self, field,
                                                               value):
        try:
            assert isinstance(config_from_dict(with_value(field, value)),
                              RunConfig)
        except ConfigError:
            pass

    @given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
    def test_any_value_in_any_field_exits_0_or_2(self, field, value):
        # Without --check a moments table stays cheap, even at MAX_FRAMES.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(with_value(field, value)))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["moments", "--config", str(path)])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("config error:")

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 200_000)
        assert main(["moments", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestMomentsCommand:
    def test_schrodinger_n3_variances(self, tmp_path, capsys):
        path = write_config(tmp_path, n=3,
                            time={"t_start": 0.0, "t_end": 5.0, "frames": 6})
        assert main(["moments", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,mean_x,mean_p,var_x,var_p,product,energy"
        for line in lines[1:]:
            cells = [float(v) for v in line.split(",")]
            assert cells[3] == pytest.approx(3.5, abs=1e-12)
            assert cells[4] == pytest.approx(3.5, abs=1e-12)

    def test_example1_energy_column_constant(self, capsys):
        assert main(["moments", "--preset", "example1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        energies = {float(line.split(",")[6]) for line in lines[1:]}
        assert all(abs(e - 0.5) < 1e-12 for e in energies)

    def test_minuncert_product_at_quarter_pi(self, tmp_path, capsys):
        beta0 = 0.64 ** 0.25
        path = write_config(
            tmp_path,
            params={"mu0": 1.0 / beta0, "alpha0": 0.3, "beta0": beta0},
            time={"t_start": math.pi / 4.0, "t_end": math.pi / 4.0,
                  "frames": 1})
        assert main(["moments", "--config", str(path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        product = float(line.split(",")[5])
        assert product == pytest.approx(0.25, abs=1e-12)

    def test_check_flag_appends_small_errors(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.0},
            grid={"x_min": -14.0, "x_max": 14.0, "points": 1024},
            time={"t_start": 0.0, "t_end": 2.0, "frames": 3})
        assert main(["moments", "--config", str(path), "--check"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("err_mean_x,err_mean_p,err_var_x,err_var_p")
        for line in lines[1:]:
            errors = [float(v) for v in line.split(",")[7:]]
            assert all(e < 1e-7 for e in errors)

    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["moments"])
        assert caught.value.code == 2
        assert capsys.readouterr().err.endswith(
            "dynosc moments: error: one of the arguments --config --preset "
            "is required\n")

    def test_rejects_both_sources(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["moments", "--config", "", "--preset", "example3"])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "dynosc moments: error: argument --preset: not allowed with "
            "argument --config\n")


@pytest.mark.parametrize("command,group", [
    ("evolve", "(--config PATH | --preset"),
    ("moments", "(--config PATH | --preset"),
    ("verify", "[--config PATH | --preset")])
def test_usage_shows_the_source_group(command, group, capsys):
    # Round brackets: exactly one source is required; square: at most one.
    with pytest.raises(SystemExit) as caught:
        main([command, "-h"])
    assert caught.value.code == 0
    assert group in capsys.readouterr().out


def load_gates():
    """tools/gates.py, loaded from its path: tools is not a package."""
    spec = importlib.util.spec_from_file_location(
        "gates", SRC.parent / "tools" / "gates.py")
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


GATES = load_gates()


@pytest.mark.parametrize("argv", GATES.GATES, ids=" ".join)
def test_parser_accepts_every_gated_command(argv):
    # Each gate's arguments, evolve's `--out` included, as tools/gates.py
    # runs them: a CLI change that breaks a gate fails here, in process.
    args = cli.build_parser().parse_args(GATES.command(argv, "out"))
    assert args.command == argv[0]


# Runs cli.main on its arguments, output discarded, then prints its exit code
# and which of dynosc.verification and dynosc.csvtext it loaded.
FOOTPRINT = """
import contextlib, io, sys
from dynosc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(name for name in ("dynosc.verification", "dynosc.csvtext")
              if name in sys.modules))
"""


def loaded_modules(argv, cwd):
    """The exit code and the footprint modules that `dynosc argv` loads, in a
    fresh process, since this one has imported every module."""
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], cwd=cwd,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))})
    assert run.stderr == ""
    code, *modules = run.stdout.split()
    return int(code), modules


class TestImportFootprint:
    """Each command compiles only the modules it uses."""

    def test_moments_check_loads_neither_battery_nor_formatter(self, tmp_path):
        assert loaded_modules(["moments", "--preset", "example3", "--check"],
                              tmp_path) == (0, [])

    def test_evolve_does_not_load_the_battery(self, tmp_path):
        path = write_config(tmp_path, outputs=["position_density", "moments"])
        code, modules = loaded_modules(
            ["evolve", "--config", str(path), "--out", "out"], tmp_path)
        assert code == 0 and "dynosc.verification" not in modules
        assert (tmp_path / "out" / "manifest.json").is_file()


class TestEvolveCommand:
    def test_deterministic_output(self, tmp_path):
        path = write_config(tmp_path, grid={"points": 64})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(path), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_lists_every_file_with_hash(self, tmp_path):
        path = write_config(
            tmp_path,
            params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            outputs=["position_density", "momentum_density", "moments"])
        out = tmp_path / "frames"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["config_echo"]["params"]["delta0"] == 1.5
        listed = {entry["file"] for entry in manifest["frames"]}
        listed.add(manifest["moments_file"]["file"])
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        for entry in manifest["frames"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        # 3 frames x 2 representations
        assert len(manifest["frames"]) == 6

    def test_frame_csv_contract(self, tmp_path):
        path = write_config(tmp_path, grid={"points": 64},
                            outputs=["position_density", "momentum_density"])
        out = tmp_path / "frames"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        pos = (out / "position_0001.csv").read_bytes()
        assert b"\r" not in pos
        text = pos.decode("ascii").splitlines()
        assert text[0] == "x,density,re_psi,im_psi"
        assert len(text) == 1 + 64
        first = text[1].split(",")
        assert float(first[0]) == -10.0
        mom = (out / "momentum_0001.csv").read_text().splitlines()
        assert mom[0] == "p,density,re_a,im_a"

    def test_example3_exported_variances(self, tmp_path):
        # Paired frames: position variance (97 + 65 cos 2t)/144, momentum
        # variance (97 - 65 cos 2t)/144, recovered from the emitted CSVs.
        path = write_config(
            tmp_path,
            params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            grid={"x_min": -12.0, "x_max": 12.0, "points": 1024},
            time={"t_start": 0.4, "t_end": 0.4, "frames": 1},
            outputs=["position_density", "momentum_density"])
        out = tmp_path / "frames"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0

        def csv_variance(name):
            rows = (out / name).read_text().splitlines()[1:]
            data = np.array([[float(v) for v in r.split(",")] for r in rows])
            grid, density = data[:, 0], data[:, 1]
            total = np.trapezoid(density, grid)
            mean = np.trapezoid(grid * density, grid) / total
            return np.trapezoid((grid - mean) ** 2 * density, grid) / total

        t = 0.4
        assert csv_variance("position_0001.csv") == pytest.approx(
            (97.0 + 65.0 * math.cos(2 * t)) / 144.0, abs=1e-10)
        assert csv_variance("momentum_0001.csv") == pytest.approx(
            (97.0 - 65.0 * math.cos(2 * t)) / 144.0, abs=1e-10)

    def test_unwritable_directory_is_io_error(self, tmp_path):
        path = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        out = blocker / "sub"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3

    def test_needs_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["evolve", "--out", str(tmp_path / "x")])
        assert caught.value.code == 2
        assert capsys.readouterr().err.endswith(
            "dynosc evolve: error: one of the arguments --config --preset "
            "is required\n")
        assert not (tmp_path / "x").exists()

    def test_failed_run_leaves_no_files(self, tmp_path, capsys):
        # The moment table fails, its variances cancel to zero, before any
        # frame is written.
        path = write_config(tmp_path, params={"alpha0": 1e9},
                            outputs=["position_density", "moments"])
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("overrides", [
        {"params": {"alpha0": 1e9}}, {"params": {"delta0": 1e200}},
        {"grid": {"x_min": -12.0, "x_max": -11.999999999999}}],
        ids=["alpha0=1e9", "delta0=1e200", "grid"])
    def test_rejected_config_keeps_the_earlier_run(self, tmp_path, capsys,
                                                    overrides):
        out = tmp_path / "out"
        example1 = {"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.0}
        good = write_config(tmp_path, params=example1,
                            outputs=["position_density", "moments"])
        assert main(["evolve", "--config", str(good), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in earlier and "moments.csv" in earlier
        bad = write_config(tmp_path, outputs=["position_density", "moments"],
                           **overrides)
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_frame_keeps_the_earlier_run(self, tmp_path, capsys):
        # t = 1e308 passes the config checks but not the frame evaluation
        # ("amplitudes must be finite"): the frames are all staged before
        # anything of the earlier run is touched.
        out = tmp_path / "out"
        good = write_config(tmp_path, outputs=["position_density", "moments"])
        assert main(["evolve", "--config", str(good), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(earlier) == 3 + 2
        bad = write_config(tmp_path, time={"t_start": 1e308, "t_end": 1e308,
                                           "frames": 1})
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        assert "amplitudes must be finite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_write_leaves_no_files(self, tmp_path, capsys):
        # An earlier one-frame run leaves its files and manifest; a directory
        # it did not write blocks this run's 2nd frame.  The failed run
        # leaves none of its own files, and the earlier run's are gone.
        out = tmp_path / "out"
        one_frame = write_config(tmp_path, time={"frames": 1})
        assert main(["evolve", "--config", str(one_frame), "--out", str(out)]) == 0
        (out / "position_0002.csv").mkdir()
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: [Errno {errno.EISDIR}] ")
        assert err.count("\n") == 1 and err.endswith("position_0002.csv'\n")
        assert sorted(p.name for p in out.iterdir()) == ["position_0002.csv"]

    def test_reused_directory_drops_stale_frames(self, tmp_path):
        out = tmp_path / "out"
        five = write_config(tmp_path, time={"frames": 5},
                            outputs=["position_density", "momentum_density",
                                     "moments"])
        assert main(["evolve", "--config", str(five), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        two = write_config(tmp_path, time={"frames": 2})
        assert main(["evolve", "--config", str(two), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "position_0001.csv",
            "position_0002.csv"]
        assert [e["file"] for e in manifest["frames"]] == [
            "position_0001.csv", "position_0002.csv"]
        assert (out / "notes.txt").read_text() == "kept"

    def test_killed_runs_stage_does_not_block_the_directory(self, tmp_path):
        # A killed run leaves its staging directory and no manifest.json;
        # a later run publishes beside it and leaves it as it is.
        out = tmp_path / "out"
        (out / ".evolve-dead").mkdir(parents=True)
        (out / ".evolve-dead" / "position_0001.csv").write_text("partial")
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [".evolve-dead", "manifest.json",
             *(entry["file"] for entry in manifest["frames"])])
        assert [p.name for p in (out / ".evolve-dead").iterdir()] == [
            "position_0001.csv"]

    def test_stage_beside_a_foreign_file_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / ".evolve-dead").mkdir(parents=True)
        (out / "notes.txt").write_text("mine")
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        assert "no readable manifest.json" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [".evolve-dead",
                                                         "notes.txt"]
        assert (out / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize("manifest", [None, "not json", "[]",
                                          '{"frames": [{"name": 1}]}'])
    def test_foreign_directory_is_refused_and_left_alone(self, tmp_path, capsys,
                                                         manifest):
        out = tmp_path / "out"
        out.mkdir()
        foreign = {"position_0001.csv": b"mine", "notes.txt": b"also mine"}
        if manifest is not None:
            foreign["manifest.json"] = manifest.encode()
        for name, data in foreign.items():
            (out / name).write_bytes(data)
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        assert "no readable manifest.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == foreign

    def test_removes_only_listed_names_it_writes(self, tmp_path):
        # A manifest that lists other names (edited by hand, say) removes
        # none of them: only evolve's own file names, without a separator.
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        kept = ["notes.txt", "sub/position_0001.csv", "../outside.csv",
                "position_1.csv", "moments.csv.bak"]
        for name in kept:
            (out / name).write_text("foreign")
        (out / "position_0009.csv").write_text("listed")
        (out / "manifest.json").write_text(json.dumps({"frames": [
            {"file": name} for name in [*kept, "position_0009.csv"]]}))
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        for name in kept:
            assert (out / name).read_text() == "foreign"
        assert not (out / "position_0009.csv").exists()
        assert (out / "position_0001.csv").exists()

    def test_failed_replace_leaves_no_files(self, tmp_path, capsys,
                                            monkeypatch):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "I/O error: disk full\n"
        assert Path(calls[1]).name == "position_0002.csv"
        assert list(out.iterdir()) == []

    def test_unwritable_stage_is_io_error(self, tmp_path, capsys,
                                          monkeypatch):
        # The staging directory cannot be made.  Root ignores chmod, so a
        # patch refuses it.
        out = tmp_path / "out"
        path = write_config(tmp_path)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "I/O error: [Errno 13] Permission denied\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    @pytest.mark.parametrize("cores", [1, 2])
    def test_refusal_is_one_io_error_line(self, tmp_path, capsys, monkeypatch,
                                          cores):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        path = write_config(tmp_path)
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"I/O error: output directory {out} is not empty and holds no "
            "readable manifest.json; evolve reuses only a directory it wrote\n")
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_run_published_meanwhile_is_replaced_whole(self, tmp_path,
                                                        monkeypatch):
        # out holds a 2-frame run.  A 5-frame run starts and publishes while
        # a second 2-frame run writes its first frame; the 2-frame run then
        # removes the 5-frame run that it finds when it publishes.
        out = tmp_path / "out"
        paths = {}
        for frames in (2, 5):
            (tmp_path / str(frames)).mkdir()
            paths[frames] = write_config(tmp_path / str(frames),
                                         time={"frames": frames})
        argv = {frames: ["evolve", "--config", str(path), "--out", str(out)]
                for frames, path in paths.items()}
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        assert main(argv[2]) == 0
        write, started, inner_exits = cli._write, [], []

        def write_then_start_a_longer_run(target, data):
            if not started:
                started.append(target)
                inner_exits.append(main(argv[5]))
            return write(target, data)

        monkeypatch.setattr(cli, "_write", write_then_start_a_longer_run)
        assert main(argv[2]) == 0
        assert inner_exits == [0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "position_0001.csv", "position_0002.csv"]
        assert [entry["file"] for entry in manifest["frames"]] == [
            "position_0001.csv", "position_0002.csv"]

    def test_overlapping_runs_end_whole(self, tmp_path, monkeypatch):
        # A second run starts into --out, which holds a finished run, while
        # the first is writing its frames.  Each run stages its own files,
        # so both end whole and the last one to publish stays.
        out = tmp_path / "out"
        path = write_config(tmp_path, outputs=["position_density", "moments"])
        argv = ["evolve", "--config", str(path), "--out", str(out)]
        assert main(argv) == 0
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        write, calls, inner_exits = cli._write, [], []

        def write_then_start_a_second_run(target, data):
            digest = write(target, data)
            calls.append(target)
            if len(calls) == 1:
                inner_exits.append(main(argv))
            return digest

        monkeypatch.setattr(cli, "_write", write_then_start_a_second_run)
        assert main(argv) == 0
        assert inner_exits == [0]
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [*manifest["frames"], manifest["moments_file"]]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [entry["file"] for entry in listed] + ["manifest.json"])
        for entry in listed:
            digest = hashlib.sha256((out / entry["file"]).read_bytes())
            assert digest.hexdigest() == entry["sha256"]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the worker pool needs os.fork")


@needs_fork
class TestEvolvePool:
    """evolve on forked workers writes what the serial loop writes."""

    def pool_config(self, tmp_path):
        # 20 frames x 2 representations: six jobs, two of them short.
        return write_config(
            tmp_path, params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            grid={"points": 1024},
            time={"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": 20},
            outputs=["position_density", "momentum_density", "moments"])

    def test_pool_and_serial_bytes_equal(self, tmp_path, monkeypatch):
        path = self.pool_config(tmp_path)
        build_packet = cli.build_packet
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "build_packet", in_worker(build_packet))
        pooled = tmp_path / "pool"
        assert main(["evolve", "--config", str(path), "--out", str(pooled)]) == 0
        assert_no_child_left()
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        monkeypatch.setattr(cli, "build_packet", build_packet)
        serial = tmp_path / "serial"
        assert main(["evolve", "--config", str(path), "--out", str(serial)]) == 0
        names = sorted(p.name for p in serial.iterdir())
        assert len(names) == 2 * 20 + 2
        assert names == sorted(p.name for p in pooled.iterdir())
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()

    @pytest.mark.parametrize("points,files", [(64, 128), (1024, 16), (64, 2)])
    def test_frames_format_in_workers(self, tmp_path, monkeypatch, points,
                                      files):
        # Two jobs or more go to the workers, however small: down to one
        # 64-point frame in each representation.  The parent neither
        # evaluates nor formats a frame.
        path = write_config(tmp_path, grid={"points": points},
                            time={"t_start": 0.0, "t_end": 1.0,
                                  "frames": files // 2},
                            outputs=["position_density", "momentum_density"])
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        for name in ("build_packet", "_frame_table"):
            monkeypatch.setattr(cli, name, in_worker(getattr(cli, name)))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == files + 1
        assert_no_child_left()

    def test_worker_error_exits_2_and_leaves_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        # The failed run leaves none of its own files, its staging directory
        # included, and the earlier run in the directory stays as it was.
        out = tmp_path / "out"
        earlier_config = write_config(tmp_path, time={"frames": 2})
        assert main(["evolve", "--config", str(earlier_config),
                     "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        path = self.pool_config(tmp_path)
        build_packet = cli.build_packet

        def fails_late(spec, grid, times, representation):
            if np.max(times) > 3.0:
                raise DomainError(f"t > 3 in process {os.getpid()}")
            return build_packet(spec, grid, times, representation)

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "build_packet", fails_late)  # fork carries it
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        raised_in = re.search(r"config error: t > 3 in process (\d+)", err)
        assert int(raised_in.group(1)) != os.getpid()  # raised in a worker
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2], ids=["serial", "pooled"])
    def test_timings_leave_the_output_alone(self, tmp_path, capsys,
                                            monkeypatch, cores):
        # --timings adds one stderr line, the job count and the seconds of
        # each step summed over jobs; stdout, frames and manifest stay.
        path = self.pool_config(tmp_path)
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        runs = []
        for flag in ([], ["--timings"]):
            out = tmp_path / f"out{len(runs)}"
            assert main(["evolve", "--config", str(path), "--out", str(out),
                         *flag]) == 0
            captured = capsys.readouterr()
            runs.append((captured.out.replace(str(out), "OUT"), captured.err,
                         {p.name: p.read_bytes() for p in out.iterdir()}))
        (out, err, files), (timed_out, timed_err, timed_files) = runs
        assert (timed_out, timed_files) == (out, files)
        assert err == ""
        line = re.fullmatch(r"timings: (\d+) job\(s\), evaluate (\S+) s, "
                            r"format (\S+) s, write (\S+) s "
                            r"\(summed over jobs\)\n", timed_err)
        assert int(line.group(1)) == 2 * -(-20 // cli.FRAME_BLOCK)
        assert all(float(line.group(k)) > 0 for k in (2, 3, 4))
        assert_no_child_left()

    @pytest.mark.parametrize("points,frames", [(1024, 13), (8192, 2)])
    def test_blocks_equal_per_value_repr(self, tmp_path, monkeypatch, points,
                                         frames):
        # 13 frames are two jobs per representation, one of them short; a
        # frame of 8,192 points (the grid cap) spans several chunks.
        path = write_config(
            tmp_path, params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            grid={"x_min": -12.0, "x_max": 12.0, "points": points},
            time={"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": frames},
            outputs=["position_density", "momentum_density"])
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert_no_child_left()
        assert_frames_equal_reference(out, load_config(path))


def swap_functions(monkeypatch, module, replace):
    """Put replace[fn] in place of fn at every module attribute, and in every
    (label, fn) entry of CRITERIA, as a fork carries them."""
    for name, value in list(vars(module).items()):
        if isinstance(value, FunctionType) and value in replace:
            monkeypatch.setattr(module, name, replace[value])
    monkeypatch.setattr(module, "CRITERIA", tuple(
        (label, replace.get(fn, fn)) for label, fn in module.CRITERIA))


def in_worker(fn):
    """fn, which fails when it runs in this process."""
    parent = os.getpid()

    def run(*args):
        assert os.getpid() != parent, f"{fn.__name__} ran in the parent"
        return fn(*args)
    return run


def measured_in_workers(monkeypatch):
    """Make every verify job fail when it runs in this process."""
    jobs = [fn for _, fn in ver.CRITERIA]
    jobs += [ver._scoped_leading_rows, ver._scoped_trailing_rows]
    swap_functions(monkeypatch, ver, {fn: in_worker(fn) for fn in jobs})


class TestJobOrder:
    def test_battery_runs_in_send_order(self, monkeypatch):
        # Run serially, the criteria run in the order in which they go to
        # the workers, and their groups come back in print order.
        ran = []

        def recording(label):
            def run(*args):
                ran.append(label.split()[0])
                return [label]
            return run

        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        swap_functions(monkeypatch, ver, {
            fn: recording(label) for label, fn in ver.CRITERIA})
        groups = ver.run_acceptance()
        assert ran == ["9", "2", "6", "3", "5", "1", "1s", "4", "10", "8",
                       "11", "7"]
        assert [label.split()[0] for label in groups] == [
            "1", "1s", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"]
        assert all(rows == [label] for label, rows in groups.items())


SCOPED_JOBS = ("_scoped_leading_rows", "independent_propagation",
               "_scoped_trailing_rows")


class TestScopedJobs:
    """A scoped verify is three jobs: the rows before the split-step row,
    criterion 9 on the one member alone, and the rows after it."""

    @pytest.mark.parametrize("cores", [1, 2])
    def test_jobs_go_out_and_come_back_in_print_order(self, monkeypatch,
                                                      cores):
        sent, ran = [], []
        ordered_map = ver.ordered_map

        def recording(name):
            def run(*args):
                ran.append(name)
                return [name]
            return run

        def sending(fn, jobs):
            sent.extend(job.func for job in jobs)
            return ordered_map(fn, jobs)

        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        monkeypatch.setattr(ver, "ordered_map", sending)
        swap_functions(monkeypatch, ver, {
            getattr(ver, name): recording(name) for name in SCOPED_JOBS})
        assert ver.scoped_checks(preset_config("example3")) == list(
            SCOPED_JOBS)
        assert sent == [getattr(ver, name) for name in SCOPED_JOBS]
        # Serially the jobs run here, in send order; pooled, none does.
        assert ran == (list(SCOPED_JOBS) if cores == 1 else [])
        assert_no_child_left()

    def test_split_step_job_is_one_row(self):
        (row,) = ver.independent_propagation({None: preset_config("example3")})
        assert row.name == "split_step_vs_closed_form" and row.passed

    @pytest.fixture(scope="class")
    def battery_rows(self):
        return {row.name: row for row in [*ver.family_exactness(),
                                          *ver.independent_propagation()]}

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_rows_equal_the_full_battery(self, battery_rows, preset):
        # The same criteria on the same member: the same floats, bit for bit.
        scoped = {row.name: row
                  for row in ver.scoped_checks(preset_config(preset))}
        pairs = [(f"pde_residual[n={n}]", f"pde_residual[{preset}, n={n}]")
                 for n in (0, 1, 2, 5)]
        pairs.append(("split_step_vs_closed_form",
                      f"split_step_vs_closed_form[{preset}]"))
        for mine, full in pairs:
            mine, full = scoped[mine], battery_rows[full]
            assert mine.value.hex() == full.value.hex()
            assert (mine.bound, mine.passed) == (full.bound, full.passed)

    @pytest.mark.parametrize("tau_convention,comoving", [
        (None, ["comoving_residual[minus_two_gamma]",
                "comoving_exactly_one_convention"]),
        ("minus_gamma", ["comoving_residual[minus_gamma]"]),
        ("minus_two_gamma", ["comoving_residual[minus_two_gamma]"])])
    def test_trailing_rows(self, tau_convention, comoving):
        rows = ver._scoped_trailing_rows(preset_config("example3"),
                                         tau_convention)
        assert [row.name for row in rows] == [
            *comoving, "normalization[1/(mu0 |beta0|)]"]


@needs_fork
class TestVerifyPool:
    """verify on forked workers prints what the serial run prints."""

    # Each full battery takes seconds, so one run pairs the negative
    # controls: beta0sq and the half-speed clock.
    @pytest.mark.parametrize("argv", [
        pytest.param([], marks=pytest.mark.slow),
        pytest.param(["--tau-convention", "minus_two_gamma"],
                     marks=pytest.mark.slow),
        pytest.param(["--tau-convention", "minus_gamma",
                      "--appendix-b-denominator", "beta0sq"],
                     marks=pytest.mark.slow),
        ["--preset", "example3"], ["--config", "n=3"]],
        ids=["bare", "minus_two_gamma", "minus_gamma_beta0sq", "example3",
             "config_n3"])
    def test_pool_and_serial_output_equal(self, tmp_path, capsys, monkeypatch,
                                          argv):
        if argv[:1] == ["--config"]:
            argv = ["--config", str(write_config(tmp_path, n=3))]
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        serial = main(["verify", *argv]), capsys.readouterr()
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        measured_in_workers(monkeypatch)
        pooled = main(["verify", *argv]), capsys.readouterr()
        assert_no_child_left()
        assert pooled[0] == serial[0]
        assert pooled[1].out == serial[1].out
        assert pooled[1].err == serial[1].err == ""

    def test_worker_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # The vanishing state raises DomainError in a scoped job.
        path = write_config(tmp_path, params={"beta0": 1e70},
                            grid={"points": 1024})
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        measured_in_workers(monkeypatch)
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: the state vanishes" in err
        assert "Traceback" not in err
        assert_no_child_left()

    def test_battery_worker_error_exits_2(self, capsys, monkeypatch):
        def fails(*args):
            raise DomainError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        first = ver.CRITERIA[0][1]
        swap_functions(monkeypatch, ver, {first: fails})
        assert main(["verify"]) == 2
        captured = capsys.readouterr()
        raised_in = re.search(r"config error: raised in process (\d+)",
                              captured.err)
        assert int(raised_in.group(1)) != os.getpid()
        assert captured.out == ""
        assert_no_child_left()


def reference_csv(header, columns):
    """CSV text formatted one value at a time, as repr(float(v))."""
    rows = [header] + [",".join(repr(float(v)) for v in row)
                       for row in zip(*columns)]
    return "\n".join(rows) + "\n"


def assert_same_text(got, want):
    # Line by line, so a mismatch reports one row, not a diff of megabytes.
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        assert a == b, f"line {k}"
    assert len(got_lines) == len(want_lines)


def finite_bit_patterns(count, seed):
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 64, size=count, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    edges = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    return np.concatenate([edges, values])


class TestExportBytes:
    """The bulk formatter writes the same bytes as repr(float(v)) per value."""

    def test_frame_rows_equal_per_value_repr(self):
        values = finite_bit_patterns(100_000, seed=6)
        columns = values[: values.size // 4 * 4].reshape(4, -1)
        header = "x,density,re_psi,im_psi"
        table = CsvText(columns.shape[1], 3, lead=columns[0])
        for shift in (0, 1):    # a second table through the same cells
            rolled = np.roll(columns[1:], shift, axis=1)
            [text] = texts(table, header, rolled[:, None])
            assert_same_text(text.decode("ascii"),
                             reference_csv(header, [columns[0], *rolled]))

    def test_moment_rows_equal_per_value_repr(self, tmp_path, monkeypatch):
        values = finite_bit_patterns(100_000, seed=7)
        frames = values.size // 6
        columns = values[: frames * 6].reshape(6, frames)
        names = ("mean_x", "mean_p", "var_x", "var_p", "product", "energy")
        monkeypatch.setattr(cli, "classical_moments", lambda params, n, t:
                            SimpleNamespace(**dict(zip(names, columns))))
        path = write_config(tmp_path, time={"t_start": -3.0, "t_end": 7.1,
                                            "frames": frames})
        config = load_config(path)
        header = "t,mean_x,mean_p,var_x,var_p,product,energy"
        assert_same_text(cli._moment_rows(config), reference_csv(
            header, [config.time.times(), *columns]))

    def test_evolve_bytes_and_manifest(self, tmp_path):
        path = write_config(
            tmp_path, params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            outputs=["position_density", "wavefunction", "momentum_density"])
        out = tmp_path / "frames"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert_frames_equal_reference(out, load_config(path))


def assert_frames_equal_reference(out, config):
    """Each frame file of an evolve run in out holds the per-value repr text
    of its frame, and the manifest lists every file in order with its hash."""
    spec = StateSpec(config.params, config.n)
    grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                        config.grid.points)
    expected = []
    for index, t in enumerate(config.time.times(), start=1):
        for prefix, evaluate, header in (
                ("position", eval_psi, "x,density,re_psi,im_psi"),
                ("momentum", eval_momentum, "p,density,re_a,im_a")):
            amplitudes = evaluate(spec, grid, t)
            text = reference_csv(header, (
                grid, np.abs(amplitudes) ** 2, amplitudes.real,
                amplitudes.imag))
            name = f"{prefix}_{index:04d}.csv"
            assert (out / name).read_bytes() == text.encode("ascii"), name
            expected.append({"index": index, "t": t, "file": name,
                             "sha256": hashlib.sha256(
                                 text.encode("ascii")).hexdigest()})
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["frames"] == expected
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [e["file"] for e in expected] + ["manifest.json"])


class TestVerifyCommand:
    @pytest.mark.parametrize("source", ["preset", "config_n3"])
    def test_schrodinger_preset_passes(self, tmp_path, capsys, source):
        if source == "preset":
            n, argv = 0, ["--preset", "schrodinger"]
        else:
            n, argv = 3, ["--config", str(write_config(tmp_path, n=3))]
        assert main(["verify", *argv]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        assert "FAIL" not in out
        rows = [re.sub(r" measured \S+,", "", line)
                for line in out.splitlines() if line.startswith("[")]
        assert rows == [
            *(f"[PASS] pde_residual[n={k}]: requires < 1e-06"
              for k in sorted({0, 1, 2, 5, n})),
            "[PASS] invariant_eigenvalue[n<=6]: requires < 1e-07",
            "[PASS] ladder_commutator: requires < 1e-07",
            "[PASS] momentum_map[n<=4]: requires < 1e-08",
            "[PASS] energy_constant: requires < 1e-12",
            "[PASS] split_step_vs_closed_form: requires < 1e-05",
            "[PASS] comoving_residual[minus_two_gamma]: requires < 1e-06",
            "[PASS] comoving_exactly_one_convention: "
            "requires exactly 1 passing convention",
            "[PASS] normalization[1/(mu0 |beta0|)]: requires < 1e-10",
        ]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, params={"beta0": 0.0})
        assert main(["verify", "--config", str(path)]) == 2
        assert "beta0 must be nonzero" in capsys.readouterr().err

    def test_empty_config_path_is_a_config_error(self, capsys):
        # An empty --config names no file; it does not select the full
        # battery.
        assert main(["verify", "--config", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot read config: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,overrides", [
        ("verify", {"grid": {"points": 100_000}}),
        ("moments", {"time": {"frames": 100_001}}),
    ], ids=["points", "frames"])
    def test_size_cap_exit_code(self, tmp_path, capsys, command, overrides):
        # Cheap without the cap too: verify --config samples its own grids,
        # and a moments table without --check is one closed-form row a frame.
        path = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(path)]) == 2
        assert "must be in" in capsys.readouterr().err

    def test_vanishing_state_exit_code(self, tmp_path, capsys):
        # Every sample underflows, so the residual reference norm is zero.
        path = write_config(tmp_path, params={"beta0": 1e70},
                            grid={"points": 1024})
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_vanishing_state_moments_check_exit_code(self, tmp_path, capsys):
        # The state sits at xi = x + 100: its density underflows to 0 on the
        # whole grid, so no quadrature moment exists.
        path = write_config(tmp_path, params={"eps0": 100.0},
                            grid={"x_min": -12.0, "x_max": 12.0},
                            time={"frames": 2})
        assert main(["moments", "--config", str(path), "--check"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error:" in err
        assert "Traceback" not in err

    def test_narrow_grid_moments_check_warns(self, tmp_path, capsys):
        # On [-3, 3] the ground state's boundary density is ~1e-4: the
        # transform still runs, with a PrecisionWarning, and the table prints.
        path = write_config(tmp_path, grid={"x_min": -3.0, "x_max": 3.0,
                                            "points": 256},
                            time={"frames": 40})
        with pytest.warns(PrecisionWarning, match="boundary density"):
            assert main(["moments", "--config", str(path), "--check"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].endswith(",err_var_p") and len(rows) == 41

    # moments --check on a narrow grid, and a scoped verify whose momentum
    # frames do not decay on the transform grid; in a fresh process, where
    # the warning prints, pooled and on one core.
    @pytest.mark.parametrize("argv,overrides,code,last", [
        (["moments", "--check"],
         {"grid": {"x_min": -3.0, "x_max": 3.0, "points": 256}}, 0, []),
        (["verify"], {"params": {"alpha0": 1e9}, "grid": {"points": 1024}},
         2, ["config error: variances must be positive"])],
        ids=["moments-check", "verify-config"])
    @pytest.mark.parametrize("one_core", [False, True],
                             ids=["pooled", "one-core"])
    def test_precision_warning_is_one_line(self, tmp_path, argv, overrides,
                                           code, last, one_core):
        path = write_config(tmp_path, **overrides)
        run = run_cli([*argv, "--config", str(path)], one_core=one_core)
        assert run.returncode == code
        assert run.stderr.splitlines() == [
            "warning: boundary density exceeds 1e-12; momentum samples lose "
            "accuracy", *last]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"schema_version": 1, "n": "\xff\xfe"}')
        assert main(["verify", "--config", str(path)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["verify", "--preset", "schrodinger"],
        ["moments", "--preset", "example3"]], ids=["verify", "moments"])
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_3_with_one_line(self, argv, unbuffered):
        # A buffered stdout still holds the text when main returns: the
        # interpreter's flush at exit must not fail on it again.
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "dynosc.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        assert done.returncode == 3
        assert done.stderr.startswith("I/O error: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_beta0sq_negative_control_fails(self, capsys):
        code = main(["verify", "--preset", "example3",
                     "--appendix-b-denominator", "beta0sq"])
        out = capsys.readouterr().out
        assert code == 1
        line = next(l for l in out.splitlines() if "momentum_map" in l)
        assert line.startswith("[FAIL]")
        measured = float(line.split("measured")[1].split(",")[0])
        assert measured > 1e-2

    def test_wrong_tau_convention_fails(self, capsys):
        code = main(["verify", "--preset", "schrodinger",
                     "--tau-convention", "minus_gamma"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] comoving_residual[minus_gamma]" in out

    def test_right_tau_convention_passes(self, capsys):
        code = main(["verify", "--preset", "schrodinger",
                     "--tau-convention", "minus_two_gamma"])
        assert code == 0


PRESETS = ("schrodinger", "example1", "example2", "example3", "minuncert")


def pinned_verify_lines():
    """Every line that bare `verify` prints, with the measured value dropped:
    12 headers, 94 rows and the summary, as pinned from the output of
    commit 63039d4."""
    def rows(names, bound, fail=()):
        return [f"[{'FAIL' if name in fail else 'PASS'}] {name}: requires {bound}"
                for name in names]

    randoms = [f"random{i}" for i in range(6)]
    residuals = [f"pde_residual[{p}, n={n}]" for p in PRESETS for n in (0, 1, 2, 5)]
    return [
        "== 1 family exactness ==",
        *rows(residuals, "< 1e-06",
              fail=[f"pde_residual[{p}, n=5]" for p in PRESETS[1:]]),
        "== 1s family exactness at refined resolution (supplementary) ==",
        *rows([f"pde_residual_refined[{p}, n=5]" for p in PRESETS], "< 1e-06"),
        "== 2 invariant spectrum ==",
        *rows([f"invariant_eigenvalue[{p}]" for p in PRESETS], "< 1e-07"),
        "== 3 ladder algebra ==",
        *rows([f"ladder_{kind}[{p}]" for p in PRESETS
               for kind in ("lowering", "raising")], "< 1e-06"),
        *rows(["ladder_commutator[gaussian frames]"], "< 1e-07"),
        "== 4 textbook limit ==",
        *rows(["textbook_pointwise[schrodinger, n<=6]",
               "textbook_variances_closed_form"], "< 1e-12"),
        *rows(["textbook_variances_quadrature"], "< 1e-08"),
        "== 5 uncertainty structure ==",
        *rows([f"uncertainty_floor[{p}]" for p in [*PRESETS, *randoms]]
              + ["minimum_uncertainty_product[minuncert, t=pi/4]"], "< 1e-09"),
        *rows(["minimum_uncertainty_condition[minuncert]"], "is true"),
        "== 6 momentum representation ==",
        *rows([f"momentum_map[{p}, n<=4]" for p in PRESETS], "< 1e-08"),
        *rows(["momentum_map_negative_control[example3, beta0sq]"], "> 0.01"),
        "== 7 animation reproduction ==",
        *rows(["example1_center_tracks_sin_t", "example1_width_squared"],
              "< 1e-12"),
        *rows(["example1_frame_peak_offset"], "< 0.0234604"),
        *rows(["example3_momentum_variance"], "< 1e-10"),
        "== 8 classical layer ==",
        *(line for p in [*PRESETS, *randoms[:3]]
          for line in rows([f"energy_constant[{p}]"], "< 1e-12")
          + rows([f"ehrenfest[{p}]"], "< 1e-08")),
        "== 9 independent propagation ==",
        *rows([f"split_step_vs_closed_form[{p}]" for p in PRESETS], "< 1e-05"),
        "== 10 comoving adjudication ==",
        *rows([f"comoving_residual[{c}, all presets]"
               for c in ("minus_two_gamma", "minus_gamma")], "reported"),
        *rows(["comoving_exactly_one_convention"],
              "exactly 1 passing convention"),
        *rows(["comoving_winner[minus_two_gamma]"], "< 1e-06"),
        "== 11 convergence orders ==",
        *rows(["spatial_refinement_ratio[4th order]"], "in [12, 20]"),
        *rows(["temporal_refinement_ratio[2nd order]"], "in [3.5, 4.5]"),
        "4 CHECK(S) FAILED",
    ]


class TestFullBattery:
    @pytest.mark.slow
    def test_bare_verify_reports_known_residual_floor(self, capsys):
        # The full battery is honest about the four pinned-resolution n=5
        # residual cases: they FAIL, the refined-resolution companions PASS,
        # everything else passes, and the command exits 1.  Every line name
        # and bound stays as pinned.
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        lines = [re.sub(r" measured \S+,", "", line) for line in out.splitlines()]
        pinned = pinned_verify_lines()
        assert sum(line.startswith("==") for line in pinned) == 12
        assert sum(line.startswith("[") for line in pinned) == 94
        assert lines == pinned


def overflow_repro(mu0, points):
    """A ground state with a tiny mu0, which once ended with NumPy warnings
    and inf or nan in the output instead of a config error."""
    raw = valid_config()
    raw["params"]["mu0"] = mu0
    raw["grid"] = {"x_min": -12.0, "x_max": 12.0, "points": points}
    raw["time"]["frames"] = 2
    raw["outputs"] = ["position_density", "momentum_density"]
    return raw


class TestUnrepresentableData:
    # Valid-looking data whose closed forms leave the float64 range: the
    # variances cancel to zero, a square overflows, the grid spacing cannot
    # be uniform, or the flow's 2 t overflows.
    @pytest.mark.parametrize("command,overrides", [
        *((cmd, {"params": p}) for cmd in ("moments", "evolve")
          for p in ({"alpha0": 1e9}, {"beta0": 1e70}, {"beta0": 1e-70})),
        *((cmd, {"params": p}) for cmd in ("moments", "evolve", "verify")
          for p in ({"delta0": 1e160}, {"delta0": 1e200}, {"eps0": 1e200})),
        ("evolve", {"grid": {"x_min": -12.0, "x_max": -11.999999999999}}),
        ("evolve", {"time": {"t_start": 1e308, "t_end": 1e308, "frames": 1}}),
        ("evolve", {"params": {"alpha0": 0.3},
                    "grid": {"x_min": -1e160, "x_max": 1e160}}),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(
        f"{k}={x}" for d in v.values() for k, x in d.items()))
    def test_config_error_exit_code(self, tmp_path, capsys, command,
                                    overrides):
        path = write_config(tmp_path, outputs=["position_density", "moments"],
                            **overrides)
        argv = [command, "--config", str(path)]
        if command == "evolve":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    # The config's own parameters are valid; those that momentum_params
    # derives from them at run time are not.
    @pytest.mark.parametrize("cores", [1, pytest.param(2, marks=needs_fork)])
    def test_invalid_derived_parameters_in_verify(self, tmp_path, capsys,
                                                  monkeypatch, cores):
        path = write_config(
            tmp_path, grid={"x_min": -12.0, "x_max": 12.0, "points": 1024},
            params={"mu0": 1.0, "alpha0": 1e150, "beta0": -2.911106085174323,
                    "eps0": 4.10339784049971})
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: beta0 must be nonzero, with a finite nonzero "
            "fourth power\n")
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, pytest.param(2, marks=needs_fork)])
    def test_invalid_derived_parameters_in_evolve(self, tmp_path, capsys,
                                                  monkeypatch, cores):
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        path = write_config(tmp_path, params={"mu0": 1e308,
                                              "beta0": 3.966407070053945},
                            grid={"x_min": -12.0, "x_max": 12.0},
                            time={"frames": 2},
                            outputs=["momentum_density"])
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: initial data must be finite real numbers\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert_no_child_left()

    # A tiny mu0 makes the density 1/mu0 overflow (5e-324), or the battery's
    # checks of the member (1e-308): float64 overflow, with no NumPy warning
    # and no inf or nan in any output.
    @pytest.mark.parametrize("cores", [1, pytest.param(2, marks=needs_fork)])
    @pytest.mark.parametrize("argv,mu0,points", [
        (["moments", "--check"], 5e-324, 64),
        (["evolve", "--out", "out"], 5e-324, 64),
        (["verify"], 5e-324, 64),
        (["verify"], 1e-308, 256),
    ], ids=["moments-check", "evolve", "verify", "verify-1e-308"])
    def test_float64_overflow_is_config_error(self, tmp_path, capsys,
                                              monkeypatch, cores, argv, mu0,
                                              points):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overflow_repro(mu0, points)))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: float64 overflow\n"
        assert not (tmp_path / "out").exists() or not any(
            (tmp_path / "out").iterdir())
        assert_no_child_left()

    def test_tiny_mu0_moments_without_check(self, tmp_path, capsys):
        # The closed-form moments do not depend on mu0.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overflow_repro(5e-324, 64)))
        assert main(["moments", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "nan" not in captured.out and "inf" not in captured.out
        assert captured.err == ""

    @staticmethod
    def run_fresh(tmp_path, argv, path):
        """The CLI in a fresh process, so that a NumPy warning would show on
        stderr."""
        return run_cli([*argv, "--config", str(path)], cwd=tmp_path)

    @pytest.mark.parametrize("argv", [["evolve", "--out", "out"],
                                      ["moments", "--check"]],
                             ids=["evolve", "moments-check"])
    def test_overflowing_grid_span(self, tmp_path, argv):
        # Each bound is a float64, but x_max - x_min overflows.
        path = write_config(tmp_path, grid={"x_min": -1e308, "x_max": 1e308})
        run = self.run_fresh(tmp_path, argv, path)
        assert run.returncode == 2
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "span" in lines[0]
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_grid_square(self, tmp_path):
        # x^2 overflows at the ends of [-1e200, 1e200], where e^{-x^2/2} is
        # exactly 0: the frames are written, and nothing warns.
        path = write_config(tmp_path, grid={"x_min": -1e200, "x_max": 1e200})
        run = self.run_fresh(tmp_path, ["evolve", "--out", "out"], path)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("wrote 3 frame file(s)")


# The CLI boundary: field values at the edges of float64 (signed zeros and
# subnormals, the smallest normal, huge and tiny powers of ten, the largest
# finite values, 2^53 and pi), mixed with ordinary values: one field in four
# is an edge value, so that most configs pass validation.
EDGE_FIELDS = [0.0, -0.0, 5e-324, -5e-324, 1e-308, 1e150, -1e150, 1e-150,
               -1e-150, 1e308, -1e308, 2.0 ** 53, math.pi, -math.pi]
FUZZ_FIELDS = st.integers(0, 3).flatmap(
    lambda k: st.floats(-4.0, 4.0) if k else st.sampled_from(EDGE_FIELDS))
FUZZ_CONFIGS = st.fixed_dictionaries({
    "schema_version": st.just(1),
    "params": st.fixed_dictionaries({
        # A negative mu0 is refused before any arithmetic.
        "mu0": FUZZ_FIELDS.map(abs),
        **{key: FUZZ_FIELDS for key in ("alpha0", "beta0", "gamma0",
                                        "delta0", "eps0", "kappa0")}}),
    "n": st.integers(0, 6),
    "grid": st.builds(
        lambda ends, points: {"x_min": ends[0], "x_max": ends[1],
                              "points": points},
        st.just((-1e200, 1e200)) | st.just((-12.0, 12.0))
        | st.tuples(FUZZ_FIELDS | st.floats(-20.0, 20.0),
                    FUZZ_FIELDS | st.floats(-20.0, 20.0)).map(sorted),
        st.integers(MIN_GRID_POINTS, 256)),
    "time": st.builds(
        lambda ends, frames: {"t_start": ends[0], "t_end": ends[1],
                              "frames": frames},
        st.tuples(FUZZ_FIELDS, FUZZ_FIELDS).map(sorted), st.integers(1, 3)),
    "outputs": st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1,
                        max_size=4, unique=True),
})


def in_process(argv):
    """main(argv) in this process on one core: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as patch,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        patch.setattr(pool, "_usable_cores", lambda: 1)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    """The CLI in a fresh process on every usable core."""
    run = run_cli(argv)
    return run.returncode, run.stdout, run.stderr


def assert_whole_run_or_nothing(out):
    """out holds a whole evolve run, every listed file with its hash, no
    nan or inf, and nothing else; or it does not exist or is empty."""
    if not out.exists() or not any(out.iterdir()):
        return
    manifest = json.loads((out / "manifest.json").read_text())
    listed = [*manifest["frames"], *filter(None, [manifest.get(
        "moments_file")])]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [entry["file"] for entry in listed] + ["manifest.json"])
    for entry in listed:
        data = (out / entry["file"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert b"nan" not in data and b"inf" not in data


@pytest.mark.slow
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=FUZZ_CONFIGS, fresh=st.integers(0, 9).map(lambda k: k == 9))
@example(raw=overflow_repro(5e-324, 64), fresh=True)
@example(raw=overflow_repro(1e-308, 256), fresh=True)
def test_cli_boundary(raw, fresh):
    """Every config ends with a documented exit code and at most one line
    that is not a warning, with no traceback or NumPy warning; an exit 0
    writes no nan or inf, and evolve leaves a whole run or nothing.  Each
    goes through the three commands in this process on one core; one in
    ten, and the two overflow repros, also in fresh pooled processes."""
    runners = [in_process, fresh_process] if fresh else [in_process]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        for k, run in enumerate(runners):
            out = Path(tmp) / f"out{k}"
            for argv in (["verify"], ["evolve", "--out", str(out)],
                         ["moments", "--check"]):
                code, stdout, stderr = run([*argv, "--config", str(path)])
                assert code in ({0, 1, 2, 3} if argv[0] == "verify"
                                else {0, 2, 3}), (argv, stderr)
                assert "Traceback" not in stderr
                assert "encountered" not in stderr
                others = [line for line in stderr.splitlines()
                          if not line.startswith("warning:")]
                assert len(others) <= 1, (argv, stderr)
                if code == 0 and argv[0] == "moments":
                    assert "nan" not in stdout and "inf" not in stdout
            assert_whole_run_or_nothing(out)


class TestGoldenFrames:
    @pytest.mark.slow
    def test_example1_golden_frames(self, tmp_path):
        out = tmp_path / "example1"
        assert main(["evolve", "--preset", "example1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        by_index = {e["index"]: e for e in manifest["frames"]}
        for index in (1, 251, 501):
            name = f"position_{index:04d}.csv"
            produced = (out / name).read_bytes()
            golden = (GOLDEN_DIR / name).read_bytes()
            assert produced == golden, f"frame {index} deviates from golden"
            assert by_index[index]["sha256"] == hashlib.sha256(golden).hexdigest()
