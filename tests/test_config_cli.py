import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import tempfile
from pathlib import Path
from types import FunctionType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynosc import (MOMENTUM, POSITION, ConfigError, DomainError,
                    PrecisionWarning, StateSpec, sample_frame, uniform_grid)
from dynosc import cli, pool
from dynosc import verification as ver
from dynosc.cli import main
from dynosc.config import (MAX_FRAMES, MAX_GRID_POINTS, PRESET_NAMES,
                           RunConfig, config_from_dict, load_config,
                           preset_config)
from dynosc.csvtext import CsvText

from conftest import EDGE_VALUES

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


def with_value(field, value):
    """A valid config with the field at key path `field` set to value."""
    raw = valid_config()
    *parents, key = field
    target = raw
    for parent in parents:
        target = target[parent]
    target[key] = value
    return raw


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
        assert main(["moments"]) == 2
        assert "config error" in capsys.readouterr().err


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

    def test_needs_source(self, tmp_path):
        assert main(["evolve", "--out", str(tmp_path / "x")]) == 2

    def test_failed_run_leaves_no_files(self, tmp_path, capsys):
        # The moment table fails, its variances cancel to zero, before any
        # frame is written.
        path = write_config(tmp_path, params={"alpha0": 1e9},
                            outputs=["position_density", "moments"])
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []
        assert not (out / "manifest.json").exists()

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
        # ("amplitudes must be finite"): the frames are all written to .tmp
        # files before anything of the earlier run is touched.
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
        assert "write failed" in capsys.readouterr().err
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
        assert "write failed" in capsys.readouterr().err
        assert Path(calls[1]).name == "position_0002.csv"
        assert list(out.iterdir()) == []


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool needs the fork start method")


@needs_fork
class TestEvolvePool:
    """evolve on forked workers writes what the serial loop writes."""

    def pool_config(self, tmp_path):
        # 20 frames x 2 representations x 1,024 points: enough work to start
        # the pool.
        return write_config(
            tmp_path, params={"mu0": 1.5, "beta0": 2.0 / 3.0, "delta0": 1.5},
            grid={"points": 1024},
            time={"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": 20},
            outputs=["position_density", "momentum_density", "moments"])

    def test_pool_and_serial_bytes_equal(self, tmp_path, monkeypatch):
        path = self.pool_config(tmp_path)
        assert 2 * 20 * 1024 >= cli.POOL_MIN_WORK
        parent, build_packet = os.getpid(), cli.build_packet

        def in_worker(*args):
            assert os.getpid() != parent, "frame built in the parent"
            return build_packet(*args)

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "build_packet", in_worker)
        pooled = tmp_path / "pool"
        assert main(["evolve", "--config", str(path), "--out", str(pooled)]) == 0
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
        monkeypatch.setattr(cli, "build_packet", build_packet)
        serial = tmp_path / "serial"
        assert main(["evolve", "--config", str(path), "--out", str(serial)]) == 0
        names = sorted(p.name for p in serial.iterdir())
        assert len(names) == 2 * 20 + 2
        assert names == sorted(p.name for p in pooled.iterdir())
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()

    @pytest.mark.parametrize("points,files,pooled", [
        (64, 128, False), (1024, 16, True)])
    def test_pool_starts_by_work(self, tmp_path, monkeypatch, points, files,
                                 pooled):
        # Files x points decides: many small frames stay in the parent.
        path = write_config(tmp_path, grid={"points": points},
                            time={"t_start": 0.0, "t_end": 1.0,
                                  "frames": files // 2},
                            outputs=["position_density", "momentum_density"])
        parent, build_packet = os.getpid(), cli.build_packet

        def where(*args):
            assert (os.getpid() != parent) == pooled, "frame built elsewhere"
            return build_packet(*args)

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "build_packet", where)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == files + 1
        assert multiprocessing.active_children() == []

    def test_worker_error_exits_2_and_leaves_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        # The failed run leaves none of its own files, .tmp ones included,
        # and the earlier run in the directory stays as it was.
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
        assert multiprocessing.active_children() == []

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
        assert multiprocessing.active_children() == []
        assert_frames_equal_reference(out, load_config(path))


def swap_functions(monkeypatch, module, replace):
    """Put replace[fn] in place of fn at every module attribute, and in every
    (label, fn) pair of CRITERIA and in JOB_ORDER, as a fork carries them."""
    for name, value in list(vars(module).items()):
        if isinstance(value, FunctionType) and value in replace:
            monkeypatch.setattr(module, name, replace[value])
    monkeypatch.setattr(module, "CRITERIA", tuple(
        (label, replace.get(fn, fn)) for label, fn in module.CRITERIA))
    monkeypatch.setattr(module, "JOB_ORDER", tuple(
        replace.get(fn, fn) for fn in module.JOB_ORDER))


def measured_in_workers(monkeypatch):
    """Make every verify job fail when it runs in this process."""
    parent = os.getpid()

    def in_worker(fn):
        def run(*args):
            assert os.getpid() != parent, f"{fn.__name__} ran in the parent"
            return fn(*args)
        return run

    jobs = [fn for _, fn in ver.CRITERIA]
    jobs += [ver._split_step_gaps, ver._scoped_measurements]
    swap_functions(monkeypatch, ver, {fn: in_worker(fn) for fn in jobs})


class TestJobOrder:
    def test_job_order_is_a_permutation_of_the_criteria(self):
        # A criterion missing from JOB_ORDER would never run, and
        # run_acceptance would die on its index instead of exiting.
        functions = [fn for _, fn in ver.CRITERIA]
        assert sorted(functions.index(fn) for fn in ver.JOB_ORDER) == list(
            range(len(ver.CRITERIA)))


@needs_fork
class TestVerifyPool:
    """verify on forked workers prints what the serial run prints."""

    # Each full battery takes seconds, so one run pairs the negative
    # controls: beta0sq and the half-speed clock.
    @pytest.mark.parametrize("argv", [
        [], ["--tau-convention", "minus_two_gamma"],
        ["--tau-convention", "minus_gamma",
         "--appendix-b-denominator", "beta0sq"],
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
        assert multiprocessing.active_children() == []
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
        assert multiprocessing.active_children() == []

    def test_battery_worker_error_exits_2(self, capsys, monkeypatch):
        def fails(*args):
            raise DomainError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        swap_functions(monkeypatch, ver, {ver.JOB_ORDER[0]: fails})
        assert main(["verify"]) == 2
        captured = capsys.readouterr()
        raised_in = re.search(r"config error: raised in process (\d+)",
                              captured.err)
        assert int(raised_in.group(1)) != os.getpid()
        assert captured.out == ""
        assert multiprocessing.active_children() == []


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
            [text] = table.texts(header, rolled[:, None])
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
        for prefix, representation, header in (
                ("position", POSITION, "x,density,re_psi,im_psi"),
                ("momentum", MOMENTUM, "p,density,re_a,im_a")):
            frame = sample_frame(spec, representation, grid, t)
            text = reference_csv(header, (
                frame.grid, frame.density(), frame.amplitudes.real,
                frame.amplitudes.imag))
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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"schema_version": 1, "n": "\xff\xfe"}')
        assert main(["verify", "--config", str(path)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

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
