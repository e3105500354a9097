"""Run configuration: JSON schema, validation and built-in presets.

A run is one family member (params + n), a sampling grid, a frame clock and a
set of requested outputs.  Preset clocks follow t_k = pi (k - 1)/500 for
k = 1..1001, i.e. 1001 frames spanning one full period [0, 2 pi]; preset
grids are 1024 points on [-12, 12]; presets pick mu0 = 1/|beta0| so exported
densities integrate to one.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .flows import OscillatorParams
from .hermite import N_MAX
from .states import MIN_GRID_POINTS

SCHEMA_VERSION = 1

OUTPUT_KINDS = ("position_density", "momentum_density", "moments", "wavefunction")

PRESET_NAMES = ("schrodinger", "example1", "example2", "example3", "minuncert")

# Upper bounds on a run's size.  At 8192 points, the verification battery's
# largest grid, `moments --check` holds one 8 MiB strip of the quadrature
# kernel and a few 32 MiB blocks of 256 frames, and spends seconds per 256
# frames building the kernel (N^2 complex exponentials each time) besides
# N^2 multiply-adds per frame.  Each frame is a row of `moments` or two CSV
# files of `evolve`; the frame cap is about a hundred preset clocks.
MAX_GRID_POINTS = 8192
MAX_FRAMES = 100_000


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigError("grid.x_min must be below grid.x_max")
        if not MIN_GRID_POINTS <= self.points <= MAX_GRID_POINTS:
            raise ConfigError(
                f"grid.points must be in [{MIN_GRID_POINTS}, {MAX_GRID_POINTS}]")


@dataclass(frozen=True)
class TimeSpec:
    t_start: float
    t_end: float
    frames: int

    def __post_init__(self):
        if not self.t_start <= self.t_end:
            raise ConfigError("time.t_start must not exceed time.t_end")
        if not 1 <= self.frames <= MAX_FRAMES:
            raise ConfigError(f"time.frames must be in [1, {MAX_FRAMES}]")

    def times(self):
        """Frame times; a single frame sits at t_start."""
        if self.frames == 1:
            return [self.t_start]
        step = (self.t_end - self.t_start) / (self.frames - 1)
        return [self.t_start + k * step for k in range(self.frames)]


@dataclass(frozen=True)
class RunConfig:
    params: OscillatorParams
    n: int
    grid: GridSpec
    time: TimeSpec
    outputs: tuple

    def __post_init__(self):
        if not (0 <= self.n <= N_MAX):
            raise ConfigError(f"n must be in [0, {N_MAX}]")
        bad = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if bad:
            raise ConfigError(f"unknown outputs {bad}; allowed: {OUTPUT_KINDS}")
        if not self.outputs:
            raise ConfigError("outputs must not be empty")

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "params": asdict(self.params),
            "n": self.n,
            "grid": asdict(self.grid),
            "time": asdict(self.time),
            "outputs": list(self.outputs),
        }


def _preset_params(name):
    third2 = 2.0 / 3.0
    if name == "schrodinger":
        return OscillatorParams(mu0=1.0, beta0=1.0)
    if name in ("example1", "example2"):
        return OscillatorParams(mu0=1.5, beta0=third2, delta0=1.0)
    if name == "example3":
        return OscillatorParams(mu0=1.5, beta0=third2, delta0=1.5)
    if name == "minuncert":
        beta0 = 0.64 ** 0.25
        return OscillatorParams(mu0=1.0 / beta0, alpha0=0.3, beta0=beta0)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def preset_config(name):
    """Built-in run configuration for one of the named presets."""
    params = _preset_params(name)
    outputs = ["position_density", "wavefunction"]
    if name == "example3":
        outputs.append("momentum_density")
    return RunConfig(
        params=params,
        n=1 if name == "example2" else 0,
        grid=GridSpec(-12.0, 12.0, 1024),
        time=TimeSpec(0.0, 2.0 * math.pi, 1001),
        outputs=tuple(outputs),
    )


_OPTIONAL_PARAMS = ("alpha0", "gamma0", "delta0", "eps0", "kappa0")
_TOP_KEYS = ("schema_version", "params", "n", "grid", "time", "outputs")


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"missing {where}{key!r}")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}{key!r} must be a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where}{key!r} must be a finite number")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}{key!r} must be an integer")
        return value
    return value


def _reject_unknown(mapping, allowed, where):
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}; "
                          f"allowed: {list(allowed)}")


def config_from_dict(raw):
    """Build and validate a RunConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    p = raw.get("params")
    if not isinstance(p, dict):
        raise ConfigError("missing 'params' object")
    _reject_unknown(p, [f.name for f in fields(OscillatorParams)], "params")
    p = {**dict.fromkeys(_OPTIONAL_PARAMS, 0.0), **p}
    try:
        params = OscillatorParams(**{
            f.name: _require(p, f.name, float, "params.")
            for f in fields(OscillatorParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    g = raw.get("grid", {})
    t = raw.get("time", {})
    if not isinstance(g, dict) or not isinstance(t, dict):
        raise ConfigError("'grid' and 'time' must be objects")
    _reject_unknown(g, [f.name for f in fields(GridSpec)], "grid")
    _reject_unknown(t, [f.name for f in fields(TimeSpec)], "time")
    grid = GridSpec(
        x_min=_require(g, "x_min", float, "grid."),
        x_max=_require(g, "x_max", float, "grid."),
        points=_require(g, "points", int, "grid."),
    )
    time = TimeSpec(
        t_start=_require(t, "t_start", float, "time."),
        t_end=_require(t, "t_end", float, "time."),
        frames=_require(t, "frames", int, "time."),
    )
    outputs = raw.get("outputs")
    if not isinstance(outputs, (list, tuple)):
        raise ConfigError("'outputs' must be a list")
    return RunConfig(
        params=params,
        n=_require(raw, "n", int, ""),
        grid=grid,
        time=time,
        outputs=tuple(outputs),
    )


def load_config(path):
    """Read a JSON config file."""
    try:
        with open(path, encoding="utf-8") as stream:
            raw = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse as JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to parse") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return config_from_dict(raw)
