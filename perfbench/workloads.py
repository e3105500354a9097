"""Workload inputs and output checks for the dynosc benchmark.

Nothing here imports dynosc: the inputs are written from the benchmark's own
copy of the preset table, and every expected value is computed here from the
closed forms of the paper's examples, so a defect in the program cannot hide
inside its own check.

Each seeded workload draws the global phases gamma0 and kappa0 of every
family member it generates uniformly from [-pi, pi].  Global phases leave
densities and moments unchanged, and residual ratios unchanged up to
roundoff, so the expected statuses and closed forms below hold for every seed
while the input bits vary.  `verify-full` takes no input and ignores the seed.
"""

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

PRESET_ORDER = ("schrodinger", "example1", "example2", "example3", "minuncert")

FRAMES = 1001            # preset clock: one period, t_k = pi (k - 1) / 500
# Reduced clocks over the same period.  An evolve rep of 101 frames (202
# CSVs) takes ~1.3 s, so a run holds a dozen or more reps and reports their
# median: one 2002-file rep per run spread 17-27% between runs on a 2-core
# shared host, against ~5% for the median of short reps.
EVOLVE_FRAMES = 101
MOMENTS_FRAMES = 101
SAMPLED_FRAMES = 16      # evolve frames whose physics is checked per rep

# Tolerances fixed before measuring; see README.md for the measured margins.
QUADRATURE_TOL = 1e-9    # evolve: norm, means, variances from the CSV columns
CLOSED_FORM_TOL = 1e-10  # moments: closed-form columns against the formulas
TIME_TOL = 1e-12         # frame times against the recomputed clock
ERR_COLUMN_MAX = 1e-8    # moments: every err_* column


def _preset_params(name):
    third2 = 2.0 / 3.0
    if name == "schrodinger":
        return {"mu0": 1.0, "beta0": 1.0}
    if name in ("example1", "example2"):
        return {"mu0": 1.5, "beta0": third2, "delta0": 1.0}
    if name == "example3":
        return {"mu0": 1.5, "beta0": third2, "delta0": 1.5}
    beta0 = 0.64 ** 0.25
    return {"mu0": 1.0 / beta0, "alpha0": 0.3, "beta0": beta0}


def member_config(name, rng, frames=FRAMES):
    """Config of one preset family member with seeded global phases."""
    params = {"mu0": 0.0, "alpha0": 0.0, "beta0": 1.0, "gamma0": 0.0,
              "delta0": 0.0, "eps0": 0.0, "kappa0": 0.0}
    params.update(_preset_params(name))
    params["gamma0"] = rng.uniform(-math.pi, math.pi)
    params["kappa0"] = rng.uniform(-math.pi, math.pi)
    outputs = ["position_density", "wavefunction"]
    if name == "example3":
        outputs.append("momentum_density")
    return {
        "schema_version": 1,
        "params": params,
        "n": 1 if name == "example2" else 0,
        "grid": {"x_min": -12.0, "x_max": 12.0, "points": 1024},
        "time": {"t_start": 0.0, "t_end": 2.0 * math.pi, "frames": frames},
        "outputs": outputs,
    }


def frame_times(config):
    """The program's frame clock, recomputed independently."""
    t = config["time"]
    if t["frames"] == 1:
        return [t["t_start"]]
    step = (t["t_end"] - t["t_start"]) / (t["frames"] - 1)
    return [t["t_start"] + k * step for k in range(t["frames"])]


def _write_config(path, config):
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return str(path)


# -- input generation ----------------------------------------------------------

def prepare(workload, seed, rep_dir, frames=None):
    """Write the inputs of one rep; return [(label, argv), ...] for cli.main.

    `frames` overrides the frame count (self-test only).
    """
    rng = random.Random(seed)
    rep_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify-full":
        return [("verify", ["verify"])]
    if workload == "verify-scoped":
        calls = []
        for name in PRESET_ORDER:
            cfg = _write_config(rep_dir / f"{name}.json", member_config(name, rng))
            calls.append((name, ["verify", "--config", cfg]))
        return calls
    if workload == "evolve-example3":
        cfg = _write_config(rep_dir / "example3.json",
                            member_config("example3", rng, frames or EVOLVE_FRAMES))
        out = rep_dir / "out"
        out.mkdir()
        return [("evolve", ["evolve", "--config", cfg, "--out", str(out)])]
    if workload == "moments-check":
        cfg = _write_config(rep_dir / "example3.json",
                            member_config("example3", rng, frames or MOMENTS_FRAMES))
        return [("moments", ["moments", "--config", cfg, "--check"])]
    raise ValueError(f"unknown workload {workload!r}")


# -- checks --------------------------------------------------------------------
#
# Every check returns a Verdict: outputs checked, outputs failed, the first
# few failure messages, and a digest of the outputs for byte-identity checks
# between reps, traced runs and commits.

class Verdict:
    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digest = None

    def output(self, ok, message):
        """Count one checked output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)


_STATUS = re.compile(r"^\[(PASS|FAIL)\] (.*): measured (\S+), requires (.*)$")


def status_skeleton(stdout):
    """Verify output with each measured value elided: headers, lines, summary."""
    lines = []
    for line in stdout.splitlines():
        m = _STATUS.match(line)
        if m:
            value = m.group(3)
            try:
                finite = math.isfinite(float(value))
            except ValueError:
                finite = False
            lines.append(f"[{m.group(1)}] {m.group(2)}: requires {m.group(4)}"
                         + ("" if finite else f" (value {value!r})"))
        else:
            lines.append(line)
    return lines


def _check_verify_call(verdict, call, expected):
    """One output per status line, plus one for headers, summary and exit code."""
    label = call["label"]
    got = status_skeleton(call["stdout"])
    want = expected["lines"]
    frame_ok = call["exit"] == expected["exit"]
    for k in range(max(len(got), len(want))):
        g = got[k] if k < len(got) else "<missing>"
        w = want[k] if k < len(want) else "<extra>"
        if g.startswith("[") or w.startswith("["):
            verdict.output(g == w, f"{label} line {k + 1}: got {g!r}, want {w!r}")
        elif g != w:
            frame_ok = False
    verdict.output(frame_ok, f"{label}: exit code {call['exit']} (want "
                             f"{expected['exit']}) or headers/summary differ")


def check_verify_full(calls):
    verdict = Verdict()
    _check_verify_call(verdict, calls[0], REFERENCE["verify-full"])
    red = sorted(line[len("[FAIL] "):].split(": requires")[0]
                 for line in status_skeleton(calls[0]["stdout"])
                 if line.startswith("[FAIL]"))
    known = sorted(f"pde_residual[{name}, n=5]"
                   for name in ("example1", "example2", "example3", "minuncert"))
    verdict.output(red == known, f"verify: FAIL lines {red}, want exactly {known}")
    verdict.digest = _digest_calls(calls)
    return verdict


def check_verify_scoped(calls):
    verdict = Verdict()
    for call in calls:
        _check_verify_call(verdict, call, REFERENCE["verify-scoped"][call["label"]])
    verdict.digest = _digest_calls(calls)
    return verdict


def _digest_calls(calls):
    h = hashlib.sha256()
    for call in calls:
        h.update(f"{call['label']}\0{call['exit']}\0".encode())
        h.update(call["stdout"].encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _example3_closed_forms(t):
    """<x>, <p>, var x, var p of example3 (n = 0) at time t."""
    c2 = math.cos(2.0 * t)
    return (1.5 * math.sin(t), 1.5 * math.cos(t),
            (97.0 + 65.0 * c2) / 144.0, (97.0 - 65.0 * c2) / 144.0)


def _quadrature(grid, density):
    dx = (grid[-1] - grid[0]) / (grid.size - 1)
    norm = np.trapezoid(density, dx=dx)
    mean = np.trapezoid(grid * density, dx=dx) / norm
    var = np.trapezoid(grid * grid * density, dx=dx) / norm - mean * mean
    return float(norm), float(mean), float(var)


def _check_frame(name, data, header, t, mean_want, var_want):
    """Physics of one exported frame; returns a failure message or None."""
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[0] != header:
        return f"{name}: header {lines[0]!r}, want {header!r}"
    try:
        data = np.array([[float(v) for v in row.split(",")] for row in lines[1:-1]])
    except ValueError as exc:
        return f"{name}: unparsable value ({exc})"
    if data.ndim != 2 or data.shape[1] != 4 or lines[-1] != "":
        return f"{name}: malformed table"
    grid, density, re_part, im_part = data.T
    if not np.allclose(density, re_part ** 2 + im_part ** 2, rtol=1e-12, atol=0.0):
        return f"{name}: density is not |amplitude|^2"
    norm, mean, var = _quadrature(grid, density)
    gaps = {"norm": abs(norm - 1.0), "mean": abs(mean - mean_want),
            "variance": abs(var - var_want)}
    bad = {k: v for k, v in gaps.items() if not v < QUADRATURE_TOL}
    if bad:
        return f"{name} (t={t!r}): errors {bad} above {QUADRATURE_TOL:g}"
    return None


def sampled_frames(seed, frames, count=SAMPLED_FRAMES):
    """Frame indices whose physics is checked: both ends plus a seeded draw."""
    if frames <= count:
        return list(range(1, frames + 1))
    rng = random.Random(f"frames-{seed}")
    inner = rng.sample(range(2, frames), count - 2)
    return sorted({1, frames, *inner})


def _near(value, want, tol):
    return isinstance(value, (int, float)) and abs(value - want) < tol


def _config_of(call):
    path = call["argv"][call["argv"].index("--config") + 1]
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_evolve(calls, seed):
    """One output per frame file: present, listed, hashed right, physics right."""
    verdict = Verdict()
    call = calls[0]
    times = frame_times(_config_of(call))
    out = Path(call["argv"][call["argv"].index("--out") + 1])
    expected = {}
    for index, t in enumerate(times, start=1):
        expected[f"position_{index:04d}.csv"] = (index, t)
        expected[f"momentum_{index:04d}.csv"] = (index, t)
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        entries = list(manifest["frames"])
        listed = {entry["file"]: entry for entry in entries}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        entries, listed = [], {}
        verdict.messages.append(f"evolve: no readable manifest ({exc})")
    verdict.output(call["exit"] == 0 and len(entries) == len(listed),
                   f"evolve: exit code {call['exit']}, want 0, "
                   f"and no file listed twice")
    on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    sampled = set(sampled_frames(seed, len(times)))
    for name in sorted(on_disk | set(expected) | set(listed)):
        verdict.output(*_check_frame_file(out, name, expected.get(name),
                                          listed.get(name), name in on_disk,
                                          sampled))
    h = hashlib.sha256()
    for entry in entries:
        h.update(f"{entry.get('file')}\0{entry.get('sha256')}\n".encode())
    verdict.digest = h.hexdigest()
    return verdict


def _check_frame_file(out, name, expected, entry, on_disk, sampled):
    if expected is None or entry is None or not on_disk:
        return False, (f"{name}: expected={expected is not None} "
                       f"listed={entry is not None} on_disk={on_disk}")
    index, t = expected
    data = (out / name).read_bytes()
    if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
        return False, f"{name}: sha256 does not match the manifest"
    if entry.get("index") != index or not _near(entry.get("t"), t, TIME_TOL):
        return False, (f"{name}: manifest index/t {entry.get('index')}/"
                       f"{entry.get('t')!r}, want {index}/{t!r}")
    if index not in sampled:
        return True, ""
    mx, mp, vx, vp = _example3_closed_forms(t)
    if name.startswith("position"):
        problem = _check_frame(name, data, "x,density,re_psi,im_psi", t, mx, vx)
    else:
        problem = _check_frame(name, data, "p,density,re_a,im_a", t, mp, vp)
    return problem is None, problem


MOMENTS_HEADER = ("t,mean_x,mean_p,var_x,var_p,product,energy,"
                  "err_mean_x,err_mean_p,err_var_x,err_var_p")


def check_moments(calls):
    verdict = Verdict()
    call = calls[0]
    times = frame_times(_config_of(call))
    lines = call["stdout"].split("\n")
    verdict.output(call["exit"] == 0 and lines[0] == MOMENTS_HEADER
                   and lines[-1] == "",
                   f"moments: exit code {call['exit']}, header {lines[0]!r}")
    rows = lines[1:-1]
    for k in range(max(len(rows), len(times))):
        if k >= len(rows) or k >= len(times):
            verdict.output(False, f"moments: {len(rows)} rows, want {len(times)}")
            continue
        verdict.output(*_check_moment_row(rows[k], times[k], k + 1))
    verdict.digest = _digest_calls(calls)
    return verdict


def _check_moment_row(row, t, number):
    try:
        values = [float(v) for v in row.split(",")]
    except ValueError:
        return False, f"moments row {number}: unparsable {row[:60]!r}"
    if len(values) != 11:
        return False, f"moments row {number}: {len(values)} columns, want 11"
    mx, mp, vx, vp = _example3_closed_forms(t)
    want = [t, mx, mp, vx, vp, vx * vp, 1.125]
    gaps = [abs(g - w) for g, w in zip(values[:7], want)]
    if not gaps[0] < TIME_TOL or not max(gaps) < CLOSED_FORM_TOL:
        return False, f"moments row {number}: closed forms off by {max(gaps):.3g}"
    errs = values[7:]
    if not all(0.0 <= e < ERR_COLUMN_MAX for e in errs):
        return False, f"moments row {number}: err columns {errs}"
    return True, ""


def check(workload, seed, calls):
    """Run the workload's correctness check on one rep's calls and outputs.

    Each call is a dict with its label, argv, exit code and captured stdout.
    """
    if workload == "verify-full":
        return check_verify_full(calls)
    if workload == "verify-scoped":
        return check_verify_scoped(calls)
    if workload == "evolve-example3":
        return check_evolve(calls, seed)
    if workload == "moments-check":
        return check_moments(calls)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-full", "verify-scoped", "evolve-example3", "moments-check")
SEEDED = {"verify-full": False, "verify-scoped": True,
          "evolve-example3": True, "moments-check": True}
