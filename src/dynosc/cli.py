"""Command-line front end.

    dynosc verify  [--preset NAME | --config PATH] [--appendix-b-denominator ...]
                   [--tau-convention ...]
    dynosc evolve  (--preset NAME | --config PATH) --out DIR
    dynosc moments (--preset NAME | --config PATH) [--check]

Exit codes: 0 all checks pass / files written, 1 check failure, 2 config
error, 3 I/O error.  Frame CSVs carry the header x,density,re_psi,im_psi
(p,density,re_a,im_a for momentum frames), LF line endings, and floats as
shortest round-trip decimals, so identical configs produce byte-identical
output.  Each evolve run writes a manifest.json listing every written file
with its sha256.  evolve reuses an output directory only if it is empty or
holds a readable manifest.json (exit 3 otherwise), and then first removes
the files that manifest lists under evolve's own file names.

verify and evolve run on every usable core (`pool.ordered_map`); the parent
alone prints, hashes and writes, so the bytes do not depend on the number of
workers, and a serial run is `taskset -c 0`.  verify sends its criteria in a
measured order (`verification.JOB_ORDER`): OpenBLAS's helper threads spin
after each matrix-vector product of the quadrature DFT and take the other
worker's core, so the criterion with the most DFT rows goes last.
moments --check passes its frames to the DFT CHECK_FRAMES at a time; each
call builds the quadrature kernel once, strip by strip, and never holds it
whole.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .config import PRESET_NAMES, load_config, preset_config
from .errors import ConfigError, DomainError
from .flows import BETA0_QUARTIC, BETA0_SQUARED, classical_moments
from .oracle import (MINUS_GAMMA, MINUS_TWO_GAMMA, dft_momentum_rows,
                     psi_rows, quadrature_moment_rows)
from .pool import ordered_map
from .states import (MOMENTUM, POSITION, StateSpec, eval_momentum, eval_psi,
                     uniform_grid)
from .verification import run_acceptance, scoped_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# Least work, frame files x grid points, for which evolve starts a worker
# pool.  Starting and stopping the pool costs ~15-20 ms on 2 cores.  Measured
# in-process on 64-1,024-point grids, the pool loses ~15-20 ms at 4,096,
# ties at 8,192 and wins from 12,288-16,384 (64 points x 192 files
# 164 -> 133 ms, 128 x 128 174 -> 139 ms).
POOL_MIN_WORK = 12288
# Frame files per task sent to a worker.
POOL_CHUNK = 4

# Frames that `moments --check` transforms in one call.  Each call builds the
# whole quadrature kernel, strip by strip (~35 ms at 1,024 points, seconds at
# 8,192), and holds a few complex copies of its frames (4 MiB each at 256
# frames of 1,024 points, 32 MiB at 8,192), so the presets' 101 frames take
# one call and 1,001 frames four.
CHECK_FRAMES = 256

# Names of the files evolve writes beside manifest.json.
_OWN_FILE = re.compile(r"(position|momentum)_[0-9]{4,}\.csv|moments\.csv")


def _resolve_config(args):
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        return load_config(args.config)
    if args.preset:
        return preset_config(args.preset)
    if args.command != "verify":
        raise ConfigError(f"{args.command} needs --config or --preset")
    return None


def _add_source_options(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="built-in run configuration")


def build_packet(spec, grid, t, representation):
    """CSV header and the value columns that follow the grid column of a frame."""
    if representation == POSITION:
        header, amps = "x,density,re_psi,im_psi", eval_psi(spec, grid, t)
    else:
        header, amps = "p,density,re_a,im_a", eval_momentum(spec, grid, t)
    return header, (np.abs(amps) ** 2, amps.real, amps.imag)


def cmd_verify(args, config):
    if config is not None:
        groups = {"scoped checks": scoped_checks(
            config, args.appendix_b_denominator, args.tau_convention)}
    else:
        groups = run_acceptance(args.appendix_b_denominator,
                                args.tau_convention)
    failures = 0
    for label, results in groups.items():
        print(f"== {label} ==")
        for result in results:
            print(result.line())
            failures += 0 if result.passed else 1
    print(f"{'ALL CHECKS PASS' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _column_text(values):
    """Shortest round-trip decimal of each value, via Python floats (the
    repr of a NumPy 2 scalar reads `np.float64(...)`)."""
    return list(map(repr, values.tolist()))


def _csv(header, texts):
    """CSV text from a header and columns already formatted as strings."""
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def _frame_rows(header, grid_text, columns):
    """One frame CSV; grid_text is the grid column, formatted once per run."""
    return _csv(header, [grid_text, *map(_column_text, columns)])


def _moment_rows(config, check=False):
    header = "t,mean_x,mean_p,var_x,var_p,product,energy"
    times = config.time.times()
    m = classical_moments(config.params, config.n, times)
    checked = (m.mean_x, m.mean_p, m.var_x, m.var_p)
    t = np.asarray(times, dtype=float)
    columns = [t, *checked, m.product, m.energy]
    if check:
        header += ",err_mean_x,err_mean_p,err_var_x,err_var_p"
        spec = StateSpec(config.params, config.n)
        grid = uniform_grid(config.grid.x_min, config.grid.x_max, config.grid.points)
        # Rows <x>, <p>, <x^2>, <p^2>; the last two become the variances.
        quad = np.empty((4, t.size))
        for k in range(0, t.size, CHECK_FRAMES):
            chunk = slice(k, k + CHECK_FRAMES)
            rows = psi_rows(spec, grid, t[chunk])
            quad[0::2, chunk] = quadrature_moment_rows(grid, rows)
            # Rebound, so the position rows go before the momentum moments.
            rows = dft_momentum_rows(grid, rows)
            quad[1::2, chunk] = quadrature_moment_rows(grid, rows)
        quad[2:] -= quad[:2] * quad[:2]
        columns += [np.abs(q - c) / np.maximum(1.0, np.abs(c))
                    for q, c in zip(quad, checked)]
    return _csv(header, map(_column_text, columns))


def cmd_moments(args, config):
    sys.stdout.write(_moment_rows(config, check=args.check))
    return EXIT_OK


def _tmp_path(path):
    return path.with_name(path.name + ".tmp")


def _replace(path, data):
    """Write data to path through path.tmp, so path is never half-written."""
    _tmp_path(path).write_bytes(data)
    os.replace(_tmp_path(path), path)


def _write(path, text):
    data = text.encode("utf-8")
    _replace(path, data)
    return hashlib.sha256(data).hexdigest()


def _frame_text(spec, grid, grid_text, job):
    """CSV text of job (index, t, representation); grid_text is the grid column."""
    _, t, representation = job
    header, columns = build_packet(spec, grid, t, representation)
    return _frame_rows(header, grid_text, columns)


def _previous_run(out_dir):
    """The files of an earlier evolve run in out_dir, its manifest last.

    Only names that the run's manifest.json lists and that evolve writes
    count, so no other file is ever removed.  [] for an empty directory;
    None for one that holds files but no readable manifest.
    """
    manifest = out_dir / "manifest.json"
    if not manifest.exists():
        return None if any(out_dir.iterdir()) else []
    try:
        listed = json.loads(manifest.read_text(encoding="utf-8"))
        names = [entry["file"] for entry in listed["frames"]]
        if "moments_file" in listed:
            names.append(listed["moments_file"]["file"])
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    return [out_dir / name for name in names
            if isinstance(name, str) and _OWN_FILE.fullmatch(name)] + [manifest]


def cmd_evolve(args, config):
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        previous = _previous_run(out_dir)
        if previous is None:
            print(f"output directory {out_dir} is not empty and holds no "
                  "readable manifest.json; evolve reuses only a directory it "
                  "wrote", file=sys.stderr)
            return EXIT_IO
        probe = out_dir / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO
    representations = [rep for rep, wanted in (
        (POSITION, "position_density" in config.outputs
         or "wavefunction" in config.outputs),
        (MOMENTUM, "momentum_density" in config.outputs)) if wanted]
    spec = StateSpec(config.params, config.n)
    # The checked grid and the moment table come before anything is
    # removed, so a config they reject leaves an earlier run whole.
    grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                        config.grid.points)
    moments = _moment_rows(config) if "moments" in config.outputs else None
    texts = functools.partial(_frame_text, spec, grid, _column_text(grid))
    jobs = [(index, t, representation)
            for index, t in enumerate(config.time.times(), start=1)
            for representation in representations]
    manifest = {"schema_version": 1, "config_echo": config.to_dict(),
                "frames": []}
    # Every file this run creates, so a failed run can take them back.
    written = []
    complete = False
    try:
        # The manifest goes last, so a run stopped half way still lists
        # whatever it left.
        for path in previous:
            path.unlink(missing_ok=True)
        with ordered_map(texts, jobs,
                         parallel=len(jobs) * grid.size >= POOL_MIN_WORK,
                         chunk=POOL_CHUNK) as results:
            for (index, t, representation), text in zip(jobs, results):
                name = f"{representation}_{index:04d}.csv"
                written.append(out_dir / name)
                digest = _write(written[-1], text)
                manifest["frames"].append(
                    {"index": index, "t": t, "file": name, "sha256": digest})
        if moments is not None:
            written.append(out_dir / "moments.csv")
            digest = _write(written[-1], moments)
            manifest["moments_file"] = {"file": "moments.csv", "sha256": digest}
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        written.append(out_dir / "manifest.json")
        _replace(written[-1], manifest_text.encode("utf-8"))
        complete = True
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if not complete:
            for path in written:
                for leftover in (path, _tmp_path(path)):
                    with contextlib.suppress(OSError):
                        leftover.unlink()
    print(f"wrote {len(manifest['frames'])} frame file(s) to {out_dir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynosc",
        description="Dynamic harmonic-oscillator states: verify, export, tabulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification battery")
    _add_source_options(verify)
    verify.add_argument("--appendix-b-denominator",
                        choices=(BETA0_QUARTIC, BETA0_SQUARED),
                        default=BETA0_QUARTIC,
                        help="momentum-map denominator convention "
                             "(beta0sq is a negative control and fails)")
    verify.add_argument("--tau-convention",
                        choices=(MINUS_GAMMA, MINUS_TWO_GAMMA), default=None,
                        help="pin the comoving time convention instead of "
                             "adjudicating between both")
    verify.set_defaults(func=cmd_verify)

    evolve = sub.add_parser("evolve", help="export per-frame CSV data")
    _add_source_options(evolve)
    evolve.add_argument("--out", metavar="DIR", required=True,
                        help="output directory")
    evolve.set_defaults(func=cmd_evolve)

    moments = sub.add_parser("moments", help="print the closed-form moment table")
    _add_source_options(moments)
    moments.add_argument("--check", action="store_true",
                         help="append relative errors against quadrature")
    moments.set_defaults(func=cmd_moments)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.func(args, config)
    # Domain and overflow errors: valid-looking data float64 cannot represent.
    except (ConfigError, DomainError, OverflowError) as exc:
        reason = "float64 overflow" if isinstance(exc, OverflowError) else exc
        print(f"config error: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
