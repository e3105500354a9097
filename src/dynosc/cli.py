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
holds a readable manifest.json (exit 3 otherwise), and once its own frames
are written it removes the files that manifest lists under evolve's own
file names.

verify and evolve run on every usable core (`pool.ordered_map`), and a
serial run is `taskset -c 0`.  verify's parent alone prints.  An evolve job
is one representation over a block of FRAME_BLOCK frames: the worker
evaluates the block, formats each frame (`csvtext`, the grid column
formatted once per run), writes it to NAME.csv.tmp and returns its sha256.
Only when every job has succeeded does the parent remove the earlier run's
files, rename the frames in order and write moments.csv and manifest.json,
so a failed run leaves the earlier one whole and the bytes do not depend on
the number of workers.  verify sends its criteria in a
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
# pool.  Measured in-process with jobs of FRAME_BLOCK frames on 2 cores
# (medians of 21, serial -> pooled): the pool loses at 8,192 (64 points x
# 128 files 64 -> 98 ms), ties or wins a little at 16,384 (1,024 x 16
# 49 -> 47 ms, 64 x 256 90 -> 83 ms) and wins from 32,768 (1,024 x 32
# 70 -> 60 ms, 1,024 x 64 204 -> 148 ms).
POOL_MIN_WORK = 12288
# Frames per evolve job: one representation, evaluated as one (T, N) block.
FRAME_BLOCK = 8

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


def build_packet(spec, grid, times, representation):
    """CSV header and the (T, N) value columns that follow the grid column
    of the frames at each of times."""
    if representation == POSITION:
        header, amps = "x,density,re_psi,im_psi", eval_psi(spec, grid, times)
    else:
        header, amps = "p,density,re_a,im_a", eval_momentum(spec, grid, times)
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


def _moment_rows(config, check=False):
    # csvtext is imported only where CSVs are written: with no bytecode
    # cache (PYTHONDONTWRITEBYTECODE) compiling it costs every process ~4 ms.
    from .csvtext import csv_bytes
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
    return csv_bytes(header, columns).decode("ascii")


def cmd_moments(args, config):
    sys.stdout.write(_moment_rows(config, check=args.check))
    return EXIT_OK


def _tmp_path(path):
    return path.with_name(path.name + ".tmp")


def _replace(path, data):
    """Write data to path through path.tmp, so path is never half-written;
    its sha256."""
    digest = _write(_tmp_path(path), data)
    os.replace(_tmp_path(path), path)
    return digest


def _write(path, data):
    """Write data to path; its sha256."""
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _frame_name(representation, index):
    return f"{representation}_{index:04d}.csv"


def _frame_files(spec, grid, table, out_dir, job):
    """Write the frames of job (representation, first index, times) to
    their .tmp files; their sha256s.  table formats them (`CsvText`)."""
    representation, first, times = job
    header, columns = build_packet(spec, grid, np.array(times), representation)
    return [_write(_tmp_path(out_dir / _frame_name(representation, first + k)),
                   text)
            for k, text in enumerate(table.texts(header, columns))]


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
    # written, so a config they reject leaves an earlier run whole.
    grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                        config.grid.points)
    moments = _moment_rows(config) if "moments" in config.outputs else None
    frames = list(enumerate(config.time.times(), start=1))
    entries = [{"index": index, "t": t,
                "file": _frame_name(representation, index)}
               for index, t in frames for representation in representations]
    jobs = [(representation, frames[k][0],
             [t for _, t in frames[k:k + FRAME_BLOCK]])
            for k in range(0, len(frames), FRAME_BLOCK)
            for representation in representations]
    from .csvtext import CsvText
    table = CsvText(grid.size, 3, FRAME_BLOCK, lead=grid)
    files = functools.partial(_frame_files, spec, grid, table, out_dir)
    # A failed run removes every .tmp file it may have left and the files
    # it has put in place (`written`).
    leftovers = [_tmp_path(out_dir / name) for name in (
        *(entry["file"] for entry in entries), "moments.csv", "manifest.json")]
    written = []
    complete = False
    try:
        digests = {}
        with ordered_map(files, jobs, parallel=(
                len(entries) * grid.size >= POOL_MIN_WORK)) as results:
            for (representation, first, _), job_digests in zip(jobs, results):
                for k, digest in enumerate(job_digests):
                    digests[_frame_name(representation, first + k)] = digest
        # Every frame is written: only now does the earlier run go.
        for path in previous:
            path.unlink(missing_ok=True)
        manifest = {"schema_version": 1, "config_echo": config.to_dict(),
                    "frames": entries}
        for entry in entries:
            written.append(out_dir / entry["file"])
            os.replace(_tmp_path(written[-1]), written[-1])
            entry["sha256"] = digests[entry["file"]]
        if moments is not None:
            written.append(out_dir / "moments.csv")
            digest = _replace(written[-1], moments.encode("ascii"))
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
            for path in written + leftovers:
                with contextlib.suppress(OSError):
                    path.unlink()
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
