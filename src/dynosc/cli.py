"""Command-line front end.

    dynosc verify  [--preset NAME | --config PATH] [--appendix-b-denominator ...]
                   [--tau-convention ...]
    dynosc evolve  (--preset NAME | --config PATH) --out DIR [--timings]
    dynosc moments (--preset NAME | --config PATH) [--check]

Exit codes: 0 all checks pass / files written, 1 check failure, 2 config
error, 3 I/O error or a worker process that ended unexpectedly.  Frame CSVs
carry the header x,density,re_psi,im_psi (p,density,re_a,im_a for momentum
frames), LF line endings, and floats as shortest round-trip decimals, so
identical configs produce byte-identical output.  Each evolve run writes a
manifest.json listing every written file with its sha256.  evolve reuses an
output directory only if it is empty or holds a readable manifest.json
(exit 3 otherwise), and once its own files are staged it removes the files
that manifest lists under evolve's own file names.

verify and evolve run on every usable core (`pool.ordered_map`), and a
serial run is `taskset -c 0`.  verify's parent alone prints.  An evolve job
is one representation over a block of FRAME_BLOCK frames: the worker
evaluates the block, formats each frame (`csvtext`, the grid column
formatted once per worker), writes it under its final name into the run's
own staging directory (`.evolve-*` inside the output directory) and returns
its sha256 and the seconds it spent evaluating, formatting and writing
(`--timings` prints their sums to stderr); the parent formats nothing
unless the run is serial.  The parent stages moments.csv and manifest.json
beside the frames; only then does it remove the earlier run's files and
move the staged ones into place in one pass, the frames in order and
manifest.json last.  So a failed run leaves the earlier one whole, two runs
into one directory never share a file, and the bytes do not depend on the
number of workers.  A worker that dies ends the run with exit 3.  A killed
run leaves its staging directory behind; its workers exit once their job is
done.  verify sends its criteria in a measured order, each criterion's
place in `verification.CRITERIA`: OpenBLAS's helper threads spin after each
matrix-vector product of the quadrature DFT and take the other worker's
core, so the criterion with the most DFT rows goes last.  A scoped verify
sends two jobs in print order: the rows before the split-step row, then
that row with the rows after it.  moments --check passes its frames to the
DFT CHECK_FRAMES at a time; each call builds the quadrature kernel once,
strip by strip, and never holds it whole.  moments writes its table with
repr, which gives csvtext's bytes; only evolve's frames load csvtext, and
only verify loads the battery (`verification`).
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .config import PRESET_NAMES, load_config, preset_config
from .errors import ConfigError, DomainError
from .flows import BETA0_QUARTIC, BETA0_SQUARED, classical_moments
from .oracle import (MINUS_GAMMA, MINUS_TWO_GAMMA, dft_momentum_rows,
                     psi_rows, quadrature_moment_rows)
from .pool import WorkerDied, ordered_map
from .states import (MOMENTUM, POSITION, StateSpec, eval_momentum, eval_psi,
                     uniform_grid)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# Frames per evolve job: one representation, evaluated as one (T, N) block.
FRAME_BLOCK = 8

# Frames that `moments --check` transforms in one call.  Each call builds the
# whole quadrature kernel, strip by strip (~35 ms at 1,024 points, seconds at
# 8,192), and holds its frames and their transforms (4 MiB each at 256
# frames of 1,024 points, 32 MiB at 8,192) beside one 65-row kernel strip, so
# the presets' 101 frames take one call and 1,001 frames four.
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
    # Imported here, so that moments and evolve never compile the battery.
    from .verification import run_acceptance, scoped_checks
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
    # repr writes csvtext's bytes, and for 11 values a row it is no slower
    # than compiling csvtext and building its tables.
    lines = np.column_stack(columns).tolist()
    return header + "\n" + "".join(",".join(map(repr, line)) + "\n"
                                   for line in lines)


def cmd_moments(args, config):
    sys.stdout.write(_moment_rows(config, check=args.check))
    return EXIT_OK


def _write(path, data):
    """Write data to path; its sha256."""
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _frame_name(representation, index):
    return f"{representation}_{index:04d}.csv"


def _frame_table(grid):
    """The `CsvText` of FRAME_BLOCK frames on the grid, grid column first."""
    from .csvtext import CsvText
    return CsvText(grid.size, 3, FRAME_BLOCK, lead=grid)


def _frame_files(spec, grid, table, stage, job):
    """Write the frames of job (representation, first index, times) under
    their names in the directory stage; their sha256s, and the seconds it
    took to evaluate, format and write them.  table() gives the `CsvText`
    that formats them."""
    representation, first, times = job
    start = time.perf_counter()
    header, columns = build_packet(spec, grid, np.array(times), representation)
    evaluated = time.perf_counter()
    texts = table().views(header, columns)
    formatted = time.perf_counter()
    digests = [_write(stage / _frame_name(representation, first + k), text)
               for k, text in enumerate(texts)]
    return digests, (evaluated - start, formatted - evaluated,
                     time.perf_counter() - formatted)


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
        # The run's own directory, so no other run touches its files; making
        # it is also the check that out_dir is writable.
        stage = Path(tempfile.mkdtemp(prefix=".evolve-", dir=out_dir))
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO
    published = []
    complete = False
    try:
        representations = [rep for rep, wanted in (
            (POSITION, "position_density" in config.outputs
             or "wavefunction" in config.outputs),
            (MOMENTUM, "momentum_density" in config.outputs)) if wanted]
        spec = StateSpec(config.params, config.n)
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
        # Made by the first frame that a process formats: a pooled run's
        # parent neither imports nor builds a formatter.
        table = functools.cache(functools.partial(_frame_table, grid))
        files = functools.partial(_frame_files, spec, grid, table, stage)
        digests, seconds = {}, [0.0, 0.0, 0.0]
        with ordered_map(files, jobs) as results:
            for (representation, first, _), (job_digests, job_seconds) in zip(
                    jobs, results):
                seconds = [a + b for a, b in zip(seconds, job_seconds)]
                for k, digest in enumerate(job_digests):
                    digests[_frame_name(representation, first + k)] = digest
        for entry in entries:
            entry["sha256"] = digests[entry["file"]]
        manifest = {"schema_version": 1, "config_echo": config.to_dict(),
                    "frames": entries}
        names = [entry["file"] for entry in entries]
        if moments is not None:
            digest = _write(stage / "moments.csv", moments.encode("ascii"))
            manifest["moments_file"] = {"file": "moments.csv", "sha256": digest}
            names.append("moments.csv")
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write(stage / "manifest.json", manifest_text.encode("utf-8"))
        names.append("manifest.json")
        # Every file is staged: only now does the earlier run go.
        for path in previous:
            path.unlink(missing_ok=True)
        for name in names:
            os.replace(stage / name, out_dir / name)
            published.append(out_dir / name)
        complete = True
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if not complete:
            for path in published:
                with contextlib.suppress(OSError):
                    path.unlink()
        shutil.rmtree(stage, ignore_errors=True)
    print(f"wrote {len(manifest['frames'])} frame file(s) to {out_dir}")
    if args.timings:
        print(f"timings: {len(jobs)} job(s), evaluate {seconds[0]:.3f} s, "
              f"format {seconds[1]:.3f} s, write {seconds[2]:.3f} s "
              "(summed over jobs)", file=sys.stderr)
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
    evolve.add_argument("--timings", action="store_true",
                        help="print the seconds spent evaluating, formatting "
                             "and writing (and hashing) frames, summed over "
                             "jobs, to stderr")
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
    except WorkerDied:
        print("worker process ended unexpectedly", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
