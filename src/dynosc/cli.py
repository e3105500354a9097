"""Command-line front end.

    dynosc verify  [--preset NAME | --config PATH] [--appendix-b-denominator ...]
                   [--tau-convention ...]
    dynosc evolve  (--preset NAME | --config PATH) --out DIR [--timings]
    dynosc moments (--preset NAME | --config PATH) [--check]

Exit codes, the frame CSV and manifest formats, and how evolve stages,
publishes and replaces the files in its output directory are in README's
"Command-line interface", "Config files" and "Output format" sections.

How verify and evolve share their work among forked workers, and why the
workers run one BLAS thread, is in README's "Worker pool" section and in
`pool`'s docstring.  moments --check passes its frames to the DFT
CHECK_FRAMES at a time; each call builds the quadrature kernel once, strip
by strip, and never holds it whole, and `quadrature_moment_rows` gives the
means and variances it compares.  moments writes its table with repr, which
gives csvtext's bytes; only evolve's frames load csvtext, and only verify
loads the battery (`verification`).
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
import warnings
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
# frames of 1,024 points, 32 MiB at 8,192) beside one 64-row kernel strip, so
# the presets' 101 frames take one call and 1,001 frames four.
CHECK_FRAMES = 256

# Names of the files evolve writes beside manifest.json.
_OWN_FILE = re.compile(r"(position|momentum)_[0-9]{4,}\.csv|moments\.csv")


def _add_source_options(parser, required):
    """--config and --preset, of which argparse accepts at most one, and
    exactly one if required."""
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    source.add_argument("--preset", choices=PRESET_NAMES,
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
        # Rows <x>, <p>, var_x, var_p.
        quad = np.empty((4, t.size))
        for k in range(0, t.size, CHECK_FRAMES):
            chunk = slice(k, k + CHECK_FRAMES)
            rows = psi_rows(spec, grid, t[chunk])
            quad[0::2, chunk] = quadrature_moment_rows(grid, rows)
            # Rebound, so the position rows go before the momentum moments.
            rows = dft_momentum_rows(grid, rows)
            quad[1::2, chunk] = quadrature_moment_rows(grid, rows)
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
    their names in the directory stage; {file name: sha256}, and the seconds
    it took to evaluate, format and write them.  table() gives the `CsvText`
    that formats them."""
    representation, first, times = job
    start = time.perf_counter()
    header, columns = build_packet(spec, grid, np.array(times), representation)
    evaluated = time.perf_counter()
    texts = table().views(header, columns)
    formatted = time.perf_counter()
    names = [_frame_name(representation, first + k) for k in range(len(texts))]
    digests = {name: _write(stage / name, text)
               for name, text in zip(names, texts)}
    return digests, (evaluated - start, formatted - evaluated,
                     time.perf_counter() - formatted)


def _previous_run(out_dir):
    """The files of an earlier evolve run in out_dir, its manifest last.

    Only names that the run's manifest.json lists and that evolve writes
    count, so no other file is ever removed.  [] for a directory that is
    empty but for the staging directories of killed runs.  FileExistsError
    for one that holds other files but no readable manifest.
    """
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        try:
            listed = json.loads(manifest.read_text(encoding="utf-8"))
            names = [entry["file"] for entry in listed["frames"]]
            if "moments_file" in listed:
                names.append(listed["moments_file"]["file"])
            return [out_dir / name for name in names if isinstance(name, str)
                    and _OWN_FILE.fullmatch(name)] + [manifest]
        except (ValueError, KeyError, TypeError, RecursionError):
            pass
    elif all(path.name.startswith(".evolve-") for path in out_dir.iterdir()):
        return []
    raise FileExistsError(f"output directory {out_dir} is not empty and holds "
                          "no readable manifest.json; evolve reuses only a "
                          "directory it wrote")


def cmd_evolve(args, config):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _previous_run(out_dir)      # refuses a directory that evolve did not write
    # The run's own directory, so no other run touches its files.
    stage = Path(tempfile.mkdtemp(prefix=".evolve-", dir=out_dir))
    published = []
    try:
        representations = [rep for rep, wanted in (
            (POSITION, "position_density" in config.outputs
             or "wavefunction" in config.outputs),
            (MOMENTUM, "momentum_density" in config.outputs)) if wanted]
        spec = StateSpec(config.params, config.n)
        grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                            config.grid.points)
        moments = _moment_rows(config) if "moments" in config.outputs else None
        times = config.time.times()
        jobs = [(representation, k + 1, times[k:k + FRAME_BLOCK])
                for k in range(0, len(times), FRAME_BLOCK)
                for representation in representations]
        # Made by the first frame that a process formats: a pooled run's
        # parent neither imports nor builds a formatter.
        table = functools.cache(functools.partial(_frame_table, grid))
        files = functools.partial(_frame_files, spec, grid, table, stage)
        digests, seconds = {}, [0.0, 0.0, 0.0]
        for job_digests, job_seconds in ordered_map(files, jobs):
            digests.update(job_digests)
            seconds = [a + b for a, b in zip(seconds, job_seconds)]
        entries = [{"index": index, "t": t, "file": name,
                    "sha256": digests[name]}
                   for index, t in enumerate(times, start=1)
                   for name in [_frame_name(representation, index)
                                for representation in representations]]
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
        # Every file is staged: only now is the earlier run read and removed,
        # so a run that published since this one started goes whole.
        for path in _previous_run(out_dir):
            path.unlink(missing_ok=True)
        for name in names:
            os.replace(stage / name, out_dir / name)
            published.append(out_dir / name)
    except BaseException:
        for path in published:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(f"wrote {len(entries)} frame file(s) to {out_dir}")
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
    _add_source_options(verify, required=False)
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
    _add_source_options(evolve, required=True)
    evolve.add_argument("--out", metavar="DIR", required=True,
                        help="output directory")
    evolve.add_argument("--timings", action="store_true",
                        help="print the seconds spent evaluating, formatting "
                             "and writing (and hashing) frames, summed over "
                             "jobs, to stderr")
    evolve.set_defaults(func=cmd_evolve)

    moments = sub.add_parser("moments", help="print the closed-form moment table")
    _add_source_options(moments, required=True)
    moments.add_argument("--check", action="store_true",
                         help="append relative errors against quadrature")
    moments.set_defaults(func=cmd_moments)
    return parser


def _warning_line(message, category, filename, lineno, line=None):
    """A warning as one stderr line, without the source path and line."""
    return f"warning: {message}\n"


def _drop_unwritable_stdout():
    """Point fd 1 at os.devnull if the process's own stdout still cannot
    take its buffered text, so that the interpreter's flush at exit neither
    fails again nor turns the exit code into 120."""
    try:
        sys.stdout.flush()
    except OSError:
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Workers fork with this format, so a pooled run prints the same line.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        # NumPy overflow, and the inf and nan it makes, raise here and in the
        # workers, which fork with this state, rather than warn and go on.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config = None
            if args.config is not None:
                config = load_config(args.config)
            elif args.preset is not None:
                config = preset_config(args.preset)
            code = args.func(args, config)
        # A full or closed stdout fails here at the latest, not at exit.
        sys.stdout.flush()
        return code
    # Domain and overflow errors: valid-looking data float64 cannot represent.
    except (ConfigError, DomainError, OverflowError,
            FloatingPointError) as exc:
        reason = exc if isinstance(exc, ValueError) else "float64 overflow"
        print(f"config error: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerDied:
        print("worker process ended unexpectedly", file=sys.stderr)
        return EXIT_IO
    # Writing stdout, or forking a worker.
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        _drop_unwritable_stdout()
        return EXIT_IO
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
