"""Benchmark of the dynosc CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    verify-full       dynosc verify: the full acceptance battery (seed ignored)
    verify-scoped     dynosc verify --config over the five presets
    evolve-example3   dynosc evolve on example3, 101 frames: 202 CSVs and a manifest
    moments-check     dynosc moments --check on example3, 101 frames

Seeded workloads draw the global phases of every family member from --seed.
Each rep is a fresh Python process (worker.py) that imports dynosc from this
checkout's src/, writes its inputs and calls dynosc.cli.main in-process.  The
run first times SETUP_PROBES set-ups alone, then runs reps until the next one
would end after --seconds (at least one), checking every rep's outputs.

With --trace 0 the last line of stdout reports the end-to-end metrics, each a
median over the run's reps: setup_s, wall_s, cpu_s and peak_rss_mb.  With
--trace 1 the run alternates untraced and traced reps and reports the
per-layer metrics of the traced reps plus trace.overhead_s.  Every run also
writes .bench_out/BENCH_<workload>_seed<N>_trace<T>.json with each sample,
quartiles, error_rate, output digests, failure messages and the producer
environment.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
REP_TIMEOUT_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class RepFailed(Exception):
    pass


def spawn(workload, seed, rep_dir, trace=0, setup_only=False):
    """Run one worker; return (set-up seconds, result record or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=REP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RepFailed(f"worker for {workload} exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    record = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    return setup_s, record


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.dir = OUT / f"{workload}-seed{seed}-trace{trace}"
        self.setups = []
        self.reps = []
        self.attempted = self.failed = 0
        self.messages = []
        self.env = None

    def rep(self, index, traced):
        rep_dir = self.dir / f"rep{index}"
        setup_s, record = spawn(self.workload, self.seed, rep_dir, traced)
        verdict = workloads.check(self.workload, self.seed, record["calls"])
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.messages += verdict.messages
        self.env = record["env"]
        rep = {"traced": bool(traced), "setup_s": setup_s,
               "wall_s": record["wall_s"], "cpu_s": record["cpu_s"],
               "peak_rss_mb": record["peak_rss_mb"],
               "exit_codes": [c["exit"] for c in record["calls"]],
               "digest": verdict.digest, "attempted": verdict.attempted,
               "failed": verdict.failed}
        if traced:
            spans = OUT / "spans" / f"{self.workload}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(record["spans"], spans)
            rep["per_layer"], rep["missing"] = tracing.summarize(spans)
        else:
            self.setups.append(setup_s)
        shutil.rmtree(rep_dir)
        self.reps.append(rep)
        return time.perf_counter()

    def measure(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        for k in range(SETUP_PROBES):
            setup_s, _ = spawn(self.workload, self.seed, self.dir / f"setup{k}",
                               setup_only=True)
            self.setups.append(setup_s)
        start = time.perf_counter()
        pattern = (0, 1) if self.trace else (0,)
        index = 0
        while True:
            begin = time.perf_counter()
            for traced in pattern:
                index += 1
                now = self.rep(index, traced)
            if now - start + (now - begin) > self.seconds:
                break
        shutil.rmtree(self.dir, ignore_errors=True)

    def digests_agree(self):
        return len({rep["digest"] for rep in self.reps}) == 1

    def samples(self):
        """End-to-end samples: set-ups of probes and untraced reps, and the
        other metrics of each untraced rep."""
        untraced = [r for r in self.reps if not r["traced"]]
        out = {"setup_s": self.setups}
        for name, _ in END_TO_END[1:]:
            out[name] = [r[name] for r in untraced]
        return out

    def metrics(self):
        if not self.trace:
            units = dict(END_TO_END)
            return {name: {"value": statistics.median(values), "unit": units[name]}
                    for name, values in self.samples().items()}
        untraced = [r for r in self.reps if not r["traced"]]
        traced = [r for r in self.reps if r["traced"]]
        out = {}
        for name, unit, _ in tracing.per_layer_metrics():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in untraced))
            else:
                value = statistics.median(r["per_layer"][name] for r in traced)
            out[name] = {"value": value, "unit": unit}
        return out

    def report(self, metrics):
        consistent = self.digests_agree()
        attempted = self.attempted + 1
        failed = self.failed + (0 if consistent else 1)
        if not consistent:
            digests = sorted({str(r["digest"]) for r in self.reps})
            self.messages.append(f"output digests differ between reps: {digests}")
        samples = self.samples()
        summary = {name: quartiles(values) for name, values in samples.items()}
        missing = sorted({m for r in self.reps for m in r.get("missing", ())})
        artefact = {
            "workload": self.workload,
            "seed": self.seed,
            "seed_used": workloads.SEEDED[self.workload],
            "trace": self.trace,
            "run_seconds": self.seconds,
            "env": self.env,
            "digest": self.reps[0]["digest"],
            "error_rate": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "failure_messages": self.messages[:50],
            "missing_wrapped_functions": missing,
            "setup_samples": self.setups,
            "quartiles": {k: dict(zip(("q1", "median", "q3"), v))
                          for k, v in summary.items()},
            "reps": self.reps,
            "metrics": metrics,
        }
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"BENCH_{self.workload}_seed{self.seed}_trace{self.trace}.json"
        path.write_text(json.dumps(artefact, indent=1) + "\n", encoding="utf-8")

        seed_note = "" if workloads.SEEDED[self.workload] else " (ignored: no input)"
        traced = sum(r["traced"] for r in self.reps)
        print(f"workload {self.workload}  seed {self.seed}{seed_note}  "
              f"trace {self.trace}  reps {len(self.reps) - traced} untraced, "
              f"{traced} traced")
        units = dict(END_TO_END)
        for name, (q1, med, q3) in summary.items():
            print(f"  {name:<12} {med:12.6g} {units[name]:<3} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
        print(f"  {'error_rate':<12} {failed / attempted:12.6g} 1   "
              f"({failed} of {attempted} outputs failed)")
        print(f"  digest       {artefact['digest']}")
        if missing:
            print(f"  missing wrapped functions (reported as 0): {', '.join(missing)}")
        for message in self.messages[:10]:
            print(f"  FAILED: {message}")
        print(f"  results in {path.relative_to(ROOT)}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynosc" / "__init__.py").is_file():
        print(f"perfbench: no dynosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        run.measure()
    except (RepFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc!r}", file=sys.stderr)
        return 1
    result = run.report(run.metrics())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
