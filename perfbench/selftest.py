"""Self-test: every correctness check passes clean outputs and catches a
corrupted one.

    python3 perfbench/selftest.py

The verify checks run on transcripts rebuilt from reference.json; evolve and
moments run in-process on four frames of the seeded example3 input.  Each
case then corrupts one output and requires the check to count a failure:

    verify-full, verify-scoped   one [PASS] flipped to [FAIL]
    evolve-example3              one flipped byte in a frame CSV (caught by
                                 its sha256), and one sample scaled with the
                                 manifest hash updated to match (caught by
                                 the quadrature physics check)
    moments-check                one flipped leading digit in a moment row

Exits 0 when every case behaves, 1 otherwise.  Files go to
.bench_out/selftest/ and are removed afterwards.
"""

import hashlib
import json
import shutil
import sys

from worker import ROOT, _call_main, import_dynosc
import workloads

SEED = 7
FRAMES = 4


def _transcript(expected):
    lines = [line.replace(": requires", ": measured 1.000000e+00, requires", 1)
             if line.startswith("[") else line for line in expected["lines"]]
    return "\n".join(lines) + "\n"


def _flip_status(stdout):
    return stdout.replace("[PASS]", "[FAIL]", 1)


def verify_calls(workload):
    ref = workloads.REFERENCE[workload]
    if workload == "verify-full":
        return [{"label": "verify", "argv": ["verify"], "exit": ref["exit"],
                 "stdout": _transcript(ref)}]
    return [{"label": name, "argv": [], "exit": ref[name]["exit"],
             "stdout": _transcript(ref[name])} for name in workloads.PRESET_ORDER]


def run_small(workload, rep_dir):
    dynosc = import_dynosc()
    if dynosc is None:
        raise SystemExit("selftest: no dynosc package under src/")
    calls = []
    for label, argv in workloads.prepare(workload, SEED, rep_dir, frames=FRAMES):
        code, out = _call_main(dynosc.cli.main, argv)
        calls.append({"label": label, "argv": argv, "exit": code, "stdout": out})
    return calls


def _flip_byte(data, offset):
    """Change the digit at or after offset to another digit."""
    while not chr(data[offset]).isdigit():
        offset += 1
    digit = chr(data[offset])
    return data[:offset] + (b"7" if digit != "7" else b"3") + data[offset + 1:]


def cases(work):
    """Yield (name, workload, calls, must_pass) for clean and corrupted outputs."""
    for workload in ("verify-full", "verify-scoped"):
        calls = verify_calls(workload)
        yield f"{workload} clean", workload, calls, True
        bad = [dict(calls[0], stdout=_flip_status(calls[0]["stdout"]))] + calls[1:]
        yield f"{workload} one status flipped", workload, bad, False

    calls = run_small("evolve-example3", work / "evolve")
    yield "evolve-example3 clean", "evolve-example3", calls, True
    out = work / "evolve" / "out"
    frame = out / "position_0002.csv"
    original = frame.read_bytes()
    frame.write_bytes(_flip_byte(original, len(original) // 2))
    yield "evolve-example3 one CSV byte flipped", "evolve-example3", calls, False

    # Same file, one sample scaled by 1.001 with density = |amplitude|^2
    # kept and the manifest hash updated: only the quadrature can see it.
    lines = original.decode().split("\n")
    x, _, re_part, im_part = (float(v) for v in lines[len(lines) // 2].split(","))
    re_part, im_part = 1.001 * re_part, 1.001 * im_part
    lines[len(lines) // 2] = ",".join(
        repr(v) for v in (x, re_part ** 2 + im_part ** 2, re_part, im_part))
    changed = "\n".join(lines).encode()
    frame.write_bytes(changed)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["frames"]:
        if entry["file"] == frame.name:
            entry["sha256"] = hashlib.sha256(changed).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    yield ("evolve-example3 one sample scaled, hash updated", "evolve-example3",
           calls, False)

    calls = run_small("moments-check", work / "moments")
    yield "moments-check clean", "moments-check", calls, True
    stdout = calls[0]["stdout"]
    second_row = stdout.index("\n", stdout.index("\n") + 1) + 1
    value_start = stdout.index(",", second_row) + 1
    flipped = _flip_byte(stdout.encode(), value_start).decode()
    yield ("moments-check one row byte flipped", "moments-check",
           [dict(calls[0], stdout=flipped)], False)


def main():
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    try:
        for name, workload, calls, must_pass in cases(work):
            verdict = workloads.check(workload, SEED, calls)
            passed = verdict.failed == 0 and verdict.attempted > 0
            good = passed == must_pass
            ok &= good
            detail = verdict.messages[0] if verdict.messages else ""
            print(f"{'ok  ' if good else 'BAD '} {name}: {verdict.failed} of "
                  f"{verdict.attempted} outputs failed  {detail[:100]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
