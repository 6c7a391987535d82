"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload passes its answer checks, that a wrong answer
injected here (never in src/) is counted once for every op it makes
wrong, that the tracer
reports every per-layer metric and restores the package afterwards, that
``run.py`` refuses a directory without the package, and the compare
verdicts.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import shutil
import subprocess
import statistics
import sys
import tempfile
from pathlib import Path

import compare
import oracle
import speed
import worker  # puts src/ on sys.path

import dtorus  # noqa: E402
import dtorus.cli  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


@contextlib.contextmanager
def patched(module, name, make):
    """Replace module.name by make(original) for the duration."""
    orig = getattr(module, name)
    setattr(module, name, make(orig))
    try:
        yield
    finally:
        setattr(module, name, orig)


def wrong_bound24(orig):
    def verify_bound24(n, *args):
        rep = orig(n, *args)
        return dataclasses.replace(rep, max_multiplicity=rep.max_multiplicity + 1)

    return verify_bound24


def wrong_membership(orig):
    return lambda *a: not orig(*a)


def wrong_cli(orig):
    def main(argv):
        code = orig(argv)
        print("extra line")
        return code

    return main


INJECTIONS = {
    "sweep": (dtorus, "verify_bound24", wrong_bound24),
    "query": (dtorus, "membership", wrong_membership),
    "emit": (dtorus.cli, "main", wrong_cli),
}
# How many ops each injection makes wrong: every op, counted once each.
WRONG_OPS = {
    "sweep": len(worker.sweep_moduli(7, "tiny")) + 1,  # the drawn moduli and N = 60
    "query": sum(1 for q in worker.query_stream(7, "tiny") if q[0] == "zero"),
    "emit": len(worker.emit_commands("tiny")),
}


def check_tally() -> None:
    """Equal questions that fail each count; a label cannot be reused."""
    tally = worker.Tally()
    for i in range(3):
        tally.call(f"#{i} same question", lambda: 1)
        tally.check(False, f"#{i} same question", "wrong")
    expect(len(tally.failures) == 3, f"three wrong answers to one question count {len(tally.failures)} times")
    try:
        tally.call("#0 same question", lambda: 1)
        reused = False
    except ValueError:
        reused = True
    expect(reused, "a reused op label is refused")


def allocate(hoard: list, n: int) -> None:
    """GC-heavy work: n tuples, kept alive, so the heap and every full collection grow."""
    hoard.extend((i, i + 1) for i in range(n))


def timed(ops: int) -> dict:
    """``ops`` timed calls of allocate under reference sampling, as a rep does."""
    tally, hoard = worker.Tally(), []
    tally.sample_reference()
    with tally.sampling():
        for i in range(ops):
            tally.call(f"#{i} allocate", allocate, hoard, 100_000)
    tally.sample_reference()
    ref_s = statistics.median(tally.ref)
    return {"raw": tally.wall, "corrected": speed.to_nominal(tally.wall, ref_s)}


def check_correction() -> None:
    """A GC-heavy slowdown shows in full in the corrected time.

    The reference job shares the process with the package, so neither a
    collection the package's allocations are due nor the package's grown
    heap may be counted as the job's: the job's table is invisible to the
    collector, no collection may start while the job runs, and doubling
    allocating work must roughly double the corrected time as it does the
    raw one.
    """
    expect(not gc.is_tracked(speed.TABLE), "the reference table is not tracked by the collector")
    in_job, inside = [False], [0]

    def job():
        in_job[0] = True
        try:
            return speed.reference_job()
        finally:
            in_job[0] = False

    def on_gc(phase, _info):
        inside[0] += phase == "start" and in_job[0]

    gc.callbacks.append(on_gc)
    try:
        with patched(worker, "reference_job", lambda _orig: job):
            pairs = [(timed(4), timed(8)) for _ in range(3)]
    finally:
        gc.callbacks.remove(on_gc)
    expect(inside[0] == 0, f"no collection started inside the reference job ({inside[0]})")
    raw = statistics.median(b["raw"] / a["raw"] for a, b in pairs)
    corrected = statistics.median(b["corrected"] / a["corrected"] for a, b in pairs)
    expect(
        raw > 1.5 and abs(corrected / raw - 1) < 0.25,
        f"doubled GC-heavy work: raw time x{raw:.2f}, corrected time x{corrected:.2f}",
    )


def main() -> int:
    phi12 = oracle.cyclotomic(12)
    expect(phi12 == (1, 0, -1, 0, 1), f"oracle Phi_12 = {phi12}")

    for workload in worker.RUNNERS:
        rep = worker.run_rep(workload, seed=7, size="tiny")
        expect(rep["attempted"] >= 1 and rep["failed"] == 0, f"{workload} tiny passes: {rep['failures']}")
        module, name, make = INJECTIONS[workload]
        with patched(module, name, make):
            bad = worker.run_rep(workload, seed=7, size="tiny")
        frac = bad["failed"] / bad["attempted"]
        expect(
            bad["failed"] == WRONG_OPS[workload],
            f"{workload} injected wrong answers counted: {bad['failed']} of {WRONG_OPS[workload]}, fail_frac {frac:.3f}",
        )
    check_tally()
    check_correction()

    originals = {name: getattr(dtorus, name) for name in ("torus_spectrum", "approx_value", "membership")}
    rep = worker.run_rep("query", seed=7, size="tiny", trace=True)
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    expect(set(rep["layers"]) == names, "traced rep reports exactly the per-layer metrics")
    expect(rep["layers"]["spectrum.mitm_calls"] > 0, "traced query rep saw meet-in-the-middle calls")
    restored = all(getattr(dtorus, k) is v for k, v in originals.items())
    expect(restored and dtorus.cli.approx_value is originals["approx_value"], "tracer restored the package")

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    expect(proc.returncode != 0 and not proc.stdout, f"run.py without src/ exits {proc.returncode}, prints nothing")

    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    cases = [
        ([x * 0.8 for x in base], "improved"),
        ([x * 1.3 for x in base], "worse"),
        ([x * 1.01 for x in base], "unchanged"),
        ([5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0], "unresolved"),
    ]
    for change, want in cases:
        wins = sum(1 for a, b in zip(base, change) if b < a)
        got = compare.verdict(base, change, wins, len(base), "lower", 0.15)
        expect(got == want, f"compare verdict {got}, expected {want}")

    print(f"selftest: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
