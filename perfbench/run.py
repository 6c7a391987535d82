"""dtorus benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep|query|emit --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run first times ``setup_s`` (a fresh
interpreter importing ``dtorus.cli``, median of several spawns), then starts
reps of the workload, each in a fresh interpreter (``worker.py``) so the
package's caches start cold, until ``--seconds`` would be exceeded (at
least three reps).  Every answer is checked inside the reps.

Output: one metadata line (``{"meta": ...}`` with the commit, versions,
load average, per-rep samples, ``fail_frac`` and the first failure
messages), then the result line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics as medians over
reps; ``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics of the traced ones plus ``trace.overhead_frac``.

Exit status: 0 with a result, 1 if a rep crashed or timed out, 2 if the
checkout holds no ``src/dtorus``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SPAWN_NOMINAL_S, to_nominal

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_REPS = 3
SETUP_SPAWNS = 15
DEADLINE_S = 170  # the whole run must end well within three minutes
STARTED = perf_counter()


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str]) -> tuple[float, str]:
    """Run a child interpreter to completion; (wall seconds, stdout)."""
    timeout = DEADLINE_S - (perf_counter() - STARTED)
    if timeout <= 0:
        raise RunError("out of time before starting another child")
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps it
        raise RunError(f"child {argv[:3]} timed out after {exc.timeout:.0f} s") from exc
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RunError(f"child {argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def measure_setup() -> tuple[list[float], list[float]]:
    """(speed-corrected, raw) times of SETUP_SPAWNS fresh `import dtorus.cli`.

    Each is scaled by a bare interpreter spawn made just before it.
    """
    spawn(["-c", "import dtorus.cli"])  # warm-up: compiles bytecode once
    corrected, raw = [], []
    for _ in range(SETUP_SPAWNS):
        bare_s = spawn(["-c", "pass"])[0]
        raw.append(spawn(["-c", "import dtorus.cli"])[0])
        corrected.append(to_nominal(raw[-1], bare_s, SPAWN_NOMINAL_S))
    return corrected, raw


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Reps until the next one would overrun ``seconds``; traced reps alternate."""
    reps: list[dict] = []
    t0 = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        argv = [str(WORKER), "--workload", workload, "--seed", str(seed)]
        wall, out = spawn(argv + (["--trace"] if traced else []))
        try:
            rep = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise RunError(f"worker printed no result: {out[-500:]!r}") from exc
        rep["traced"] = traced
        reps.append(rep)
        if len(reps) >= MIN_REPS and perf_counter() - t0 + wall > seconds:
            return reps


def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def mpmath_version() -> str:
    try:
        return importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Run one dtorus benchmark workload.")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dtorus" / "__init__.py").is_file():
        print(f"no dtorus package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    try:
        setup, raw_setup = measure_setup()
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    samples = {
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "wall_s": [r["wall_s"] for r in plain],
        "raw_wall_s": [r["raw_wall_s"] for r in plain],
        "ref_s": [r["ref_s"] for r in plain],
        "ops_per_s": [r["ops"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace:
        wall_plain = statistics.median(samples["wall_s"])
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = wall_traced / wall_plain - 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "mpmath": mpmath_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "reps": len(reps),
        "traced_reps": len(traced),
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": [m for r in reps for m in r["failures"]][:10],
        "samples": samples,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
