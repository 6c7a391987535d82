"""One rep of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload sweep --seed 3 [--trace]

Imports dtorus from ``src/`` of the checkout, generates the workload's inputs
from the seed, times only the calls into dtorus, checks every answer against
a source other than the timed path, and prints one JSON line:
``wall_s`` (speed-corrected, see speed.py), ``raw_wall_s``, ``ref_s``,
``ops``, ``attempted``, ``failed``, ``failures`` (first few messages),
``peak_rss_mb`` and, with ``--trace``, ``layers``.

Workloads (single process, single thread, closed loop of one caller):

- ``sweep``: ``verify_bound24`` on 100 distinct moduli drawn from [3, 330],
  then N = 60 and ``verify_table60``.  Tables are written, not read: the
  draw is far larger than the package's 8-entry table cache.
- ``query``: a stream of single exact questions grouped by modulus, on
  moduli drawn from [25, 64], plus vanishing-sum searches on small moduli
  and ``minimal_vanishing_sums(30, 6)``.  Tables are built once per
  modulus and probed many times.
- ``emit``: the CLI output path: ``spectrum`` as JSON at N = 240 and as
  CSV at N = 180 (d = 2), then ``verify cjk --s 2 --cutoff 1000000``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
from decimal import Decimal
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
from speed import REF_EVERY_S, reference_job, to_nominal  # noqa: E402

MAX_MESSAGES = 10
DIGESTS = HERE / "emit_digests.json"  # sha256 of each emit command's stdout

# Query moduli come in groups whose six-dimensional meet-in-the-middle
# probes cost about the same (measured at the seed commit: roughly 2, 4, 10,
# 12, 15, 23 and 29 ms per probe).  One modulus is drawn from each group, so
# every seed asks for about the same amount of work.  From the third group
# on, members also have nearly equal table sizes, because the peak memory
# follows the larger tables built along the way.
QUERY_GROUPS = (
    (25, 26, 28, 36),
    (29, 32, 35, 40),
    (43, 44),
    (45, 46),
    (51, 52),
    (55, 56),
    (63, 64),
)
# Small moduli for the vanishing-sum searches, grouped the same way
# (under 0.03 s, about 0.13 s, 0.3 s and 0.7 s for L = 1..7).  The last two
# are fixed: the search memo is a large share of the peak memory, and it
# differs between moduli of equal cost.
VANISHING_GROUPS = (
    (5, 6, 7, 8, 9, 10, 12, 14),
    (15, 16, 18, 20, 24, 30, 36, 42),
    (21, 22),
    (28,),
    (27,),
)
# Counts recorded at the seed commit: (all vanishing multisets, minimal ones).
MINIMAL_COUNTS = {(30, 6): (1061, 61), (12, 4): (31, 10)}

SIZES = {
    "full": {
        "sweep_range": (3, 330),
        "sweep_count": 100,
        "query_groups": QUERY_GROUPS,
        "query_per_modulus": {"tuple": 60, "mitm_low": 10, "mitm5": 15, "mitm6": 30, "growth": 30},
        "vanishing_groups": VANISHING_GROUPS,
        "max_len": 7,
        "minimal": (30, 6),
        "emit_json_n": 240,
        "emit_csv_n": 180,
        "cjk": ["--cutoff", "1000000"],
    },
    "tiny": {
        "sweep_range": (3, 30),
        "sweep_count": 5,
        "query_groups": ((12, 14), (15, 16)),
        "query_per_modulus": {"tuple": 6, "mitm_low": 3, "mitm5": 2, "mitm6": 2, "growth": 4},
        "vanishing_groups": ((5, 6), (10, 12)),
        "max_len": 5,
        "minimal": (12, 4),
        "emit_json_n": 12,
        "emit_csv_n": 10,
        "cjk": ["--cutoff", "10000", "--n-list", "8", "16", "32"],
    },
}


FAILED = object()  # what Tally.call returns for an op that raised


class Tally:
    """Timed calls, op counts, failures and speed samples of one rep.

    Only the time inside ``call`` counts towards ``wall``; checks run
    outside it, and with the tracer paused (``aside``) so they add no spans.
    While ``sampling`` is active a timer signal runs the reference job every
    REF_EVERY_S of wall time; its time is taken back out of ``wall`` and
    kept in ``stolen`` so the tracer can take it out of spans too.  Every
    op has its own label, and failures are keyed by it, so an op fails at
    most once, however many checks it misses, and k wrong answers to k
    equal questions count k times.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.ref: list[float] = []
        self.stolen: list[tuple[float, float]] = []
        self._stolen_s = 0.0
        self.attempted = 0
        self.ops = 0
        self.bytes_out = 0
        self.labels: set[str] = set()
        self.failures: dict[str, str] = {}

    def call(self, label, fn, *args):
        """fn(*args) on the clock; FAILED if it raised."""
        if label in self.labels:
            raise ValueError(f"op label {label!r} used twice")
        self.labels.add(label)
        self.attempted += 1
        stolen0 = self._stolen_s
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raise is a failed op, not a crashed rep
            self.wall += perf_counter() - t0 - (self._stolen_s - stolen0)
            self.fail(label, f"raised {exc!r}")
            return FAILED
        self.wall += perf_counter() - t0 - (self._stolen_s - stolen0)
        return out

    def sample_reference(self, *_signal) -> None:
        t0 = perf_counter()
        with self.aside():
            self.ref.append(reference_job())
        t1 = perf_counter()
        self.stolen.append((t0, t1))
        self._stolen_s += t1 - t0

    @contextlib.contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGALRM, self.sample_reference)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextlib.contextmanager
    def aside(self):
        if self.tracer is None:
            yield
            return
        was = self.tracer.paused
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = was

    def check(self, ok: bool, label: str, message: str) -> None:
        if not ok:
            self.fail(label, message)

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, message)


# -- sweep -------------------------------------------------------------------


def sweep_moduli(seed: int, size: str) -> list[int]:
    """One modulus from each of ``sweep_count`` strata of similar cost.

    Moduli are ranked by (N/2)^2 * (phi(N) + 30), a proxy for the cost of
    the self-convolution, so each seed's draw costs about the same.
    """
    cfg = SIZES[size]
    lo, hi = cfg["sweep_range"]
    k = cfg["sweep_count"]
    ranked = sorted(range(lo, hi + 1), key=lambda n: ((n // 2 + 1) ** 2 * (oracle.totient(n) + 30), n))
    rng = random.Random(f"sweep:{seed}")
    # ascending, like `dtorus verify bound24`; it also keeps the peak
    # memory (the last tables in the cache) the same from seed to seed
    return sorted(rng.choice(ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k]) for i in range(k))


def run_sweep(D, seed: int, size: str, tally: Tally) -> None:
    brute = []
    for i, n in enumerate(sweep_moduli(seed, size) + [60]):
        label = f"#{i} bound24 n={n}"
        rep = tally.call(label, D.verify_bound24, n)
        if rep is FAILED:
            continue
        tally.ops += 1
        with tally.aside():  # the table was just built: a cache read
            table = D.torus_spectrum(n, 2)
            zero = table.count_of(D.get_context(n).zero)
        counts = [e.count for e in table.entries.values()]
        nonzero_max = max(e.count for k, e in table.entries.items() if not k.is_zero())
        tally.check(sum(counts) == n * n, label, f"counts sum to {sum(counts)}, not {n * n}")
        tally.check(zero == (2 * n - 2 if n % 2 == 0 else 0), label, f"m(0) = {zero}")
        tally.check(rep.max_multiplicity <= 24, label, f"max {rep.max_multiplicity} > 24")
        tally.check(rep.max_multiplicity == nonzero_max, label, "reported max is not the table's")
        if n == 60:
            tally.check(
                (rep.max_multiplicity, len(rep.attained)) == (24, 4),
                label,
                f"n=60 gave ({rep.max_multiplicity}, {len(rep.attained)} keys), not (24, 4 keys)",
            )
        if n <= 60:
            brute.append((label, n, {k.coeffs: e.count for k, e in table.entries.items()}))
    rep = tally.call("table60", D.verify_table60)
    if rep is not FAILED:
        tally.ops += 1
        tally.check(rep.ok and len(rep.row16_extra) == 26, "table60", "table 60 disagrees")
    # Independent N^2 enumeration for the small moduli, after the clock.
    for label, n, got in brute:
        tally.check(got == oracle.torus2_counts(n), label, "table differs from brute force")


# -- query -------------------------------------------------------------------


def query_stream(seed: int, size: str) -> list[tuple]:
    """Questions (kind, n, d, ks), grouped by modulus, seeded order within."""
    cfg = SIZES[size]
    per = cfg["query_per_modulus"]
    rng = random.Random(f"query:{seed}")
    stream = []
    for n in sorted(rng.choice(group) for group in cfg["query_groups"]):
        qs = [("zero", n, d, ()) for d in range(1, 7)]
        for _ in range(per["tuple"]):
            d = rng.randint(1, 3)
            qs.append(("tuple", n, d, tuple(rng.randrange(n) for _ in range(d))))
        for _ in range(per["mitm_low"]):
            d = rng.randint(1, 3)
            ks = tuple(rng.randrange(n) for _ in range(d))
            # the same tuple asked both ways; the two answers must agree
            qs += [("tuple", n, d, ks), ("mitm", n, d, ks)]
        for d, key in ((5, "mitm5"), (6, "mitm6")):
            qs += [("mitm", n, d, tuple(rng.randrange(n) for _ in range(d))) for _ in range(per[key])]
        for _ in range(per["growth"]):
            d = rng.randint(2, 6)
            qs.append(("growth", n, d, tuple(rng.randrange(n) for _ in range(d))))
        rng.shuffle(qs)
        stream += qs
    for group in cfg["vanishing_groups"]:
        n = rng.choice(group)
        stream += [("search", n, length, ()) for length in range(1, cfg["max_len"] + 1)]
    stream.append(("minimal", *cfg["minimal"], ()))
    return stream


def _ask(D, kind, n, d, ks):
    if kind == "zero":
        return D.membership(n, d, D.get_context(n).zero)
    if kind == "tuple":
        return D.multiplicity_of_tuple(n, d, ks)
    if kind == "mitm":
        return D.key_multiplicity(n, d, D.key_of_tuple(n, ks))
    if kind == "growth":
        return D.eigenvalue_growth(n, d, ks)
    if kind == "search":
        return D.find_vanishing_multiset(n, d)
    return D.minimal_vanishing_sums(n, d)


def run_query(D, seed: int, size: str, tally: Tally) -> None:
    answers = []
    for i, (kind, n, d, ks) in enumerate(query_stream(seed, size)):
        label = f"#{i} {kind} n={n} d={d} ks={ks}"
        got = tally.call(label, _ask, D, kind, n, d, ks)
        if got is not FAILED:
            tally.ops += 1
            answers.append((label, kind, n, d, ks, got))
    table_counts: dict[tuple, list[int]] = {}
    for label, kind, n, d, ks, got in answers:
        if kind == "tuple":
            table_counts.setdefault((n, ks), []).append(got)
        with tally.aside():
            _check_query(D, tally, label, kind, n, d, ks, got)
    # every d <= 3 meet-in-the-middle answer against the table count of the
    # same tuple, asked as its own question
    for label, kind, n, d, ks, got in answers:
        if kind == "mitm" and d <= 3:
            counts = table_counts.get((n, ks), [])
            tally.check(bool(counts), label, "the same tuple was not asked of the table")
            for count in counts:
                tally.check(count == got, label, f"table count {count} != meet-in-the-middle count {got}")


def _tuple_key(n, ks):
    return oracle.residue(n, [e for k in ks for e in (k, -k)])


def _in_torus(n, dim, key) -> bool:
    """Whether key is an eigenvalue of T^dim_n, for dim <= 2 (brute force)."""
    if dim == 0:
        return not any(key)
    if dim == 1:
        return any(_tuple_key(n, (k,)) == key for k in range(n))
    return key in oracle.torus2_counts(n)


def _growth_index(n, r) -> bool:
    primes = oracle.prime_divisors(n)
    return any(oracle.in_semigroup(2 * r - 2 * p, primes) for p in primes)


def _check_query(D, tally, label, kind, n, d, ks, got) -> None:
    if kind == "zero":
        want = oracle.zero_is_eigenvalue(n, d)
        tally.check(got == want, label, f"membership {got}, four-case criterion {want}")
        tally.check(got == D.is_zero_eigenvalue(n, d), label, "disagrees with is_zero_eigenvalue")
    elif kind == "tuple" and d == 1:
        want = 1 if ks[0] % n == 0 or 2 * ks[0] % n == 0 else 2
        tally.check(got == want, label, f"multiplicity {got}, expected {want}")
    elif kind == "tuple" and d == 2:
        want = oracle.torus2_counts(n)[_tuple_key(n, ks)]
        tally.check(got == want, label, f"multiplicity {got}, brute force {want}")
    elif kind == "mitm":
        tally.check(got >= 1, label, f"realised key has multiplicity {got}")
    elif kind == "growth":
        _check_growth(tally, label, n, d, ks, got)
    elif kind == "search":
        primes = oracle.prime_divisors(n)
        want = oracle.in_semigroup(d, primes)
        tally.check((got is not None) == want, label, f"search {got}, semigroup {want}")
        if got is not None:
            exps = got.exponents
            tally.check(len(exps) == d and oracle.vanishes(n, exps), label, f"{exps} does not vanish")
    elif kind == "minimal":
        exps = [f.multiset.exponents for f in got]
        ok = len(set(exps)) == len(exps) and all(oracle.vanishes(n, e) for e in exps)
        tally.check(ok, label, "a reported multiset does not vanish or repeats")
        counts = (len(got), sum(1 for f in got if f.minimal))
        tally.check(counts == MINIMAL_COUNTS[(n, d)], label, f"counts {counts}")


def _check_growth(tally, label, n, d, ks, got) -> None:
    """Certificate arithmetic, plus brute-force membership where d - r <= 2."""
    key = _tuple_key(n, ks)
    stop = d + 1
    if got.linear:
        w = got.witness
        ok = (
            1 <= got.r <= d
            and got.residual_dim == d - got.r
            and list(w.primes) == oracle.prime_divisors(n)
            and sum(b * p for b, p in zip(w.coeffs, w.primes)) == 2 * got.r
            and min(w.coeffs) >= 0
            and w.coeffs[w.index_ge2] >= 2
        )
        tally.check(ok, label, f"bad growth certificate {got}")
        if d - got.r <= 2:
            tally.check(_in_torus(n, d - got.r, key), label, "residual eigenvalue is absent")
        stop = got.r
    # no smaller r may already give linear growth
    for r in range(max(1, d - 2), stop):
        if _growth_index(n, r) and _in_torus(n, d - r, key):
            tally.check(False, label, f"r={r} already gives linear growth")


# -- emit --------------------------------------------------------------------


def emit_commands(size: str) -> list[list[str]]:
    cfg = SIZES[size]
    return [
        ["spectrum", "--n", str(cfg["emit_json_n"]), "--d", "2"],
        ["spectrum", "--n", str(cfg["emit_csv_n"]), "--d", "2", "--format", "csv"],
        ["verify", "cjk", "--s", "2", *cfg["cjk"]],
    ]


def run_cli(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_emit(D, seed: int, size: str, tally: Tally) -> None:
    from dtorus import cli

    digests = json.loads(DIGESTS.read_text())
    outputs = []
    # The inputs are fixed, whatever the seed: the stdout digests must be
    # known, and both the time and the peak memory depend on the order.
    for argv in emit_commands(size):
        label = " ".join(argv)
        got = tally.call(label, run_cli, cli.main, argv)
        if got is not FAILED:
            outputs.append((label, argv, *got))
    for label, argv, code, text in outputs:
        data = text.encode()
        tally.bytes_out += len(data)
        tally.check(code == 0, label, f"exit code {code}")
        want = digests.get(label)
        got = hashlib.sha256(data).hexdigest()
        tally.check(got == want, label, f"stdout sha256 {got[:12]} does not match the recorded digest")
        try:
            tally.ops += _check_emit_output(argv, text)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            tally.fail(label, f"output check failed: {exc!r}")


def _check_emit_output(argv, text) -> int:
    """Parse one command's stdout, raise ValueError if wrong; return rows and values."""
    if argv[0] == "verify":
        if not text.rstrip().endswith(" 0 failed"):
            raise ValueError("verify cjk reported failures")
        return sum(1 for line in text.splitlines() if line.startswith(("N=", "continuum")))
    n, d = int(argv[2]), int(argv[4])
    if "csv" in argv:
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        payload = json.loads(text)
        if payload["total"] != str(n**d):
            raise ValueError("bad total")
        rows = payload["entries"]
    if sum(int(r["multiplicity"]) for r in rows) != n**d:
        raise ValueError("multiplicities do not sum to N^d")
    values = [Decimal(r["value_decimal"]) for r in rows]
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError("rows are not strictly ordered by value")
    return len(rows)


RUNNERS = {"sweep": run_sweep, "query": run_query, "emit": run_emit}


def run_rep(workload: str, seed: int, size: str = "full", trace: bool = False) -> dict:
    """Run one rep in this process and return its result record."""
    import dtorus as D
    import dtorus.cli  # noqa: F401  (the emit workload and the tracer need it loaded)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    tally = Tally(tracer)
    tally.sample_reference()
    try:
        with tally.sampling():
            RUNNERS[workload](D, seed, size, tally)
        tally.sample_reference()
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref_s = statistics.median(tally.ref)
    out = {
        "wall_s": to_nominal(tally.wall, ref_s),
        "raw_wall_s": tally.wall,
        "ref_s": ref_s,
        "ops": tally.ops,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": [f"{k}: {v}" for k, v in list(tally.failures.items())[:MAX_MESSAGES]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(tally.wall, tally.bytes_out, tally.stolen)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(RUNNERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, trace=args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
