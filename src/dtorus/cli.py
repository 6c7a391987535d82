"""Batch command-line frontend with machine-readable, deterministic output.

Subcommands expose every computation; ``verify`` drives the reproduction
checks.  Exit codes: 0 pass, 1 verified-claim failure, 2 resource/budget,
3 internal consistency violation (formula vs enumeration mismatch),
64 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

import mpmath

from .criteria import (
    d2_closed_form,
    eigenvalue_growth,
    is_zero_eigenvalue,
    lowerbound_pq_witness,
    pq_optimality_check,
    verify_bound24,
    verify_table60,
    zero_growth,
)
from .cyclotomic import approx_value, get_context, key_of_tuple
from .errors import BudgetExceeded, Bound24Violated, DtorusError, NotApplicable
from .spectrum import (
    DEFAULT_BUDGET,
    SpectrumTable,
    membership,
    multiplicity_of_tuple,
    torus_spectrum,
)
from .vanishing import (
    classify_cos4,
    find_vanishing_multiset,
    is_symmetric_rotation,
    minimal_vanishing_sums,
    w_membership,
)
from .zeta import check_cutoff, cjk_table, zeta_continuum_partial, zeta_discrete

SCHEMA = 1
# --bits cap: outputs print 30 digits, and the cost of the certified cos/sin
# tables grows fast with the precision (100000 bits ran for minutes)
MAX_BITS = 4096
# no flag sizes the cyclotomic context of a modulus: cyclotomic.MAX_CONTEXT_DIGITS
# caps it, and a larger one exits 2 (BudgetExceeded) before allocating


def _decimal(x, digits: int = 30) -> str:
    # re-wrapping an mpf would round it to the ambient precision
    if not isinstance(x, mpmath.mpf):
        x = mpmath.mpf(x)
    return mpmath.nstr(x, digits)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        _emit_csv(payload)
    else:
        _emit_text(payload)


def _emit_csv(payload: dict) -> None:
    rows = payload.get("entries") or payload.get("sums") or [payload]
    out = io.StringIO()
    fields = list(rows[0].keys()) if rows else []
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: " ".join(str(x) for x in v) if isinstance(v, (list, tuple)) else v
                for k, v in row.items()
            }
        )
    sys.stdout.write(out.getvalue())


def _emit_text(payload: dict) -> None:
    rows = payload.get("entries") or payload.get("sums")
    scalars = {k: v for k, v in payload.items() if not isinstance(v, list)}
    for k, v in scalars.items():
        print(f"{k}: {v}")
    if rows:
        for row in rows:
            print("  " + "  ".join(f"{k}={row[k]}" for k in row))


def _spectrum_rows(table: SpectrumTable, bits: int) -> list[dict]:
    rows = []
    for value, key, e in table.sorted_entries(bits):
        rows.append(
            {
                "value_decimal": _decimal(value.real),
                "key_coeffs": list(key.coeffs),
                "multiplicity": str(e.count),
                "representative": list(e.representative),
            }
        )
    return rows


def cmd_spectrum(args) -> int:
    get_context(args.n)  # refuses a modulus over the context cap before any table work
    table = torus_spectrum(args.n, args.d, args.budget)
    payload = {
        "schema": SCHEMA,
        "command": "spectrum",
        "n": args.n,
        "d": args.d,
        "total": str(table.total),
        "entries": _spectrum_rows(table, args.bits),
    }
    _emit(payload, args.format)
    return 0


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_mult(args) -> int:
    ks = _parse_tuple(args.tuple)
    ctx = get_context(args.n)  # refuses a modulus over the context cap before any table work
    mult = multiplicity_of_tuple(args.n, args.d, ks, args.budget)
    closed = d2_closed_form(args.n, *ks) if args.d == 2 else None
    key = key_of_tuple(args.n, ks)
    payload = {
        "schema": SCHEMA,
        "command": "mult",
        "n": args.n,
        "d": args.d,
        "tuple": list(ks),
        "multiplicity": str(mult),
        "value_decimal": _decimal(approx_value(ctx, key, args.bits).real),
        "closed_form": None if closed is None else str(closed),
    }
    _emit(payload, args.format)
    if closed is not None and closed != mult:
        print(
            f"closed form {closed} disagrees with enumeration {mult}",
            file=sys.stderr,
        )
        return 3
    return 0


def _witness_payload(w) -> dict | None:
    if w is None:
        return None
    return {
        "r": w.r,
        "primes": list(w.primes),
        "coeffs": list(w.coeffs),
        "index_ge2": w.index_ge2,
    }


def cmd_growth(args) -> int:
    ks = _parse_tuple(args.tuple)
    g = eigenvalue_growth(args.n, args.d, ks, args.budget)
    payload = {
        "schema": SCHEMA,
        "command": "growth",
        "n": args.n,
        "d": args.d,
        "tuple": list(ks),
        "classification": g.tag,
        "r": g.r,
        "residual_dim": g.residual_dim,
        "witness": _witness_payload(g.witness),
    }
    _emit(payload, args.format)
    return 0


def cmd_zero(args) -> int:
    exists = is_zero_eigenvalue(args.n, args.d)
    growth = None
    if exists:
        g = zero_growth(args.n, args.d)
        growth = {
            "classification": g.tag,
            "r": g.r,
            "witness": _witness_payload(g.witness),
        }
    payload = {
        "schema": SCHEMA,
        "command": "zero",
        "n": args.n,
        "d": args.d,
        "is_eigenvalue": exists,
        "growth": growth,
    }
    _emit(payload, args.format)
    return 0


def cmd_cos4(args) -> int:
    c = classify_cos4(args.angles)
    payload = {
        "schema": SCHEMA,
        "command": "cos4",
        "angles": [str(a) for a in args.angles],
        "family": c.family,
        "parameters": [str(p) for p in c.parameters],
        "quadruple": None if c.quadruple is None else [str(a) for a in c.quadruple],
        "overlaps": list(c.overlaps),
    }
    _emit(payload, args.format)
    return 0


def cmd_vanishing(args) -> int:
    sums = minimal_vanishing_sums(args.n, args.max_len, args.budget)
    rows = []
    for s in sums:
        try:
            sym = is_symmetric_rotation(s.multiset)
        except NotApplicable:
            sym = None
        rows.append(
            {
                "exponents": list(s.multiset.exponents),
                "minimal": s.minimal,
                "symmetric": None if sym is None else list(sym),
            }
        )
    payload = {
        "schema": SCHEMA,
        "command": "vanishing",
        "n": args.n,
        "max_len": args.max_len,
        "sums": rows,
    }
    _emit(payload, args.format)
    return 0


def cmd_zeta(args) -> int:
    if args.cutoff is not None:
        if not args.s > 1:
            raise ValueError("the continuum partial sum (--cutoff) needs s > 1")
        check_cutoff(args.cutoff, args.budget)
    get_context(args.n)  # refuses a modulus over the context cap before any table work
    zv = zeta_discrete(args.n, args.d, args.s, args.bits, args.budget)
    payload = {
        "schema": SCHEMA,
        "command": "zeta",
        "n": args.n,
        "d": args.d,
        "s": args.s,
        "value_decimal": _decimal(zv.value),
        "error_decimal": _decimal(zv.error, 5),
    }
    if args.cutoff is not None:
        payload["continuum_decimal"] = _decimal(
            zeta_continuum_partial(args.s, args.cutoff, args.budget)
        )
    _emit(payload, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verdict(failures: list[str], passed: int) -> int:
    for line in failures:
        print(f"FAIL {line}")
    print(f"summary: {passed} checks passed, {len(failures)} failed")
    return 1 if failures else 0


def verify_bound24_cmd(args) -> int:
    failures: list[str] = []
    passed = 0
    best = (0, None)
    seen: Counter = Counter()
    rep60 = None
    for n in range(3, args.nmax + 1):
        try:
            rep = verify_bound24(n, args.budget)
        except Bound24Violated as exc:
            failures.append(f"n={n}: {exc}")
            continue
        passed += 1
        seen[rep.max_multiplicity] += 1
        if n == 60:
            rep60 = rep
        if rep.max_multiplicity > best[0]:
            best = (rep.max_multiplicity, n)
            print(f"N={n:>4}: new maximum {best[0]}")
    print("max multiplicity -> number of N attaining it:")
    for mult in sorted(seen):
        print(f"  {mult:>3}: {seen[mult]}")
    print(f"max nonzero multiplicity {best[0]} first attained at N={best[1]}")
    if rep60 is not None:
        if rep60.max_multiplicity == 24 and len(rep60.attaining) == 4:
            passed += 1
        else:
            failures.append(f"n=60: expected 24 at four keys, got {rep60.max_multiplicity}")
    return _verdict(failures, passed)


def verify_table60_cmd(args) -> int:
    rep = verify_table60(args.budget, args.bits)
    print(f"{'mult':>4}  {'value':>33}  representative")
    for value, _, e in rep.high:
        print(f"{e.count:>4}  {_decimal(value.real):>33}  {e.representative}")
    for mult in sorted(rep.printed):
        got = rep.computed.get(mult, frozenset())
        listed = rep.printed[mult]
        status = "ok" if listed <= got else "MISSING"
        print(f"multiplicity {mult}: {len(listed)} listed eigenvalues {status}; computed row size {len(got)}")
    if rep.row16_extra:
        print(
            f"note: row 16 as published is incomplete; {len(rep.row16_extra)} further "
            "eigenvalues share multiplicity 16 (e.g. 2cos(pi/30))"
        )
    print(f"summary: {'pass' if rep.ok else 'fail'}")
    return 0 if rep.ok else 1


def verify_zero_cmd(args) -> int:
    failures: list[str] = []
    passed = 0
    for n in range(3, args.nmax + 1):
        zero = get_context(n).zero
        for d in range(1, args.dmax + 1):
            formula = is_zero_eigenvalue(n, d)
            spectral = membership(n, d, zero, args.budget)
            if formula == spectral:
                passed += 1
            else:
                failures.append(f"n={n} d={d}: formula {formula}, spectrum {spectral}")
    return _verdict(failures, passed)


def verify_cjk_cmd(args) -> int:
    rows, ref = cjk_table(args.s, args.n_list, args.cutoff, args.bits, args.budget)
    failures: list[str] = []
    passed = 0
    gaps = []
    for row in rows:
        gap = abs(row.value - ref)
        gaps.append(gap)
        print(f"N={row.n}: rescaled zeta {_decimal(row.value)} gap {_decimal(gap, 6)}")
    print(f"continuum reference (cutoff {args.cutoff}): {_decimal(ref)}")
    for i in range(len(gaps) - 1):
        if gaps[i] > gaps[i + 1]:
            passed += 1
        else:
            failures.append(f"gap did not shrink from N={rows[i].n} to N={rows[i+1].n}")
    if gaps and gaps[-1] / ref < 0.02:
        passed += 1
    elif gaps:
        failures.append(f"final relative gap {_decimal(gaps[-1] / ref, 6)} not below 2%")
    return _verdict(failures, passed)


def verify_semigroup_cmd(args) -> int:
    failures: list[str] = []
    passed = 0
    for n in (5, 6, 10, 15, 21, 30):
        for length in range(1, args.lmax + 1):
            found = find_vanishing_multiset(n, length, args.budget)
            member = w_membership(n, length)[0]
            if (found is not None) == member:
                passed += 1
            else:
                failures.append(f"n={n} L={length}: search {found}, semigroup {member}")
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            floor = max((p - 1) * (q - 2), p + q + 1)
            for two_d in range(floor + floor % 2, floor + 41, 2):
                k1, k2 = lowerbound_pq_witness(p, q, two_d // 2)
                if k1 * p + k2 * q == two_d and max(k1, k2) >= 2:
                    passed += 1
                else:
                    failures.append(f"p={p} q={q} 2d={two_d}: bad witness ({k1}, {k2})")
            if pq_optimality_check(p, q):
                passed += 1
            else:
                failures.append(f"p={p} q={q}: optimality check failed")
    return _verdict(failures, passed)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return x


_finite_float.__name__ = "float"  # argparse names the type in its "invalid float value" message


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below the minimum {low}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"{text} is above the maximum {high}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


class _Parser(argparse.ArgumentParser):
    """Raises on usage errors: argparse's own exit code 2 is the budget code."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # string defaults are parsed like command-line values, so a bad
    # DTORUS_BUDGET or DTORUS_BITS is a usage error
    common.add_argument(
        "--budget",
        type=_int_at_least(1),
        default=os.environ.get("DTORUS_BUDGET", str(DEFAULT_BUDGET)),
        help="max distinct eigenvalue keys per table, states a vanishing search visits, "
        "or continuum zeta cutoff",
    )
    common.add_argument(
        "--bits",
        type=_int_at_least(64, MAX_BITS),
        default=os.environ.get("DTORUS_BITS", "128"),
        help="evaluation precision in bits",
    )

    parser = _Parser(
        prog="dtorus",
        description="Exact spectra and eigenvalue multiplicities of discrete tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("spectrum", parents=[common], help="full spectrum table of T^d_N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mult", parents=[common], help="multiplicity of one index tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tuple", required=True, help="comma-separated indices, e.g. 24,10")
    add_format(p)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("growth", parents=[common], help="bounded-vs-linear growth classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tuple", required=True)
    add_format(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("zero", parents=[common], help="zero-eigenvalue criterion and growth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_zero)

    p = sub.add_parser("cos4", parents=[common], help="classify a vanishing sum of four cosines")
    p.add_argument("angles", nargs=4, type=_rational, help="angles in units of pi, e.g. 2/5")
    add_format(p)
    p.set_defaults(func=cmd_cos4)

    p = sub.add_parser("vanishing", parents=[common], help="enumerate vanishing root multisets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=_int_at_least(1), required=True)
    add_format(p)
    p.set_defaults(func=cmd_vanishing)

    p = sub.add_parser("zeta", parents=[common], help="discrete spectral zeta value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--cutoff", type=_int_at_least(0), help="also print the continuum partial sum")
    add_format(p)
    p.set_defaults(func=cmd_zeta)

    v = sub.add_parser("verify", help="reproduction checks")
    vsub = v.add_subparsers(dest="check", required=True)

    # an empty range would check nothing and still pass
    p = vsub.add_parser("bound24", parents=[common])
    p.add_argument("--nmax", type=_int_at_least(3), default=420)
    p.set_defaults(func=verify_bound24_cmd)

    p = vsub.add_parser("table60", parents=[common])
    p.set_defaults(func=verify_table60_cmd)

    p = vsub.add_parser("zero", parents=[common])
    p.add_argument("--nmax", type=_int_at_least(3), default=60)
    p.add_argument("--dmax", type=_int_at_least(1), default=6)
    p.set_defaults(func=verify_zero_cmd)

    p = vsub.add_parser("cjk", parents=[common])
    p.add_argument("--s", type=_finite_float, default=2.0)
    p.add_argument("--cutoff", type=_int_at_least(1), default=10**6)
    p.add_argument("--n-list", type=_int_at_least(3), nargs="+", default=[16, 32, 64, 128])
    p.set_defaults(func=verify_cjk_cmd)

    p = vsub.add_parser("semigroup", parents=[common])
    p.add_argument("--lmax", type=_int_at_least(1), default=8)
    p.set_defaults(func=verify_semigroup_cmd)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except Bound24Violated as exc:
        print(f"claim violated: {exc}", file=sys.stderr)
        return 1
    except (DtorusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except AssertionError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
