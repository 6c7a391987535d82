"""Batch command-line frontend with machine-readable, deterministic output.

Subcommands expose every computation; ``verify`` drives the reproduction
checks.  Exit codes: 0 pass, 1 verified-claim failure, 2 resource/budget,
3 internal consistency violation (formula vs enumeration mismatch),
64 usage or input error, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

from json.encoder import encode_basestring_ascii

from .arith import decimal
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
from .cyclotomic import PREC, CycElt, approx_value, get_context, key_embedding
from .errors import BudgetExceeded, Bound24Violated, DtorusError, NotApplicable
from .spectrum import DEFAULT_BUDGET, by_value, check_cycle_keys, membership, multiplicity_of_tuple, torus_spectrum
from .vanishing import (
    classify_cos4,
    find_vanishing_multiset,
    is_symmetric_rotation,
    minimal_vanishing_sums,
    w_membership,
)
from .zeta import check_cutoff, cjk_gap, cjk_ratio, cjk_table, exceeds, zeta_continuum_partial, zeta_discrete

SCHEMA = 1
# no flag sizes the per-modulus power tables: cyclotomic.MAX_CONTEXT_DIGITS caps
# the context's packed powers, 64 times as many bits cap key_embedding's powers
# of omega, and a larger table exits 2 (BudgetExceeded) before allocating


def _decimal(x, digits: int = 30) -> str:
    """A value to ``digits`` >= 1 significant digits as mpmath.nstr writes
    it (arith.decimal): an int m stands for m / 2^PREC (approx_value), a
    pair (m, e) for m 2^e (dtorus.zeta's values)."""
    if type(x) is int:
        return decimal(x, -PREC, digits)
    return decimal(*x, digits)


# the table fields: each is an iterable of row tuples in the order of its columns
TABLE_COLUMNS = {
    "entries": ("value_decimal", "key_coeffs", "multiplicity", "representative"),
    "sums": ("exponents", "minimal", "symmetric"),
}


@functools.lru_cache(maxsize=64)
def _joiner(count: int, sep: str) -> str:
    """A format that writes ``count`` values as str() writes them, sep between:
    _joiner(len(v), sep) % tuple(v) is sep.join(map(str, v)), in one pass."""
    return sep.join(["%s"] * count)


def _json(v, pad: str = "\n") -> str:
    """json.dumps(v, indent=2) for a v whose dict keys are strings; pad is
    the newline and the indent of the line that v starts on.

    A string is escaped by the encoder json.dumps uses for it, a list of
    plain ints is one format (_joiner), and other scalars go through
    json.dumps.
    """
    if type(v) is str:
        return encode_basestring_ascii(v)
    if v and isinstance(v, (list, tuple, dict)):
        inner = pad + "  "
        if isinstance(v, dict):
            items = (_json(k) + ": " + _json(x, inner) for k, x in v.items())
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        if set(map(type, v)) == {int}:  # bools are ints, but json writes them apart
            return "[" + inner + _joiner(len(v), "," + inner) % tuple(v) + pad + "]"
        items = (_json(x, inner) for x in v)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(v)


def _cell(v):
    """A field as one csv cell or text value: a list space-joined, None empty."""
    if isinstance(v, (list, tuple)):
        return _joiner(len(v), " ") % tuple(v)
    return "" if v is None else v


def _emit(args, fields: dict) -> int:
    """Prints ``schema``, ``command`` and ``fields`` in ``--format``; returns 0.

    A table field (TABLE_COLUMNS) may be any iterable of row tuples, a
    generator included: each row is written as it is taken, so only one row
    is held at a time.  json prints what json.dumps(indent=2) would print
    with each row a dict under the table's columns; csv prints one row per
    table row under the table's columns, even with no rows, and otherwise
    one row of all the fields; text prints each field but the table as
    ``name: cell`` (_cell), then the table rows, a tuple cell as a list.
    """
    payload = {"schema": SCHEMA, "command": args.command, **fields}
    table = next((k for k in payload if k in TABLE_COLUMNS), None)
    columns, rows = TABLE_COLUMNS.get(table, ()), payload.get(table, ())
    if args.format == "json":
        # the payload's dict and the table's list are written here, a row at a
        # time, with the layout _json gives them; each row is a dict at depth 2
        write = sys.stdout.write
        pad = "\n      "
        names = [pad + _json(c) + ": " for c in columns]  # once per table
        sep = "{\n  "
        for k, v in payload.items():
            write(sep + _json(k) + ": ")
            sep = ",\n  "
            if k != table:
                write(_json(v, "\n  "))
                continue
            empty = True
            for row in rows:
                cells = ",".join([name + _json(cell, pad) for name, cell in zip(names, row)])
                write(("[" if empty else ",") + "\n    {" + cells + "\n    }")
                empty = False
            write("[]" if empty else "\n  ]")
        write("\n}\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns or payload)
        for row in rows if table else [payload.values()]:
            writer.writerow(map(_cell, row))
    else:
        for k, v in payload.items():
            if k != table:
                print(f"{k}: {_cell(v)}")
        for row in rows:
            print("  " + "  ".join(f"{k}={list(v) if type(v) is tuple else v}" for k, v in zip(columns, row)))
    return 0


def cmd_spectrum(args) -> int:
    check_cycle_keys(args.n, args.budget)
    get_context(args.n)  # refuses a modulus over the context cap before any table work
    table = torus_spectrum(args.n, args.d, args.budget)
    # a generator: each row's key and coefficients are built as _emit writes it
    rows = (
        (_decimal(mid), table.key_of(e.representative).coeffs, str(e.count), e.representative)
        for mid, _, e in by_value(table, table.counts)
    )
    fields = {
        "n": args.n,
        "d": args.d,
        "total": str(table.total),
        "entries": rows,
    }
    return _emit(args, fields)


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_mult(args) -> int:
    ks = _parse_tuple(args.tuple)
    mult = multiplicity_of_tuple(args.n, args.d, ks, args.budget)
    closed = d2_closed_form(args.n, *ks) if args.d == 2 else None
    # F is injective on the keys of T^d_n and zero, so F = 0 is exactly the empty sum
    exps = [e for k in ks for e in (k, -k)] if key_embedding(args.n, 2 * args.d).cos_image(ks) else ()
    fields = {
        "n": args.n,
        "d": args.d,
        "tuple": list(ks),
        "multiplicity": str(mult),
        "value_decimal": _decimal(approx_value(args.n, exps)),
        "closed_form": None if closed is None else str(closed),
    }
    _emit(args, fields)
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
    fields = {
        "n": args.n,
        "d": args.d,
        "tuple": list(ks),
        "classification": g.tag,
        "r": g.r,
        "residual_dim": g.residual_dim,
        "witness": _witness_payload(g.witness),
    }
    return _emit(args, fields)


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
    fields = {
        "n": args.n,
        "d": args.d,
        "is_eigenvalue": exists,
        "growth": growth,
    }
    return _emit(args, fields)


def cmd_cos4(args) -> int:
    c = classify_cos4(args.angles)
    fields = {
        "angles": [str(a) for a in args.angles],
        "family": c.family,
        "parameters": [str(p) for p in c.parameters],
        "quadruple": None if c.quadruple is None else [str(a) for a in c.quadruple],
        "overlaps": list(c.overlaps),
    }
    return _emit(args, fields)


def cmd_vanishing(args) -> int:
    rows = []
    for s in minimal_vanishing_sums(args.n, args.max_len, args.budget):
        try:
            sym = is_symmetric_rotation(s.multiset)
        except NotApplicable:
            sym = None
        rows.append((list(s.multiset.exponents), s.minimal, None if sym is None else list(sym)))
    fields = {
        "n": args.n,
        "max_len": args.max_len,
        "sums": rows,
    }
    return _emit(args, fields)


def cmd_zeta(args) -> int:
    if args.cutoff is not None:
        if not args.s > 1:
            raise ValueError("the continuum partial sum (--cutoff) needs s > 1")
        check_cutoff(args.cutoff, args.budget)
    zv = zeta_discrete(args.n, args.d, args.s, args.budget)
    fields = {
        "n": args.n,
        "d": args.d,
        "s": args.s,
        "value_decimal": _decimal(zv.value),
        "error_decimal": _decimal(zv.error, 5),
    }
    if args.cutoff is not None:
        fields["continuum_decimal"] = _decimal(
            zeta_continuum_partial(args.s, args.cutoff, args.budget)
        )
    return _emit(args, fields)


# ---------------------------------------------------------------------------
# verify


def _checks(check):
    """The verify command that runs ``check``, a generator of (ok, message) pairs.

    After the check has run, it prints a FAIL line per failed pair and the
    summary, and exits 1 if any pair failed.
    """

    def run(args) -> int:
        failures = []
        passed = 0
        for ok, message in check(args):
            if ok:
                passed += 1
            else:
                failures.append(message)
        for message in failures:
            print(f"FAIL {message}")
        print(f"summary: {passed} checks passed, {len(failures)} failed")
        return 1 if failures else 0

    return run


@_checks
def verify_bound24_cmd(args):
    best = (0, None)
    seen: Counter = Counter()
    rep60 = None
    for n in range(3, args.nmax + 1):
        try:
            rep = verify_bound24(n, args.budget)
        except Bound24Violated as exc:
            yield False, f"n={n}: {exc}"
            continue
        yield True, ""
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
        ok = rep60.max_multiplicity == 24 and len(rep60.images) == 4
        yield ok, f"n=60: expected 24 at four keys, got {rep60.max_multiplicity}"


def verify_table60_cmd(args) -> int:
    rep = verify_table60(args.budget)
    print(f"{'mult':>4}  {'value':>33}  representative")
    for mid, _, e in rep.high:
        print(f"{e.count:>4}  {_decimal(mid):>33}  {e.representative}")
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


@_checks
def verify_zero_cmd(args):
    for n in range(3, args.nmax + 1):
        zero = CycElt(n, 0)
        for d in range(1, args.dmax + 1):
            formula = is_zero_eigenvalue(n, d)
            spectral = membership(n, d, zero, args.budget)
            yield formula == spectral, f"n={n} d={d}: formula {formula}, spectrum {spectral}"


@_checks
def verify_cjk_cmd(args):
    rows, ref = cjk_table(args.s, args.n_list, args.cutoff, args.budget)
    gaps = [cjk_gap(row.value, ref) for row in rows]
    for row, gap in zip(rows, gaps):
        print(f"N={row.n}: rescaled zeta {_decimal(row.value)} gap {_decimal(gap, 6)}")
    print(f"continuum reference (cutoff {args.cutoff}): {_decimal(ref)}")
    for i in range(len(gaps) - 1):
        yield exceeds(gaps[i], gaps[i + 1]), f"gap did not shrink from N={rows[i].n} to N={rows[i+1].n}"
    if gaps:
        ratio = cjk_ratio(gaps[-1], ref)
        man, den = (0.02).as_integer_ratio()  # the float 0.02, exactly
        yield exceeds((man, 1 - den.bit_length()), ratio), f"final relative gap {_decimal(ratio, 6)} not below 2%"


@_checks
def verify_semigroup_cmd(args):
    for n in (5, 6, 10, 15, 21, 30):
        for length in range(1, args.lmax + 1):
            found = find_vanishing_multiset(n, length, args.budget)
            member = w_membership(n, length)[0]
            yield (found is not None) == member, f"n={n} L={length}: search {found}, semigroup {member}"
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            floor = max((p - 1) * (q - 2), p + q + 1)
            for two_d in range(floor + floor % 2, floor + 41, 2):
                # raises AssertionError (exit 3) on a bad witness
                lowerbound_pq_witness(p, q, two_d // 2)
                yield True, ""
            yield pq_optimality_check(p, q), f"p={p} q={q}: optimality check failed"


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


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below the minimum {low}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


class _Increasing(argparse.Action):
    """Stores a list of values that strictly increase; verify cjk checks a gap
    shrinking along it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if any(a >= b for a, b in zip(values, values[1:])):
            raise argparse.ArgumentError(self, f"values must strictly increase, got {' '.join(map(str, values))}")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Raises on usage errors: argparse's own exit code 2 is the budget code."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # string defaults are parsed like command-line values, so a bad
    # DTORUS_BUDGET is a usage error
    common.add_argument(
        "--budget",
        type=_int_at_least(1),
        default=os.environ.get("DTORUS_BUDGET", str(DEFAULT_BUDGET)),
        help="max distinct eigenvalue keys per table, states a vanishing search visits, "
        "or continuum zeta cutoff",
    )

    parser = _Parser(
        prog="dtorus",
        description="Exact spectra and eigenvalue multiplicities of discrete tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, dims=(), **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        for flag in dims:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(func=func)
        return p

    nd = ("--n", "--d")
    command(sub, "spectrum", cmd_spectrum, nd, help="full spectrum table of T^d_N")
    p = command(sub, "mult", cmd_mult, nd, help="multiplicity of one index tuple")
    p.add_argument("--tuple", required=True, help="comma-separated indices, e.g. 24,10")
    p = command(sub, "growth", cmd_growth, nd, help="bounded-vs-linear growth classification")
    p.add_argument("--tuple", required=True)
    command(sub, "zero", cmd_zero, nd, help="zero-eigenvalue criterion and growth")
    p = command(sub, "cos4", cmd_cos4, help="classify a vanishing sum of four cosines")
    p.add_argument("angles", nargs=4, type=_rational, help="angles in units of pi, e.g. 2/5")
    p = command(sub, "vanishing", cmd_vanishing, ("--n",), help="enumerate vanishing root multisets")
    p.add_argument("--max-len", type=_int_at_least(1), required=True)
    p = command(sub, "zeta", cmd_zeta, nd, help="discrete spectral zeta value")
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--cutoff", type=_int_at_least(0), help="also print the continuum partial sum")
    for p in sub.choices.values():  # every command so far prints a payload; --format ends its help
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    v = sub.add_parser("verify", help="reproduction checks")
    vsub = v.add_subparsers(dest="check", required=True)
    # an empty range would check nothing and still pass
    p = command(vsub, "bound24", verify_bound24_cmd)
    p.add_argument("--nmax", type=_int_at_least(3), default=420)
    command(vsub, "table60", verify_table60_cmd)
    p = command(vsub, "zero", verify_zero_cmd)
    p.add_argument("--nmax", type=_int_at_least(3), default=60)
    p.add_argument("--dmax", type=_int_at_least(1), default=6)
    p = command(vsub, "cjk", verify_cjk_cmd)
    p.add_argument("--s", type=_finite_float, default=2.0)
    p.add_argument("--cutoff", type=_int_at_least(1), default=10**6)
    p.add_argument("--n-list", type=_int_at_least(3), nargs="+", action=_Increasing, default=[16, 32, 64, 128])
    p = command(vsub, "semigroup", verify_semigroup_cmd)
    p.add_argument("--lmax", type=_int_at_least(1), default=8)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (DtorusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except AssertionError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; with stdout on devnull the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
