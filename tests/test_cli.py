import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dtorus
from dtorus import cli, criteria, cyclotomic, spectrum, zeta
from dtorus.cli import main
from dtorus.errors import Bound24Violated
from helpers import spectrum_output, traced_peak

GOLDEN_DIR = Path(__file__).parent / "golden"

# stdout recorded from the CLI; any change to these bytes is a regression
GOLDEN = {
    "spectrum_12x2_json": ["spectrum", "--n", "12", "--d", "2"],
    "spectrum_12x2_csv": ["spectrum", "--n", "12", "--d", "2", "--format", "csv"],
    "spectrum_12x2_text": ["spectrum", "--n", "12", "--d", "2", "--format", "text"],
    "spectrum_60x2": ["spectrum", "--n", "60", "--d", "2"],
    "spectrum_30x3": ["spectrum", "--n", "30", "--d", "3"],
    "mult_60x2": ["mult", "--n", "60", "--d", "2", "--tuple", "24,10"],
    "growth_15x4": ["growth", "--n", "15", "--d", "4", "--tuple", "1,0,5,10"],
    "zero_10x3": ["zero", "--n", "10", "--d", "3"],
    "cos4": ["cos4", "2/5", "4/5", "1/2", "1/3"],
    "vanishing_30": ["vanishing", "--n", "30", "--max-len", "5"],
    "zeta_16x2": ["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "10000"],
    "verify_zero": ["verify", "zero", "--nmax", "12", "--dmax", "3"],
    "verify_semigroup": ["verify", "semigroup", "--lmax", "5"],
    "verify_cjk": ["verify", "cjk", "--cutoff", "10000", "--n-list", "8", "16", "32"],
    "verify_table60": ["verify", "table60"],
    "verify_bound24": ["verify", "bound24", "--nmax", "70"],
    "mult_60x2_csv": ["mult", "--n", "60", "--d", "2", "--tuple", "24,10", "--format", "csv"],
    "mult_60x2_text": ["mult", "--n", "60", "--d", "2", "--tuple", "24,10", "--format", "text"],
    "growth_15x4_csv": ["growth", "--n", "15", "--d", "4", "--tuple", "1,0,5,10", "--format", "csv"],
    "growth_15x4_text": ["growth", "--n", "15", "--d", "4", "--tuple", "1,0,5,10", "--format", "text"],
    "zero_12x2_csv": ["zero", "--n", "12", "--d", "2", "--format", "csv"],
    "zero_12x2_text": ["zero", "--n", "12", "--d", "2", "--format", "text"],
    "zero_10x3_csv": ["zero", "--n", "10", "--d", "3", "--format", "csv"],
    "zero_10x3_text": ["zero", "--n", "10", "--d", "3", "--format", "text"],
    "cos4_csv": ["cos4", "2/5", "4/5", "1/2", "1/3", "--format", "csv"],
    "cos4_text": ["cos4", "2/5", "4/5", "1/2", "1/3", "--format", "text"],
    "vanishing_6_csv": ["vanishing", "--n", "6", "--max-len", "3", "--format", "csv"],
    "vanishing_6_text": ["vanishing", "--n", "6", "--max-len", "3", "--format", "text"],
    "zeta_16x2_c1000_csv": ["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "1000", "--format", "csv"],
    "zeta_16x2_c1000_text": ["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "1000", "--format", "text"],
    "zeta_16x2_s2.5_c1000_text": ["zeta", "--n", "16", "--d", "2", "--s", "2.5", "--cutoff", "1000", "--format", "text"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_json_small(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["total"] == "16"
    zero_rows = [r for r in payload["entries"] if all(c == 0 for c in r["key_coeffs"])]
    assert len(zero_rows) == 1 and zero_rows[0]["multiplicity"] == "6"


def test_spectrum_two_rows(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--d", "1")
    payload = json.loads(out)
    assert code == 0
    assert [r["multiplicity"] for r in payload["entries"]] == ["1", "2"]
    assert payload["entries"][0]["value_decimal"].startswith("2.0")


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value_decimal,key_coeffs,multiplicity,representative"
    assert len(lines) == 1 + 3


def test_mult_examples(capsys):
    code, out, _ = run_cli(capsys, "mult", "--n", "60", "--d", "2", "--tuple", "24,10")
    assert code == 0 and json.loads(out)["multiplicity"] == "24"
    code, out, _ = run_cli(capsys, "mult", "--n", "12", "--d", "2", "--tuple", "0,6")
    assert code == 0 and json.loads(out)["multiplicity"] == "22"
    code, out, _ = run_cli(capsys, "mult", "--n", "5", "--d", "2", "--tuple", "0,0")
    payload = json.loads(out)
    assert code == 0 and payload["multiplicity"] == "1" and payload["closed_form"] == "1"


def test_zero_value_is_exact(capsys, monkeypatch):
    # the zero value comes from F = 0, not from the cosine tables: tables
    # one unit off everywhere would leave a vanishing sum nonzero
    tables = cyclotomic._fixed_tables
    monkeypatch.setattr(cyclotomic, "_fixed_tables", lambda n, prec: tuple(c + 1 for c in tables(n, prec)))
    assert cyclotomic.approx_value(5, (0, 0, 1, -1, 1, -1, 2, -2, 2, -2)) != 0
    code, out, _ = run_cli(capsys, "spectrum", "--n", "12", "--d", "2")
    zero_rows = [r for r in json.loads(out)["entries"] if not any(r["key_coeffs"])]
    assert code == 0 and [r["value_decimal"] for r in zero_rows] == ["0.0"]
    code, out, _ = run_cli(capsys, "mult", "--n", "5", "--d", "5", "--tuple", "0,1,1,2,2")
    assert code == 0 and json.loads(out)["value_decimal"] == "0.0"


def test_growth_reports(capsys):
    code, out, _ = run_cli(capsys, "growth", "--n", "15", "--d", "4", "--tuple", "1,0,5,10")
    payload = json.loads(out)
    assert code == 0
    assert payload["classification"] == "LinearGrowth" and payload["r"] == 3
    code, out, _ = run_cli(capsys, "growth", "--n", "60", "--d", "2", "--tuple", "24,10")
    assert json.loads(out)["classification"] == "Bounded"
    code, out, _ = run_cli(capsys, "growth", "--n", "12", "--d", "2", "--tuple", "0,6")
    assert json.loads(out)["r"] == 2


def test_zero_command(capsys):
    code, out, _ = run_cli(capsys, "zero", "--n", "10", "--d", "3")
    payload = json.loads(out)
    assert code == 0 and payload["is_eigenvalue"] is False and payload["growth"] is None
    code, out, _ = run_cli(capsys, "zero", "--n", "12", "--d", "2")
    payload = json.loads(out)
    assert payload["is_eigenvalue"] is True
    assert payload["growth"]["classification"] == "LinearGrowth"


def test_cos4_command(capsys):
    code, out, _ = run_cli(capsys, "cos4", "2/5", "4/5", "1/2", "1/3")
    assert code == 0 and json.loads(out)["family"] == "III"
    code, out, _ = run_cli(capsys, "cos4", "0", "0", "0", "0")
    assert json.loads(out)["family"] == "NotVanishing"
    code, out, _ = run_cli(capsys, "cos4", "1/7", "6/7", "1/5", "4/5")
    assert json.loads(out)["family"] == "I"


def test_vanishing_command(capsys):
    code, out, _ = run_cli(capsys, "vanishing", "--n", "6", "--max-len", "3")
    payload = json.loads(out)
    assert code == 0
    exps = {tuple(r["exponents"]) for r in payload["sums"]}
    assert (0, 3) in exps and (0, 2, 4) in exps
    sym = {tuple(r["exponents"]): r["symmetric"] for r in payload["sums"]}
    assert sym[(0, 2, 4)] == [3, 0]


def test_zeta_command(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "3", "--d", "2", "--s", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["value_decimal"].startswith("2.0")


def test_budget_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "spectrum", "--n", "12", "--d", "2", "--budget", "3")
    assert code == 2 and "budget" in err
    code, out, err = run_cli(capsys, "vanishing", "--n", "30", "--max-len", "6", "--budget", "100")
    assert code == 2 and out == "" and err.startswith("budget exceeded: ") and err.count("\n") == 1
    # above the cyclotomic context cap (5003 * 5002 digits) mult and zeta answer
    # on F images, as they print no key coefficients
    code, out, _ = run_cli(capsys, "mult", "--n", "5003", "--d", "1", "--tuple", "7")
    assert code == 0 and json.loads(out)["multiplicity"] == "2"
    code, out, _ = run_cli(capsys, "zeta", "--n", "5003", "--d", "1", "--s", "2")
    assert code == 0 and json.loads(out)["n"] == 5003

    # spectrum prints them: 10007 * 10006 digits, refused before any table work
    def unreachable(*args, **kwargs):
        raise RuntimeError("a table was started before the context cap was checked")

    monkeypatch.setattr(spectrum, "key_embedding", unreachable)
    code, out, err = run_cli(capsys, "spectrum", "--n", "10007", "--d", "1")
    assert code == 2 and out == "" and err.startswith("budget exceeded: ") and err.count("\n") == 1


def test_budget_refused_before_any_table(capsys, monkeypatch):
    # the cycle table's n//2 + 1 keys are counted before the embedding or a
    # context is built
    def unreachable(*args, **kwargs):
        raise RuntimeError("work was started before the key count was checked")

    for module in (cli, criteria, spectrum):
        monkeypatch.setattr(module, "key_embedding", unreachable)
    for module in (cli, spectrum):
        monkeypatch.setattr(module, "get_context", unreachable)
    for argv, keys in (
        (["mult", "--n", "4093", "--d", "2", "--tuple", "1,2"], 2047),
        (["spectrum", "--n", "4096", "--d", "1"], 2049),
        (["zeta", "--n", "4093", "--d", "2", "--s", "2"], 2047),
        (["growth", "--n", "4096", "--d", "3", "--tuple", "1,2,3"], 2049),  # a witness at r = 2
    ):
        code, out, err = run_cli(capsys, *argv, "--budget", "1000")
        assert (code, out) == (2, "") and err == f"budget exceeded: cycle table needs {keys} keys, budget 1000\n"
    zero = cyclotomic.CycElt(4093, 0)
    for probe in (spectrum.key_multiplicity, spectrum.membership):
        with pytest.raises(dtorus.BudgetExceeded, match="cycle table needs 2047 keys"):
            probe(4093, 3, zero, 1000)


def test_answers_without_a_context(capsys, monkeypatch):
    # these decide on F images and print no key coefficients, so they build no
    # cyclotomic context
    cyclotomic.get_context.cache_clear()
    for argv in (
        ["verify", "zero", "--nmax", "30"],
        ["verify", "table60"],
        ["mult", "--n", "60", "--d", "2", "--tuple", "6,15"],
        ["zeta", "--n", "16", "--d", "2", "--s", "2"],
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert dtorus.zero_lower_bound_family(15, 1)
    assert cyclotomic.get_context.cache_info().currsize == 0

    # 10007 is prime, so no r <= 1 has a growth witness: Bounded, with no key
    # (its context would exceed the cap) and no table
    def unreachable(*args, **kwargs):
        raise RuntimeError("growth built a table though no r has a witness")

    monkeypatch.setattr(spectrum, "key_embedding", unreachable)
    code, out, _ = run_cli(capsys, "growth", "--n", "10007", "--d", "1", "--tuple", "1")
    assert code == 0 and json.loads(out)["classification"] == "Bounded"
    assert cyclotomic.get_context.cache_info().currsize == 0


def test_growth_builds_no_context(capsys, monkeypatch):
    # growth builds key_embedding(n, 2d) only for a witness r < d: 10006 has
    # its first witness at r = d = 2, where the vanishing test answers
    # (its context, 10006 * 5002 digits, exceeds the cap); 10007 is prime, so
    # no r <= 1 has a witness
    def unreachable(*args, **kwargs):
        raise RuntimeError("growth built a cyclotomic context or embedding")

    cyclotomic.get_context.cache_clear()
    monkeypatch.setattr(cyclotomic, "get_context", unreachable)
    monkeypatch.setattr(criteria, "key_embedding", unreachable)
    for n, d, ks in (("10006", "2", "1,2"), ("10007", "1", "1")):
        code, out, _ = run_cli(capsys, "growth", "--n", n, "--d", d, "--tuple", ks)
        assert code == 0 and json.loads(out)["classification"] == "Bounded"
    monkeypatch.undo()
    assert cyclotomic.get_context.cache_info().currsize == 0


@pytest.mark.parametrize(
    "argv, env",
    [
        (["zero", "--n", "2", "--d", "1"], {}),
        (["mult", "--n", "5", "--d", "2", "--tuple", "1,x"], {}),
        # --bits is gone; any value of it, in or out of the old range, is refused
        (["spectrum", "--n", "12", "--d", "2", "--bits", "10"], {}),
        (["mult", "--n", "60", "--d", "2", "--tuple", "24,10", "--bits", "100000"], {}),
        (["spectrum", "--n", "4", "--d", "2"], {"DTORUS_BUDGET": "abc"}),
        (["spectrum", "--n", "2"], {}),  # usage error: --d missing
        (["cos4", "1/0", "1", "1", "1"], {}),
        (["verify", "cjk", "--cutoff", "0"], {}),
        (["verify", "bound24", "--nmax", "2"], {}),
        (["verify", "zero", "--nmax", "2"], {}),
        (["verify", "zero", "--dmax", "0"], {}),
        (["verify", "cjk", "--n-list"], {}),
        (["verify", "semigroup", "--lmax", "0"], {}),
        (["verify", "semigroup", "--lmax", "-3"], {}),
        (["growth", "--n", "2", "--d", "2", "--tuple", "1,1"], {}),
        (["growth", "--n", "1", "--d", "1", "--tuple", "0"], {}),
        (["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "10", "--s", "inf"], {}),
        (["zeta", "--n", "16", "--d", "2", "--s", "inf"], {}),
        (["zeta", "--n", "16", "--d", "2", "--s", "nan"], {}),
        (["verify", "cjk", "--s", "inf", "--cutoff", "10", "--n-list", "4"], {}),
        (["spectrum", "--n", "4", "--d", "2", "--budget", "0"], {}),
        (["spectrum", "--n", "4", "--d", "2", "--budget", "-5"], {}),
        (["spectrum", "--n", "4", "--d", "2"], {"DTORUS_BUDGET": "0"}),
        (["vanishing", "--n", "6", "--max-len", "0"], {}),
        (["vanishing", "--n", "6", "--max-len", "-2"], {}),
    ],
    ids=[
        "n-too-small",
        "bad-tuple",
        "bits-too-low",
        "bits-too-high",
        "bad-env-budget",
        "missing-d",
        "zero-denominator",
        "cutoff-zero",
        "bound24-empty-range",
        "zero-empty-n-range",
        "zero-empty-d-range",
        "cjk-empty-n-list",
        "semigroup-lmax-zero",
        "semigroup-lmax-negative",
        "growth-n-two",
        "growth-n-one",
        "zeta-s-inf-cutoff",
        "zeta-s-inf",
        "zeta-s-nan",
        "cjk-s-inf",
        "budget-zero",
        "budget-negative",
        "env-budget-zero",
        "max-len-zero",
        "max-len-negative",
    ],
)
def test_input_error_exit_code(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "arg",
    [
        ["--n-list", "2"],
        ["--cutoff", "0"],
        # the check compares gaps along the list, so another order is a usage error, not a FAIL
        ["--n-list", "32", "16"],
        ["--n-list", "16", "16"],
        ["--n-list", "8", "16", "16", "32"],
    ],
)
def test_cjk_arguments_checked_before_work(capsys, monkeypatch, arg):
    def unreachable(*args, **kwargs):
        raise RuntimeError("cjk_table ran before the arguments were checked")

    monkeypatch.setattr(cli, "cjk_table", unreachable)
    code, out, err = run_cli(capsys, "verify", "cjk", "--cutoff", "1000000", *arg)
    assert code == 64 and out == ""
    assert err.startswith("error: argument ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--n", "3", "--d", "1", "--s", "1e308"],
        ["zeta", "--n", "16", "--d", "2", "--s", "1e40"],
        ["verify", "cjk", "--s", "1e308", "--cutoff", "10", "--n-list", "3", "4"],
    ],
)
def test_zeta_refuses_uncertified_digits(capsys, monkeypatch, argv):
    # the first-order error bound grows with s; past 10^-30 of the value
    # the printed digits would not all hold.  The refusal comes before the
    # continuum partial sum, which is slow at a large s.
    def unreachable(*args, **kwargs):
        raise RuntimeError("the continuum partial sum ran before s was refused")

    monkeypatch.setattr(zeta, "r2_upto", unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error: zeta of T^") and err.count("\n") == 1
    assert "exceeds 1e-30" in err


def test_zeta_large_s_still_certified(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "16", "--d", "2", "--s", "1e20")
    payload = json.loads(out)
    assert code == 0
    value, error = (mpmath.mpf(payload[k]) for k in ("value_decimal", "error_decimal"))
    assert error < value * mpmath.mpf(10) ** -35


@pytest.mark.parametrize("command", ["mult", "growth"])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_dimension_checked_before_tuple_length(capsys, command, d):
    code, out, err = run_cli(capsys, command, "--n", "60", "--d", d, "--tuple", "1")
    assert code == 64 and out == ""
    assert err == "error: need d >= 1\n"


@pytest.mark.parametrize("arg", [["--s", "0.5", "--cutoff", "10"], ["--s", "2", "--cutoff", "-1"]])
def test_zeta_arguments_checked_before_work(capsys, monkeypatch, arg):
    def unreachable(*args, **kwargs):
        raise RuntimeError("zeta_discrete ran before the arguments were checked")

    monkeypatch.setattr(cli, "zeta_discrete", unreachable)
    code, out, err = run_cli(capsys, "zeta", "--n", "16", "--d", "2", *arg)
    assert code == 64 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "10000001"],
        ["zeta", "--n", "16", "--d", "2", "--s", "2", "--cutoff", "101", "--budget", "100"],
        ["verify", "cjk", "--cutoff", "10000001", "--n-list", "8"],
    ],
)
def test_zeta_cutoff_over_budget_refused_before_work(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise RuntimeError("work started before the cutoff was checked against the budget")

    monkeypatch.setattr(zeta, "r2_upto", unreachable)
    monkeypatch.setattr(cli, "zeta_discrete", unreachable)
    monkeypatch.setattr(zeta, "zeta_discrete", unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("budget exceeded: continuum cutoff ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


# sha256 of stdout of the benchmark's three emit commands at full size, copied
# from its record of the seed commit's output; "verify cjk --s 2" runs at the
# default cutoff 10^6
EMIT_SHA256 = {
    ("spectrum", "--n", "240", "--d", "2"): "bc4ec0d3b54c1924cb24961b332ee1da29f53271685c2507ad29b63925f7afb4",
    ("spectrum", "--n", "180", "--d", "2", "--format", "csv"): (
        "6896a786d00227ef2734c62ce4809adef3329b47ad33f820a685e98e13f68fb6"
    ),
    ("verify", "cjk", "--s", "2"): "6dff03ead83846f940701bcdb781cac16ff86e52dc265aa0ddd60185c75e287f",
}


@pytest.mark.parametrize("argv", sorted(EMIT_SHA256), ids=" ".join)
def test_emit_output_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_SHA256[argv]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n, d", [(3, 1), (12, 2), (97, 2), (60, 3), (8, 4)])
def test_spectrum_matches_plain_writer(capsys, n, d, fmt):
    # the streamed rows against json.dumps, csv.writer and a print loop over
    # the rows of the parent's by_value, beyond the goldens and digests
    code, out, _ = run_cli(capsys, "spectrum", "--n", str(n), "--d", str(d), "--format", fmt)
    assert code == 0
    # compared as lines, so a failure reports the first differing line
    # instead of diffing megabytes
    assert out.splitlines(keepends=True) == spectrum_output(n, d, fmt).splitlines(keepends=True)


_text = st.text(st.sampled_from(['"', "\\", "/", "\n", "\x00", "a", "é", "☃", "\U0001f600"])) | st.text()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _text,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(st.integers() | st.booleans())
    | st.dictionaries(_text, children),
    max_leaves=30,
)


@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def emitted(fmt: str, fields: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit(argparse.Namespace(command="spectrum", format=fmt), fields) == 0
    return out.getvalue()


_reserved = {"schema", "command", *cli.TABLE_COLUMNS}
# cells as the tables hold them (decimal strings, int lists, flags, None),
# nested a little; test_json_writer_matches_json_dumps covers _json itself
_cells = st.recursive(
    st.none() | st.booleans() | st.integers() | _text,
    lambda children: st.lists(children, max_size=3) | st.lists(st.integers()).map(tuple),
    max_leaves=6,
)
_tables = st.sampled_from(sorted(cli.TABLE_COLUMNS)).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(st.tuples(*[_cells] * len(cli.TABLE_COLUMNS[name])), max_size=3))
)
_fields = st.lists(st.tuples(_text.filter(lambda k: k not in _reserved), _cells), max_size=3, unique_by=lambda kv: kv[0])


def with_table(fields, name, rows, at) -> dict:
    """The fields with the table ``name`` inserted at position ``at``."""
    fields = list(fields)
    fields.insert(min(at, len(fields)), (name, rows))
    return dict(fields)


@given(_tables, _fields, st.integers(0, 3))
def test_emit_streams_the_json_of_row_dicts(table, fields, at):
    # rows from a generator, written as they come, against json.dumps of the
    # whole payload with each row a dict; the draws include empty tables
    name, rows = table
    columns = cli.TABLE_COLUMNS[name]
    dicts = [dict(zip(columns, row)) for row in rows]
    want = json.dumps({"schema": cli.SCHEMA, "command": "spectrum", **with_table(fields, name, dicts, at)}, indent=2)
    assert emitted("json", with_table(fields, name, (row for row in rows), at)) == want + "\n"


@given(_tables, _fields, st.integers(0, 3))
def test_emit_csv_and_text_stream_a_generator(table, fields, at):
    name, rows = table
    for fmt in ("csv", "text"):
        listed = emitted(fmt, with_table(fields, name, rows, at))
        assert emitted(fmt, with_table(fields, name, (row for row in rows), at)) == listed


class ByteCounter:
    """A stdout that keeps nothing and counts what is written to it (ASCII here)."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_spectrum_holds_one_row_at_a_time():
    # 3.3 MB of output: holding every row (or the whole string) at once
    # would take more memory than that
    argv = ["spectrum", "--n", "127", "--d", "2"]
    sink = ByteCounter()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # fills the table, context and cosine caches
        sink.written = 0
        peak = traced_peak(main, argv)
    assert sink.written > 3 * 10**6
    assert peak < sink.written


def test_empty_table_csv_keeps_its_columns(capsys):
    # no vanishing sum of length <= 3 for N = 7: the header of the rows, no rows
    code, out, _ = run_cli(capsys, "vanishing", "--n", "7", "--max-len", "3", "--format", "csv")
    assert code == 0 and out == "exponents,minimal,symmetric\n"
    code, out, _ = run_cli(capsys, "vanishing", "--n", "7", "--max-len", "3", "--format", "text")
    assert code == 0 and out == "schema: 1\ncommand: vanishing\nn: 7\nmax_len: 3\n"


def test_mult_closed_form_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "d2_closed_form", lambda n, k1, k2: 25)  # the enumeration gives 24
    code, out, err = run_cli(capsys, "mult", "--n", "60", "--d", "2", "--tuple", "24,10")
    assert code == 3
    golden = (GOLDEN_DIR / "mult_60x2.out").read_text()
    assert out == golden.replace('"closed_form": null', '"closed_form": "25"') != golden
    assert err == "closed form 25 disagrees with enumeration 24\n"


def test_verify_zero_failure(capsys, monkeypatch):
    formula = cli.is_zero_eigenvalue

    def flipped(n, d):
        return formula(n, d) != ((n, d) == (6, 1))

    monkeypatch.setattr(cli, "is_zero_eigenvalue", flipped)
    code, out, _ = run_cli(capsys, "verify", "zero", "--nmax", "8", "--dmax", "2")
    assert code == 1
    assert out == "FAIL n=6 d=1: formula True, spectrum False\nsummary: 11 checks passed, 1 failed\n"


def test_verify_bound24_failure(capsys, monkeypatch):
    check = cli.verify_bound24

    def violated_at_7(n, budget):
        if n == 7:
            raise Bound24Violated("multiplicity 26 exceeds 24 at n=7")
        return check(n, budget)

    monkeypatch.setattr(cli, "verify_bound24", violated_at_7)
    code, out, _ = run_cli(capsys, "verify", "bound24", "--nmax", "62")
    assert code == 1
    # the failure is reported after the distribution, which leaves n = 7 out
    assert out.endswith(
        "max multiplicity -> number of N attaining it:\n"
        "    4: 3\n"
        "    8: 49\n"
        "   12: 1\n"
        "   16: 5\n"
        "   24: 1\n"
        "max nonzero multiplicity 24 first attained at N=60\n"
        "FAIL n=7: multiplicity 26 exceeds 24 at n=7\n"
        "summary: 60 checks passed, 1 failed\n"
    )


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "spectrum", "--n", "30", "--d", "2")
    _, second, _ = run_cli(capsys, "spectrum", "--n", "30", "--d", "2")
    assert first == second


def child_env(**extra):
    # The child must import the same dtorus as this process, installed or not:
    # the directory holding the package goes first, then the suite's own
    # PYTHONPATH entries (where dependencies may be found).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(dtorus.__file__)))
    inherited = os.environ.get("PYTHONPATH", "")
    pythonpath = os.pathsep.join([package_root] + [p for p in inherited.split(os.pathsep) if p])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, **extra}


def test_deterministic_across_processes():
    def run(seed):
        proc = subprocess.run(
            [sys.executable, "-m", "dtorus", "spectrum", "--n", "12", "--d", "2"],
            capture_output=True,
            env=child_env(PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return proc.stdout

    assert run("1") == run("2") != b""


def test_closed_stdout_exits_141():
    # a reader that stops early, like `| head -c 100`: exit 128 + SIGPIPE, no traceback
    argv = [sys.executable, "-m", "dtorus", "spectrum", "--n", "240", "--d", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode(errors="replace")
        code = proc.wait(timeout=120)
    assert code == 141, err
    assert "Traceback" not in err and err.count("\n") <= 1


HUGE = "1000000000000000003"  # a prime: trial division up to its root never ends


def limit_memory():
    # at most 2 GB of address space: a table sized by the input fails at once
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(hard, 2 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv",
    [
        ["zero", "--n", HUGE, "--d", "3"],
        ["cos4", f"1/{HUGE}", "1/2", "1/3", "1/5"],
        ["spectrum", "--n", HUGE, "--d", "2"],
        ["mult", "--n", HUGE, "--d", "2", "--tuple", "1,2"],
        ["zeta", "--n", HUGE, "--d", "2", "--s", "2"],
        ["vanishing", "--n", HUGE, "--max-len", "4"],
        ["growth", "--n", HUGE, "--d", "2", "--tuple", "1,2"],
        # primes 3 and 10^9 + 7: a semigroup table of 2*10^9 entries
        ["zero", "--n", "3000000021", "--d", "1000000000"],
    ],
)
def test_huge_inputs_answer_or_exit_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "dtorus", *argv],
        capture_output=True,
        env=child_env(),
        timeout=30,
        preexec_fn=limit_memory,
    )
    err = proc.stderr.decode(errors="replace")
    assert proc.returncode in (0, 2), err
    assert "Traceback" not in err
    if proc.returncode == 0:
        assert err == "" and json.loads(proc.stdout)["command"] == argv[0]
    else:
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1


def test_round_trip_representatives(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "10", "--d", "2")
    payload = json.loads(out)
    for row in payload["entries"]:
        rep = ",".join(str(k) for k in row["representative"])
        code, out2, _ = run_cli(capsys, "mult", "--n", "10", "--d", "2", "--tuple", rep)
        assert code == 0
        assert json.loads(out2)["multiplicity"] == row["multiplicity"]


def test_verify_zero_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "zero", "--nmax", "12", "--dmax", "3")
    assert code == 0 and "0 failed" in out


def test_verify_table60(capsys):
    code, out, _ = run_cli(capsys, "verify", "table60")
    assert code == 0
    assert "summary: pass" in out
    assert "row 16" in out  # the published-row omission stays visible
    # the dump of every eigenvalue above multiplicity 8
    rows = [line.split() for line in out.splitlines() if line[:4].strip().isdigit()]
    assert sorted({int(r[0]) for r in rows}) == [12, 16, 20, 24, 118]
    assert sum(1 for r in rows if r[0] == "16") == 28
    assert "  16    2.95629520146761127585713349574  (2, 10)" in out


def test_verify_bound24_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "bound24", "--nmax", "61")
    assert code == 0
    assert "max nonzero multiplicity 24 first attained at N=60" in out
    assert "N=  60: new maximum 24" in out
    assert "max multiplicity -> number of N attaining it:" in out
    assert "   24: 1\n" in out  # N = 60 is the only one up to 61


def test_verify_semigroup(capsys):
    code, out, _ = run_cli(capsys, "verify", "semigroup", "--lmax", "5")
    assert code == 0 and "0 failed" in out


def test_internal_consistency_violation_exits_3(capsys, monkeypatch):
    # an AssertionError (here a bad two-prime witness) is one stderr line
    # and exit 3, with no traceback
    def bad_witness(p, q, d):
        raise AssertionError(f"no witness for p={p} q={q} d={d}")

    monkeypatch.setattr(cli, "lowerbound_pq_witness", bad_witness)
    code, _, err = run_cli(capsys, "verify", "semigroup", "--lmax", "1")
    assert code == 3
    assert err == "internal consistency violation: no witness for p=3 q=5 d=5\n"
