"""Standing fault-injection gate: every planted fault must fail its tests.

Run from the repository root:

    python tests/faults.py

The repository (without .git and caches) is copied to a temporary
directory; there each fault below is applied alone (one exact text
replaced in one file), the tests that caught it are run with
``pytest -x -q``, and the file is put back.  The script exits 1 if a fault
survives (its tests pass) or if a fault's old text does not occur exactly
once in the repository: a fault whose target changed must be ported, not
dropped.  Nothing is written inside the repository.  pytest does not
collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which fails


FAULTS = [
    Fault(
        "cosine guard bits 64 -> 0",
        "src/dtorus/cyclotomic.py",
        "_GUARD = 64\n",
        "_GUARD = 0\n",
        ("tests/test_cyclotomic.py::test_fixed_tables_mirror_the_full_computation",),
    ),
    Fault(
        "the j = 2 Taylor term left out of the cosine",
        "src/dtorus/cyclotomic.py",
        "            s += -term if m % 2 else term\n",
        "            s += -term if m % 2 else term * (m != 2)\n",
        ("tests/test_cyclotomic.py::test_fixed_tables_mirror_the_full_computation",),
    ),
    Fault(
        "decimal carries on 6 and up instead of 5",
        "src/dtorus/arith.py",
        '    if text[digits] in "56789":\n',
        '    if text[digits] in "6789":\n',
        ("tests/test_cli.py::test_decimal_matches_libmp_on_every_row",),
    ),
    Fault(
        "decimal's lower fixed-notation bound inclusive",
        "src/dtorus/arith.py",
        "    if min(-(digits // 3), -5) < exponent < digits:\n",
        "    if min(-(digits // 3), -5) <= exponent < digits:\n",
        ("tests/test_cli.py::test_decimal_notation_edges",),
    ),
    Fault(
        "decimal's upper fixed-notation bound inclusive",
        "src/dtorus/arith.py",
        "    if min(-(digits // 3), -5) < exponent < digits:\n",
        "    if min(-(digits // 3), -5) < exponent <= digits:\n",
        ("tests/test_cli.py::test_decimal_notation_edges",),
    ),
    Fault(
        "a module-level import of mpmath",
        "src/dtorus/cyclotomic.py",
        "import functools\n",
        "import functools\n\nimport mpmath\n",
        (
            "tests/test_source.py::test_mpmath_only_where_it_computes",
            "tests/test_cli.py::test_only_zeta_loads_mpmath",
        ),
    ),
    Fault(
        # at PREC = 96 the square rounds as it truncates, so pi is truncated
        "4 pi^2 from pi truncated instead of rounded to nearest",
        "src/dtorus/zeta.py",
        "    pm, pe = _round(p - e, -w, prec)\n"
        "    if (pm, pe) != _round(p + e, -w, prec):\n"
        '        raise AssertionError(f"pi not rounded to {prec} bits")\n',
        "    pm, pe = p >> (p.bit_length() - prec), p.bit_length() - prec - w\n",
        ("tests/test_zeta.py::test_shell_terms_match_libmp",),
    ),
    Fault(
        "the reciprocal's power rounded at prec instead of prec + 5 bits",
        "src/dtorus/zeta.py",
        "        man, exp = _pow_int(man, exp, km << ke, prec + 5)\n",
        "        man, exp = _pow_int(man, exp, km << ke, prec)\n",
        ("tests/test_zeta.py::test_zeta_discrete_matches_libmp_oracle",),
    ),
    Fault(
        # s * PREC < 2000 keeps the continuum's powers exact up to s = 20,
        # where mpf_pow_int truncates as it squares from s = 11
        "libmp's exact powers taken up to bc * k < 2000 instead of 1000",
        "src/dtorus/zeta.py",
        "_EXACT_POW_BITS = 1000\n",
        "_EXACT_POW_BITS = 2000\n",
        ("tests/test_zeta.py::test_shell_terms_match_libmp",),
    ),
    Fault(
        "verify cjk's gaps rounded at 54 bits",
        "src/dtorus/zeta.py",
        "GAP_PREC = 53\n",
        "GAP_PREC = 54\n",
        ("tests/test_zeta.py::test_cjk_gap_matches_mpf_sub", "tests/test_zeta.py::test_cjk_rows_match_libmp_oracle"),
    ),
    Fault(
        "decimal's switch to to_str moved from 3500 to 3499",
        "src/dtorus/arith.py",
        "_SCALED_DIGITS_FROM = 3500\n",
        "_SCALED_DIGITS_FROM = 3499\n",
        ("tests/test_cli.py::test_decimal_calls_to_str_only_past_its_switch",),
    ),
]


def copy_tree(dest: Path) -> None:
    """The repository, as it stands on disk, into dest, without git's data or caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)


def main() -> int:
    bad = []
    for fault in FAULTS:
        found = (ROOT / fault.path).read_text().count(fault.old)
        if found != 1:
            bad.append(f"{fault.name}: its old text occurs {found} times in {fault.path}")
    if bad:
        print("\n".join(bad))
        return 1
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its src and tests first
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dtorus-faults-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        for fault in FAULTS:
            target = copy / fault.path
            text = target.read_text()
            target.write_text(text.replace(fault.old, fault.new))
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *fault.tests],
                cwd=copy,
                env=env,
                capture_output=True,
            )
            target.write_text(text)
            killed = proc.returncode == 1  # 1: tests failed; others are usage or collection errors
            print(f"{'killed' if killed else 'SURVIVED'}  {time.perf_counter() - t0:5.1f} s  {fault.name}")
            if not killed:
                bad.append(fault.name)
                print(proc.stdout.decode(errors="replace")[-2000:])
    print(f"{len(FAULTS) - len(bad)} of {len(FAULTS)} faults killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
