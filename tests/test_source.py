"""Guards on the package source itself."""

import ast
import re
from pathlib import Path

import dtorus

FLOAT_TRIG = re.compile(r"\bmath\.(cos|sin)\b|\bfrom math import\b[^\n]*\b(cos|sin)\b")


def test_float_trig_only_in_vanishing_pruning():
    # values are evaluated by approx_value alone; float cosines and sines are
    # left only as the pruning tables of the vanishing searches
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    assert {"spectrum.py", "vanishing.py"} <= {p.name for p in sources}
    offenders = [p.name for p in sources if p.name != "vanishing.py" and FLOAT_TRIG.search(p.read_text())]
    assert offenders == []


UNBOUNDED_CACHE = re.compile(
    r"\bfunctools\.cache\b|\bfrom functools import\b[^\n]*\bcache\b|\blru_cache\(\s*(maxsize\s*=\s*)?None\b"
)


def test_every_cache_is_bounded():
    # a cache without a size bound grows for the life of the process
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    assert [p.name for p in sources if UNBOUNDED_CACHE.search(p.read_text())] == []
    assert UNBOUNDED_CACHE.search("@functools.lru_cache(maxsize=None)")
    assert UNBOUNDED_CACHE.search("@functools.cache")
    assert not UNBOUNDED_CACHE.search("@functools.lru_cache(maxsize=64)\n@functools.cached_property")


LEN_OF_PHI = re.compile(r"\blen\(\s*cyclotomic_poly\(")


def callers(source: str, name: str) -> list[tuple[str, ...]]:
    """The enclosing class and function names of each call of ``name``."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_phi_once():
    # phi(N) comes from the factorization (arith.totient); Phi_N is built
    # only by the context, for its reduction of x^N
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    assert [p.name for p in sources if LEN_OF_PHI.search(p.read_text())] == []
    found = [(p.name,) + scope for p in sources for scope in callers(p.read_text(), "cyclotomic_poly")]
    assert found == [("cyclotomic.py", "CycContext", "__init__")]
    assert LEN_OF_PHI.search("phi = len(cyclotomic_poly(n)) - 1")
    assert callers("def f(n):\n    return m.cyclotomic_poly(n)", "cyclotomic_poly") == [("f",)]


def test_cli_serializes_in_one_place():
    # every payload passes through cli._emit, which adds schema and command
    source = (Path(dtorus.__file__).parent / "cli.py").read_text()
    assert callers(source, "dumps") == [("_emit",)]
    for name in ("DictWriter", "writer"):
        assert set(callers(source, name)) <= {("_emit",)}
    assert source.count('"schema"') == 1
