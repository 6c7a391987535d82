"""Guards on the package source itself."""

import ast
import re
from pathlib import Path

import dtorus

FLOAT_TRIG = re.compile(r"\bmath\.(cos|sin)\b|\bfrom math import\b[^\n]*\b(cos|sin)\b")


def test_float_trig_only_in_vanishing_pruning():
    # values are certified by approx_value alone, from the exponents of a
    # row's representative; float cosines and sines are left only as the
    # pruning tables of the vanishing searches
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


def attributes_read(source: str, function: str) -> set[str]:
    """The attribute names read inside the top-level functions named ``function``."""
    defs = [node for node in ast.parse(source).body if getattr(node, "name", None) == function]
    return {node.attr for d in defs for node in ast.walk(d) if isinstance(node, ast.Attribute)}


def test_one_evaluation_path():
    # every value is certified by approx_value from an exponent multiset:
    # the fixed-point cosines are read nowhere else, and no residue
    # coefficients are summed against them
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    found = [(p.name,) + scope for p in sources for scope in callers(p.read_text(), "_fixed_tables")]
    assert found == [("cyclotomic.py", "approx_value")]
    cyclotomic = (Path(dtorus.__file__).parent / "cyclotomic.py").read_text()
    assert "coeffs" not in attributes_read(cyclotomic, "approx_value")
    assert attributes_read(cyclotomic, "_fixed_tables")  # the walk sees attribute reads
    assert attributes_read("def approx_value(e):\n    return e.coeffs", "approx_value") == {"coeffs"}


def test_cli_serializes_in_one_place():
    # every payload passes through cli._emit, which adds schema and command
    source = (Path(dtorus.__file__).parent / "cli.py").read_text()
    assert callers(source, "dumps") == [("_emit",)]
    for name in ("DictWriter", "writer"):
        assert set(callers(source, name)) <= {("_emit",)}
    assert source.count('"schema"') == 1


def reaches(source: str, names: set[str]) -> set[str]:
    """Every function of ``source`` that calls one of ``names``, directly or
    through other functions of the same source."""
    found = set(names)
    while True:
        more = {scope[-1] for name in found for scope in callers(source, name) if scope} - found
        if not more:
            return found - names
        found |= more


def test_vanishing_searches_never_consult_the_semigroup():
    # verify semigroup compares the searches with semigroup membership, so a
    # search answering from the semigroup would make that check a tautology
    source = (Path(dtorus.__file__).parent / "vanishing.py").read_text()
    semigroup = {"semigroup_member", "w_membership"}
    searches = {"_vanishing_tuples", "find_vanishing_multiset", "minimal_vanishing_sums"}
    assert searches <= {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert not searches & reaches(source, semigroup)
    planted = (
        "def find_vanishing_multiset(n, length):\n    return _known(n, length)\n\n\n"
        "def _known(n, length):\n    return w_membership(n, length)[0]\n"
    )
    assert reaches(planted, semigroup) == {"find_vanishing_multiset", "_known"}


PACKED_NAMES = ("get_context", "key_of_tuple", "sum_reduce")
CYC_ELT = re.compile(r"\bCycElt\b")


def test_vanishing_reads_no_packed_residue():
    # the searches and the cosine partners decide on F images mod M; only
    # cyclotomic.py and the key builders that print or compare CycElts know
    # the packed residue format
    source = (Path(dtorus.__file__).parent / "vanishing.py").read_text()
    assert [name for name in PACKED_NAMES if callers(source, name)] == []
    assert not CYC_ELT.search(source)
    planted = "def _is_minimal(n, exps):\n    powers = get_context(n).powers\n    return m.sum_reduce(ctx, exps)\n"
    assert [name for name in PACKED_NAMES if callers(planted, name)] == ["get_context", "sum_reduce"]
    assert CYC_ELT.search("from .cyclotomic import CycElt, key_embedding")


def functions_taking(source: str, parameter: str) -> list[str]:
    """The names of the functions of ``source`` with a parameter named ``parameter``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            if parameter in names:
                out.append(getattr(node, "name", "<lambda>"))
    return out


def test_precision_is_fixed():
    # values print 30 digits from one fixed-point precision (cyclotomic.PREC);
    # no caller chooses it
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    assert [(p.name, f) for p in sources for f in functions_taking(p.read_text(), "bits")] == []
    planted = "def zeta_discrete(n, d, s, bits=128):\n    return f(lambda *, bits: bits)\n"
    assert functions_taking(planted, "bits") == ["zeta_discrete", "<lambda>"]
