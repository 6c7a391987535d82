"""Guards on the package source itself."""

import ast
import re
from pathlib import Path

import dtorus
import dtorus.cli

FLOAT_TRIG = re.compile(r"\bmath\.(cos|sin)\b|\bfrom math import\b[^\n]*\b(cos|sin)\b")


def test_float_trig_only_in_vanishing_pruning():
    # values are certified by approx_value, from the exponents of a row's
    # representative; float cosines and sines are left only as the pruning
    # tables of the vanishing searches
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


def scopes(source: str, found) -> list[tuple[str, ...]]:
    """The enclosing class and function names of each node of ``source``
    for which ``found(node)`` holds, annotations left out: ``from __future__
    import annotations`` keeps them as strings that nothing evaluates."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if found(node):
            out.append(scope)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, scope)

    visit(ast.parse(source), ())
    return out


def callers(source: str, name: str) -> list[tuple[str, ...]]:
    """The enclosing class and function names of each call of ``name``."""

    def call(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (getattr(func, "id", None), getattr(func, "attr", None))

    return scopes(source, call)


def readers(source: str, attribute: str) -> list[tuple[str, ...]]:
    """The enclosing class and function names of each use of ``attribute``."""
    return scopes(source, lambda node: isinstance(node, ast.Attribute) and node.attr == attribute)


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


def names_defined(source: str) -> set[str]:
    """The names of the functions and classes defined anywhere in ``source``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, defs)}


RETIRED_VALUES = {"ApproxReal", "fixed_midpoint", "fixed_mpf"}


def test_one_evaluation_path():
    # every value is certified from an exponent multiset by approx_value,
    # which by_value calls: the fixed-point cosines are read nowhere else, no
    # residue coefficients are summed against them, and the value stays the
    # int approx_value returns, with no second form beside it
    package = Path(dtorus.__file__).parent
    sources = sorted(package.glob("*.py"))
    found = [(p.name,) + scope for p in sources for scope in callers(p.read_text(), "_fixed_tables")]
    assert found == [("cyclotomic.py", "approx_value")]
    assert [p.name for p in sources if names_defined(p.read_text()) & RETIRED_VALUES] == []
    assert not RETIRED_VALUES & set(vars(dtorus))
    assert dtorus.approx_value is dtorus.cyclotomic.approx_value is dtorus.cli.approx_value
    cyclotomic = (package / "cyclotomic.py").read_text()
    assert "coeffs" not in attributes_read(cyclotomic, "approx_value")
    assert attributes_read(cyclotomic, "_fixed_tables")  # the walk sees attribute reads
    assert attributes_read("def approx_value(e):\n    return e.coeffs", "approx_value") == {"coeffs"}
    planted = (
        "class ApproxReal:\n    pass\n\n\n"
        "def fixed_mpf(m):\n    return m / 2**PREC\n\n\n"
        "def by_value(table):\n    return _fixed_tables(table.n, PREC)\n"
    )
    assert names_defined(planted) & RETIRED_VALUES == {"ApproxReal", "fixed_mpf"}
    assert callers(planted, "_fixed_tables") == [("by_value",)]


def mpmath_uses(source: str) -> list[tuple[str, ...]]:
    """The enclosing class and function names of each import of mpmath (or
    of its submodules) and each use of the name mpmath in ``source``."""

    def found(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "mpmath" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return not node.level and node.module.split(".")[0] == "mpmath"
        return isinstance(node, ast.Name) and node.id == "mpmath"

    return scopes(source, found)


def test_mpmath_only_where_it_computes():
    # importing dtorus loads no mpmath: no module imports it at module level,
    # and it is named only inside zeta's functions and in _decimal, whose mpf
    # branch formats zeta's values (test_cli checks that the other commands
    # run without it)
    package = Path(dtorus.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    uses = {name: set(mpmath_uses(source)) for name, source in sources.items()}
    assert () not in set().union(*uses.values())
    zeta_functions = {(node.name,) for node in ast.parse(sources["zeta.py"]).body if isinstance(node, ast.FunctionDef)}
    computing = {(f,) for f in ("zeta_discrete", "_term_of", "zeta_continuum_partial", "cjk_table", "_mpf")}
    assert computing <= uses.pop("zeta.py") <= zeta_functions
    assert uses.pop("cli.py") == {("_decimal",)}
    assert [name for name, found in uses.items() if found] == []
    assert "from __future__ import annotations" in sources["zeta.py"]  # ZetaValue's mpf fields
    planted = (
        "from __future__ import annotations\n\nimport mpmath.libmp\n\n\n"
        "class ZetaValue:\n    value: mpmath.mpf\n\n    def __float__(self):\n        return float(mpmath.mpf(1))\n\n\n"
        "def zeta_discrete(n, d, s) -> mpmath.mpf:\n    from mpmath import workprec\n\n\n"
        "def _decimal(x: mpmath.mpf, digits=30):\n    return x\n"
    )
    assert mpmath_uses(planted) == [(), ("ZetaValue", "__float__"), ("zeta_discrete",)]


def test_cli_serializes_in_one_place():
    # every payload passes through cli._emit, which adds schema and command;
    # its JSON writer _json is the only caller of json.dumps
    source = (Path(dtorus.__file__).parent / "cli.py").read_text()
    assert set(callers(source, "dumps")) == {("_json",)}
    assert set(callers(source, "encode_basestring_ascii")) == {("_json",)}
    assert set(callers(source, "_json")) == {("_emit",), ("_json",)}
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


def functions_defined(source: str) -> set[str]:
    """The names of the functions defined anywhere in ``source``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, functions)}


def test_one_continuum_loop():
    # the continuum sum is one shell loop for every s, which alone holds the
    # grid step: the shell terms are computed in that loop and nowhere else
    source = (Path(dtorus.__file__).parent / "zeta.py").read_text()
    assert callers(source, "_term_of") == [("zeta_continuum_partial",)]
    assert "_shell_terms" not in functions_defined(source)
    planted = (
        "def _shell_terms(s, shells):\n    term = _term_of(s)\n    return (term(m, rm) for m, rm in shells if rm)\n\n\n"
        "def zeta_continuum_partial(s, cutoff):\n    term = _term_of(s)\n"
    )
    assert callers(planted, "_term_of") == [("_shell_terms",), ("zeta_continuum_partial",)]
    assert "_shell_terms" in functions_defined(planted)


def self_calling(source: str) -> set[str]:
    """The functions of ``source`` that call themselves by name."""
    return {name for name in functions_defined(source) if any(name in scope for scope in callers(source, name))}


def test_one_vanishing_search():
    # the searches share one iterative DFS; minimality is read off its
    # answer set, with no second search over sub-multisets.  The one
    # recursion left is the exact vanishing test, one level per prime of n
    source = (Path(dtorus.__file__).parent / "vanishing.py").read_text()
    assert "_is_minimal" not in functions_defined(source)
    assert self_calling(source) == {"_roots_sum_is_zero"}
    planted = (
        "def _is_minimal(emb, exps):\n    def part(i, acc):\n        return part(i + 1, acc)\n\n"
        "    return not part(0, 0)\n\n\ndef _roots_sum_is_zero(n, terms):\n    return _roots_sum_is_zero(n, terms)\n"
    )
    assert "_is_minimal" in functions_defined(planted)
    assert self_calling(planted) == {"part", "_roots_sum_is_zero"}


def test_one_tail_table():
    # the search closes its last roots through one table of tails, which
    # one builder fills, so no second lookup grows beside it
    source = (Path(dtorus.__file__).parent / "vanishing.py").read_text()
    assert not {"_pair_table", "_triple_table"} & functions_defined(source)
    assert set(callers(source, "_add_tails")) == {("_vanishing_tuples",)}
    planted = (
        "def _pair_table(powers, modulus):\n    return {}\n\n\n"
        "def find_vanishing_multiset(n, length):\n    _add_tails({}, (), 3, 2)\n"
    )
    assert "_pair_table" in functions_defined(planted)
    assert set(callers(planted, "_add_tails")) == {("find_vanishing_multiset",)}


KEY_BUILDERS = ("key_of", "key_of_tuple", "get_context")


def test_rows_are_ordered_without_keys():
    # by_value breaks float ties on the F image each row carries
    source = (Path(dtorus.__file__).parent / "spectrum.py").read_text()
    assert "by_value" in functions_defined(source)
    assert [name for name in KEY_BUILDERS if ("by_value",) in callers(source, name)] == []
    planted = (
        "def by_value(table, images):\n"
        "    run.sort(key=lambda row: table.key_of(rows[row[1]][1].representative))\n"
    )
    assert [name for name in KEY_BUILDERS if ("by_value",) in callers(planted, name)] == ["key_of"]


ARITHMETIC_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pos__"}


def class_methods(source: str, name: str) -> set[str]:
    """The names bound in the body of the top-level class ``name`` of ``source``."""
    (cls,) = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef) and node.name == name]
    out = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


def test_keys_are_built_only_where_printed():
    # CycElt prints coefficients and carries a key across the API; equality is
    # decided on F images, so it has no arithmetic, and only spectrum's
    # pre-check asks for a context ahead of the table work
    package = Path(dtorus.__file__).parent
    assert not class_methods((package / "cyclotomic.py").read_text(), "CycElt") & ARITHMETIC_DUNDERS
    for name in ("criteria.py", "zeta.py"):
        assert callers((package / name).read_text(), "get_context") == []
    assert callers((package / "cli.py").read_text(), "get_context") == [("cmd_spectrum",)]
    planted = "class CycElt:\n    def __add__(self, other):\n        pass\n\n    __radd__ = __add__\n"
    assert class_methods(planted, "CycElt") == {"__add__", "__radd__"}


def test_growth_probes_without_keys():
    # eigenvalue_growth compares F images under key_embedding(n, 2d), on which
    # F is injective, and the meet-in-the-middle walk probes rows, never
    # count_of's exact confirmation
    package = Path(dtorus.__file__).parent
    criteria = (package / "criteria.py").read_text()
    assert [name for name in ("key_of_tuple", "get_context") if callers(criteria, name)] == []
    spectrum = (package / "spectrum.py").read_text()
    assert "_mitm_matches" in functions_defined(spectrum)
    assert [s for s in callers(spectrum, "count_of") if "_mitm_matches" in s] == []
    planted = "def eigenvalue_growth(n, ks):\n    return membership(n, 0, key_of_tuple(n, ks))\n"
    assert callers(planted, "key_of_tuple") == [("eigenvalue_growth",)]
    planted = "def _mitm_matches(n, d, target):\n    yield _torus(n, d).count_of(target)\n"
    assert callers(planted, "count_of") == [("_mitm_matches",)]


def test_one_reader_of_sorted_images():
    # one meet-in-the-middle helper: a table's sorted images are walked by
    # _mitm_matches alone, so no second walk grows beside it
    sources = sorted(Path(dtorus.__file__).parent.glob("*.py"))
    found = [(p.name,) + scope for p in sources for scope in readers(p.read_text(), "sorted_images")]
    assert found == [("spectrum.py", "_mitm_matches")]
    planted = "def eigenvalue_growth(n, t):\n    return bisect.bisect(t.sorted_images, 0)\n"
    assert readers(planted, "sorted_images") == [("eigenvalue_growth",)]
