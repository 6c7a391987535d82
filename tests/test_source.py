"""Guards on the package source itself."""

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
