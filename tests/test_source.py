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
