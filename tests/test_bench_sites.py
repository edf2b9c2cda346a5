"""Every call site the benchmark wraps still exists where it looks for it.

`perfbench/tracing.py` and `perfbench/bench.py` replace package functions by
their "module:attribute[.attribute]" names for the length of a pass. A
rename or a move inside spikecast would otherwise show only when the
benchmark runs.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import tracing  # noqa: E402

SITES = sorted({
    site
    for table in (tracing.SPANS, tracing.COUNTED, bench.CHECKPOINTS)
    for sites in table.values()
    for site in sites
})


@pytest.mark.parametrize("site", SITES)
def test_site_resolves_to_callable(site):
    owner, attr = tracing._resolve(site)
    if isinstance(owner, type):
        # tracing.patched swaps the entry of the class's own __dict__; an
        # inherited method would be wrapped on the wrong class.
        assert attr in owner.__dict__, f"{site} is not defined in {owner.__name__}"
        target = owner.__dict__[attr]
    else:
        target = getattr(owner, attr)
    assert callable(target), f"{site} is not callable"
