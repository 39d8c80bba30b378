"""The library names the benchmark reaches still exist.

perfbench/spans.py wraps each layer's functions at the name where the caller
looks them up, and perfbench/sessions.py imports library names directly.
Deleting or renaming one of them breaks the benchmark run, so it fails here
first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import perfbench.sessions  # noqa: E402,F401  (importing it resolves the names it uses)
from perfbench.spans import _TRACED  # noqa: E402


def test_traced_patch_sites_resolve():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
