"""Reachability kernel dispatch.

Prefers the compiled extension; falls back to the pure-Python kernel when the
extension is missing or FUZZONTO_PURE=1 is set.  Both kernels share one
contract (see _closure_py.reachable_pairs), which tests/test_closure.py checks
against a brute-force oracle.  The kernel is a small share of a pipeline run,
so timing it alone says little about pipeline speed; perfbench/run.py measures
the whole `rules` run.
"""

from __future__ import annotations

import os

from . import _closure_py

if os.environ.get("FUZZONTO_PURE") == "1":
    _impl = _closure_py
    BACKEND = "python"
else:
    try:
        from . import _closure_cy as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = _closure_py
        BACKEND = "python"


def reachable_pairs(n: int, edges, limit: int = 0) -> list[tuple[int, int]]:
    """All (u, v) with v reachable from u via a path of length >= 1; sorted."""
    return _impl.reachable_pairs(n, edges, limit)
