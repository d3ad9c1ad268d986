"""Oracle comparisons too slow for the tier-1 suite, which does not collect this file.

Run it by name, from the root of the repo:

    PYTHONPATH=src python -m pytest -q tests/slow_oracles.py

The Springer walk of `matrix_oracle` tallies every flag of each fibre: 1,226,512
flags at (6, 3) and 3,605,290 at (7, 2), past the walk's own guard, in about
10 s and 30 s on a 2-core host.  The package's recursion builds the same
tallies from its Hessenberg counts without a flag, in well under a second.
"""

from __future__ import annotations

import pytest

from chromaq.fqoracle import _springer_tally
from matrix_oracle import springer_tally


@pytest.mark.parametrize("n, q", [(6, 3), (7, 2)])
def test_the_recursion_equals_the_walk_past_its_guard(monkeypatch, n, q):
    monkeypatch.setattr("chromaq.guards.MAX_SWEEP", 4_000_000)
    assert _springer_tally(n, q) == springer_tally(n, q)
