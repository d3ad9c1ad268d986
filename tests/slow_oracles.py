"""Oracle comparisons too slow for the tier-1 suite, which does not collect this file.

Run it by name, from the root of the repo:

    PYTHONPATH=src python -m pytest -q tests/slow_oracles.py

The Springer walk of `matrix_oracle` tallies every flag of each fibre: 1,226,512
flags at (6, 3) and 3,605,290 at (7, 2), past the walk's own guard, in about
10 s and 30 s on a 2-core host.  The package's recursion builds the same
Hessenberg counts without a flag, in well under a second, and induces every
tall path through them; the walk's tally dotted with each psi is the oracle.
"""

from __future__ import annotations

import pytest

from test_fqoracle import walk_agrees


@pytest.mark.parametrize("n, q", [(6, 3), (7, 2)])
def test_the_recursion_equals_the_walk_past_its_guard(monkeypatch, n, q):
    monkeypatch.setattr("chromaq.guards.MAX_SWEEP", 4_000_000)
    walk_agrees(n, q)
