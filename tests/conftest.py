"""Tier-1 is a pure function of the tree.

Every Hypothesis test under ``tests/`` runs derandomized (examples derived
from the test itself; the ``.hypothesis/`` example database is bypassed), so
``pytest -x -q`` cannot turn red or green on a draw.  Random exploration is
the nightly soak's job: ``--hypothesis-profile=explore``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")
