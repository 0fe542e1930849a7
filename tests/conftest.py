"""Suite-wide settings: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep no
example database, and never fail on wall-clock deadlines, so results do not
depend on machine load.
"""

from hypothesis import settings

settings.register_profile(
    "kreinflat", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("kreinflat")
