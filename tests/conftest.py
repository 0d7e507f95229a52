"""Shared test settings: one hypothesis profile for every property test.

Runs are reproducible (derandomized, no example database) and have no
per-example deadline; each test sets only its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("povmtomo", deadline=None, derandomize=True, database=None)
settings.load_profile("povmtomo")
