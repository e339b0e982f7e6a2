"""Settings shared by every test module."""

from hypothesis import settings

# One profile for every property test: the same examples on every run (derandomized, with
# no example database to replay earlier failures from) and no per-example time limit,
# since an example's cost depends on what it draws.
settings.register_profile("fmux", derandomize=True, deadline=None, database=None)
settings.load_profile("fmux")
