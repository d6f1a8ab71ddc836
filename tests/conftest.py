"""Shared test settings: one hypothesis profile, so that every run of the
suite draws the same examples."""

from hypothesis import settings

settings.register_profile(
    "reproducible",
    derandomize=True,    # examples from a hash of the test, not a clock seed
    database=None,       # no replay of failures saved by an earlier run
    max_examples=20,
    deadline=2000,       # ms per example; examples take milliseconds
)
settings.load_profile("reproducible")
