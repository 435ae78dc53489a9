"""One deterministic ``hypothesis`` profile for the whole suite: the
property tests draw the same examples on every run, within a bounded count,
and write no example database."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("mibeam", derandomize=True, database=None, deadline=None,
                              max_examples=1500)
    settings.load_profile("mibeam")
