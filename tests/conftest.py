import pytest

from fdradiance import spectra, trajectory

ACCEPTANCE_LINES = []


@pytest.fixture
def fresh_caches():
    """Empty caches of the unit totals and companion shapes around the test.

    A test that patches the quadrature or a total's internals takes it, so
    that no value computed by another test stands in for the patched run
    and none computed by the patched run outlives it.
    """
    caches = (spectra._unit_total, spectra._fd_shape, trajectory._unit_larmor)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without it
    pass
else:
    # Reproducible and deadline-free: the same examples on every run, and
    # no timing failures on a loaded machine.
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=10, database=None)
    settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
