import pytest

from fdradiance import spectra

ACCEPTANCE_LINES = []


@pytest.fixture
def fresh_fd_shape():
    """An empty cache of companion shape integrals before and after the test.

    A test that patches the quadrature takes it, so that no shape computed
    by another test stands in for the patched run and none computed by the
    patched run outlives it.
    """
    spectra._fd_shape.cache_clear()
    yield
    spectra._fd_shape.cache_clear()

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
