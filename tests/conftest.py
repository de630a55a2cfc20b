ACCEPTANCE_LINES = []

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
