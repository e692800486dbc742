import os

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    hypothesis = None

if hypothesis is not None:
    # CI selects this profile (HYPOTHESIS_PROFILE=ci): a fixed draw, so a
    # property test cannot fail a build on a fresh random example
    hypothesis.settings.register_profile("ci", derandomize=True)
    hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
