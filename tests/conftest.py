import os
import warnings

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    hypothesis = None

if hypothesis is not None:
    # CI selects this profile (HYPOTHESIS_PROFILE=ci): a fixed draw, so a
    # property test cannot fail a build on a fresh random example
    hypothesis.settings.register_profile("ci", derandomize=True)
    hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
    # hypothesis imports this module to report a failed example, and its
    # mypy_extensions import warns DeprecationWarning: under a test's
    # filterwarnings("error") that warning ends the whole session with
    # INTERNALERROR, so it is imported once here, its warning ignored
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
