import sys

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database in the checkout.
settings.register_profile("lago", derandomize=True, database=None)
settings.load_profile("lago")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance report lines after capture has ended."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance report")
        for line in lines:
            terminalreporter.write_line(line)
