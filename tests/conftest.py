"""Shared fixtures and the acceptance-criterion reporting hook."""

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(n: int, name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[n] = (name, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_RESULTS):
        name, passed = _ACCEPTANCE_RESULTS[n]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {n:2d} [{name}]: {verdict}")
