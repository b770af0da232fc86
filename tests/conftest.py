"""Shared fixtures, the reference route to J(kG) and the
acceptance-criterion reporting hook."""

import numpy as np

from symvert import linalg, rep

_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(n: int, name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[n] = (name, passed)


def kg_radical_by_chop(G, F) -> linalg.Subspace:
    """J(kG) through `rep.irreducible_modules`, the factors of a composition
    series of kG: the reference that the tests compare the library's J(kG)
    against, which comes from the irreducibles found by tensor closure."""
    irreps = rep.irreducible_modules(G, F)
    acts = [np.concatenate([S.action(x).ravel() for S in irreps])
            for x in range(G.order)]
    return linalg.Subspace(F, G.order, linalg.kernel(F, np.array(acts).T))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_RESULTS):
        name, passed = _ACCEPTANCE_RESULTS[n]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {n:2d} [{name}]: {verdict}")
