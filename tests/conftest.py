import sys
from pathlib import Path

import pytest

from rigiplast.fem import ElasticSystem, SolverError

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fail_elastic_solve(monkeypatch):
    """``fail(epsilon, call, error)`` makes the ``call``-th elastic solve of every system at
    ``epsilon`` raise ``error()`` (by default a ``SolverError``); each epsilon keeps the last
    call given for it, and forked sweep lanes inherit them."""
    solve = ElasticSystem.solve
    plan = {}

    def failing(self, *args, **kwargs):
        if self.hooke.epsilon in plan:
            call, error = plan[self.hooke.epsilon]
            self.solves_seen = getattr(self, "solves_seen", 0) + 1
            if self.solves_seen == call:
                raise error()
        return solve(self, *args, **kwargs)

    def fail(epsilon, call,
             error=lambda: SolverError("elastic solve residual 1.000e+00 exceeds tolerance")):
        plan[epsilon] = (call, error)

    monkeypatch.setattr(ElasticSystem, "solve", failing)
    return fail


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {verdict}")
