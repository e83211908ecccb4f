import sys
from pathlib import Path

import pytest

from rigiplast.fem import ElasticSystem, SolverError

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fail_elastic_solve(monkeypatch):
    """``fail(epsilon, call)`` makes the ``call``-th elastic solve of every system at
    ``epsilon`` raise ``SolverError``; forked sweep lanes inherit it."""
    solve = ElasticSystem.solve

    def fail(epsilon, call):
        def failing(self, *args, **kwargs):
            if self.hooke.epsilon == epsilon:
                self.solves_seen = getattr(self, "solves_seen", 0) + 1
                if self.solves_seen == call:
                    raise SolverError("elastic solve residual 1.000e+00 exceeds tolerance")
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(ElasticSystem, "solve", failing)

    return fail


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {verdict}")
