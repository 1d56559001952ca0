"""Shared fixtures for the test suite."""

import pytest

# Reports of each distinct `run_suite` call, kept for the whole test session.
_SUITE_RUNS = {}


@pytest.fixture
def shared_run_suite(monkeypatch):
    """Serve repeated identical `cli.run_suite` calls from the session's first run.

    Tests that drive `verify --suite all` through the command line in different
    formats then pay for the full suite once per session, not once per test.
    """
    import polybernoulli.cli as cli

    run_suite = cli.run_suite

    def memo_run_suite(suite, **kwargs):
        key = (suite, tuple(sorted(kwargs.items())))
        if key not in _SUITE_RUNS:
            _SUITE_RUNS[key] = run_suite(suite, **kwargs)
        return _SUITE_RUNS[key]

    monkeypatch.setattr(cli, "run_suite", memo_run_suite)
