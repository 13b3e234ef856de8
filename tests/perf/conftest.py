"""Shared bench records: each quick suite runs once per session."""

import pytest

from repro.perf.harness import run_suite


@pytest.fixture(scope="session")
def quick_record():
    """``quick_record(name)``: the suite's quick record at one repeat."""
    records = {}

    def get(name):
        if name not in records:
            records[name] = run_suite(name, quick=True, repeats=1)
        return records[name]

    return get
