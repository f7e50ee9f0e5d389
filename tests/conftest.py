"""Shared fixtures and the hypothesis profiles.

The simulated month and the full pipeline run are expensive (tens of
seconds), so they are session-scoped and shared by the integration and
acceptance tests.

Property tests run under the "tier1" profile unless pytest is given
another with hypothesis's own option: derandomized and with no example
database, so the verdict of a checkout is a function of its files, the
same on every run and whatever a local .hypothesis/ directory holds.
"long" searches afresh on each run and keeps what it finds in the example
database; run it by hand, e.g.

    pytest --hypothesis-profile=long tests/test_dbscan.py

A test's own max_examples holds under both.  A counterexample that a
search finds goes into its test as an @example.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import settings

from wlantel.ingest import Salt, ingest_stream
from wlantel.pipeline import PipelineConfig, run_pipeline
from wlantel.simulator import SimConfig, generate_month

TEST_SALT_HEX = "00112233445566778899aabbccddeeff"

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("long", derandomize=False, max_examples=1000)
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def salt() -> Salt:
    return Salt.from_hex(TEST_SALT_HEX)


@pytest.fixture(scope="session")
def sim_month():
    """Default-config month, default seed 42, with injections."""
    return generate_month(SimConfig(), seed=42)


@pytest.fixture(scope="session")
def month_records(sim_month, salt):
    """The month's trace through the CLI's ingest path, as one table."""
    trace, _ = sim_month
    return ingest_stream(io.StringIO(trace), salt)[0]


@pytest.fixture(scope="session")
def month_truth(sim_month):
    return sim_month[1]


@pytest.fixture(scope="session")
def month_run(month_records):
    return run_pipeline(month_records, PipelineConfig())
