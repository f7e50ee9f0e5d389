"""Shared fixtures.

The simulated month and the full pipeline run are expensive (tens of
seconds), so they are session-scoped and shared by the integration and
acceptance tests.
"""

from __future__ import annotations

import io

import pytest

from wlantel.ingest import Salt, ingest_stream
from wlantel.pipeline import PipelineConfig, run_pipeline
from wlantel.simulator import SimConfig, generate_month

TEST_SALT_HEX = "00112233445566778899aabbccddeeff"


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
