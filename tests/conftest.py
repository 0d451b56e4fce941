"""Shared fixtures: one small deterministic universe per test session.

Building the TEST_UNIVERSE (~400 orgs) takes ~50 ms and the pipeline
~50 ms more, so session-scoping them keeps the whole suite fast while
letting every test poke at realistic data.
"""

from __future__ import annotations

import pytest

from repro.baselines import build_as2org_mapping, build_as2orgplus_mapping
from repro.config import TEST_UNIVERSE
from repro.core import BorgesPipeline
from repro.llm import make_default_client
from repro.universe import generate_universe
from repro.web.favicon import FaviconAPI
from repro.web.scraper import HeadlessScraper


@pytest.fixture(scope="session")
def universe():
    """The standard small test universe (seed 7, ~400 orgs)."""
    return generate_universe(TEST_UNIVERSE)


@pytest.fixture(scope="session")
def pipeline(universe):
    return BorgesPipeline(universe.whois, universe.pdb, universe.web)


@pytest.fixture(scope="session")
def borges_result(pipeline):
    return pipeline.run()


@pytest.fixture(scope="session")
def borges_mapping(borges_result):
    return borges_result.mapping


@pytest.fixture(scope="session")
def as2org_mapping(universe):
    return build_as2org_mapping(universe.whois)


@pytest.fixture(scope="session")
def as2orgplus_mapping(universe):
    return build_as2orgplus_mapping(universe.whois, universe.pdb)


@pytest.fixture()
def llm_client():
    """A fresh offline LLM client (per-test: usage counters start at 0)."""
    return make_default_client()


@pytest.fixture()
def scraper(universe):
    return HeadlessScraper(universe.web)


@pytest.fixture()
def favicon_api(universe):
    return FaviconAPI(universe.web)
