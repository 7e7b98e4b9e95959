"""Shared by every test directory: each test gets a cache of its own.

The analysis commands cache what they read from a corpus under
``$XDG_CACHE_HOME/citemetric`` (see ``citemetric.cli``). Pointing that
variable at a fresh directory keeps each test off the user's cache and off
every other test's entries; spawned children inherit it.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_cache(tmp_path_factory):
    """A cache for fixtures wider than one test, which run before ``_own_cache``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("session_cache")))
        yield


@pytest.fixture(autouse=True)
def _own_cache(tmp_path_factory, monkeypatch):
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache
