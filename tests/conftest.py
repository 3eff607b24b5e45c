"""Every test starts with no kept MEP verdict, as a fresh process does, so a
test's first scan of an instance is a scan and not an earlier test's verdict."""

import pytest

from posetmetrics import mep


@pytest.fixture(autouse=True)
def _no_kept_verdict():
    mep._kept_verdict.cache_clear()
    yield
