"""Every test starts from a cold process: `data_io` keeps what it derives
from a verified dataset for the process, so a test that counts, patches or
records the work of a run would otherwise see only what an earlier test
left undone."""

import pytest

from nh3econ import data_io


@pytest.fixture(autouse=True)
def _cold_dataset():
    data_io._verified.cache_clear()
