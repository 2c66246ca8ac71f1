"""Keep hypothesis's on-disk cache out of the working tree."""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Even with database=None, hypothesis caches the literals it mines from
    # local modules under .hypothesis/ in the working directory, at collection.
    config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HOME].name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
