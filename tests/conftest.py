import gc

import pytest

from dodeca.checks import Context


@pytest.fixture(scope="session")
def ctx():
    """Shared lazily-built artifacts (table, similarity, partitions...)."""
    return Context(seed=0)


@pytest.fixture(scope="session")
def system(ctx):
    return ctx.system


@pytest.fixture(scope="session")
def sim(ctx):
    return ctx.sim


@pytest.fixture
def collector_runs():
    """The generation of each cyclic collection started during the test, in order."""
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.callbacks.append(count)
    yield runs
    gc.callbacks.remove(count)
