import pytest

from machyper.macdonald import MacdonaldCache


@pytest.fixture(scope="session")
def cache():
    # shared across the whole run; construction results are immutable
    return MacdonaldCache()


@pytest.fixture
def empty_store():
    # qops keeps one process-wide store of operator columns; a test that
    # must see the literal assembly run, or a column be built, starts
    # without any
    from machyper.qops import column
    column.cache_clear()
    return column
