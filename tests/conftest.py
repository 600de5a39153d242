import pytest
from hypothesis import settings

from interviewplan import fixtures
from interviewplan.generators import connected_small_graphs

# every property test replays the same examples, keeps no example database
# and has no per-example deadline; each test sets only its max_examples
settings.register_profile("interviewplan", derandomize=True, database=None, deadline=None)
settings.load_profile("interviewplan")


@pytest.fixture(scope="session")
def fig1():
    return fixtures.load("fig1")


@pytest.fixture(scope="session")
def tt2():
    return fixtures.load("tt2")


@pytest.fixture(scope="session")
def tri():
    return fixtures.load("tri")


@pytest.fixture(scope="session")
def mt3():
    return fixtures.load("mt3")


@pytest.fixture(scope="session")
def small_graphs():
    """All connected max-degree-3 graphs with up to 6 vertices, one per
    isomorphism class."""
    return connected_small_graphs(6)
