"""One shared worker pool for the whole equivalence suite.

Forking a fresh pool per test would dominate the suite's runtime;
determinism does not depend on pool lifetime (the merge is by unit
index), so every test borrows this session-scoped executor.  Two
workers are enough to shard every campaign across processes.
"""

import pytest

from repro.engine import ShardedExecutor


@pytest.fixture(scope="session")
def pool():
    with ShardedExecutor(2) as executor:
        yield executor
