import numpy as np
import pytest

from emocause.embeddings import EmbeddingTable

# pass/fail lines recorded by the acceptance tests, echoed after the run
# (prints inside tests are swallowed by capture unless -s is given)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_table(rng, n_words: int, dim: int, prefix: str = "w") -> EmbeddingTable:
    return EmbeddingTable([f"{prefix}{i}" for i in range(n_words)],
                          rng.normal(size=(n_words, dim)))
