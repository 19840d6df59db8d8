import pytest

from csftrees.graphs import Tree


@pytest.fixture
def tree_builds(monkeypatch):
    """The vertex count of every Tree validated while the test runs."""
    built = []
    validate = Tree.__post_init__

    def counted(self):
        built.append(self.n)
        validate(self)

    monkeypatch.setattr(Tree, "__post_init__", counted)
    return built
