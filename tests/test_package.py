import replicasim


def test_every_exported_name_resolves():
    assert [name for name in replicasim.__all__ if not hasattr(replicasim, name)] == []
