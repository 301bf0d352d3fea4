import gridflex


def test_public_names_resolve():
    """Every ``__all__`` entry is bound, listed once, and star-importable."""
    names = gridflex.__all__
    assert [n for n in names if not hasattr(gridflex, n)] == []
    assert len(names) == len(set(names))
    namespace = {}
    exec("from gridflex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
