import bures


def test_public_names_resolve_once():
    # a deleted function must leave no stale export behind
    names = bures.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(bures, name) is not None, name
