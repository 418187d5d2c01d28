import tristarter


def test_public_names_resolve_once():
    names = tristarter.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(tristarter, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from tristarter import *", namespace)
    assert set(tristarter.__all__) <= namespace.keys()
