import pocause


def test_public_names_resolve_once():
    names = pocause.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pocause, name)]
    assert missing == []
