import pintbench


def test_every_export_resolves_once():
    names = pintbench.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pintbench, name)] == []
