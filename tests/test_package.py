import tgraphs


def test_every_exported_name_resolves():
    missing = [name for name in tgraphs.__all__ if not hasattr(tgraphs, name)]
    assert missing == []
    assert len(set(tgraphs.__all__)) == len(tgraphs.__all__)
