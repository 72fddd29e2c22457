import ifsseq


def test_every_exported_name_resolves_once():
    missing = [name for name in ifsseq.__all__ if not hasattr(ifsseq, name)]
    assert missing == []
    repeated = sorted({name for name in ifsseq.__all__ if ifsseq.__all__.count(name) > 1})
    assert repeated == []
