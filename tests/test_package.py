import curvelift


def test_all_exports_resolve():
    missing = [name for name in curvelift.__all__ if not hasattr(curvelift, name)]
    assert missing == []
