"""The package's export list: every name in ``hbspace.__all__`` must resolve,
so that ``from hbspace import *`` keeps working after a deletion."""

import hbspace


def test_every_export_resolves():
    missing = [name for name in hbspace.__all__ if not hasattr(hbspace, name)]
    assert not missing, f"names in hbspace.__all__ that do not resolve: {missing}"
    assert len(set(hbspace.__all__)) == len(hbspace.__all__)
