"""The package's public names: what `from ipdlab import *` promises."""

import ipdlab


def test_every_public_name_resolves_once():
    assert len(ipdlab.__all__) == len(set(ipdlab.__all__))
    missing = [name for name in ipdlab.__all__ if not hasattr(ipdlab, name)]
    assert missing == []
