"""The package's public names."""

import stereosr


def test_every_export_resolves_once():
    names = stereosr.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(stereosr, name)] == []
