"""The package's public surface: every exported name exists, once."""

import softki


def test_every_exported_name_resolves():
    assert [name for name in softki.__all__ if not hasattr(softki, name)] == []


def test_exported_names_are_unique():
    assert sorted(softki.__all__) == sorted(set(softki.__all__))
