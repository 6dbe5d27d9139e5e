"""The package's export list."""

import types

import mwmlab


def test_all_is_sorted_and_names_every_public_object():
    public = {
        name
        for name, value in vars(mwmlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert mwmlab.__all__ == sorted(set(mwmlab.__all__))
    assert set(mwmlab.__all__) == public
