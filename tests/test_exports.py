"""The package's export list matches its public names."""

import types

import fbmquad


def test_all_lists_every_public_name_once():
    exported = fbmquad.__all__
    assert [name for name in exported if not hasattr(fbmquad, name)] == []
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(fbmquad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(exported)) == []
