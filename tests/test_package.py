import types

import voinet


def test_all_lists_every_public_name_once_and_no_modules():
    assert "__version__" in voinet.__all__
    assert len(set(voinet.__all__)) == len(voinet.__all__)
    for name in voinet.__all__:
        assert not isinstance(getattr(voinet, name), types.ModuleType), name
