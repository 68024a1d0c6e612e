"""The package's public name list."""

import twoiso
from twoiso import analysis, function_spaces, operators, spaces


def test_all_is_the_union_of_the_submodules_lists():
    names = twoiso.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(twoiso, name) is not None
    submodules = (spaces, operators, analysis, function_spaces)
    expected = {name for mod in submodules for name in mod.__all__} | {"__version__"}
    assert set(names) == expected
    assert sum(len(mod.__all__) for mod in submodules) + 1 == len(names)
