"""The package's public names: each module declares its own in ``__all__``
and the package re-exports their union."""

import mrbounds as mb
from mrbounds import certificates, core, deletion, forcing, pathcover, reports

MODULES = (certificates, core, deletion, forcing, pathcover, reports)


def test_all_is_the_sorted_union_of_the_modules():
    union = {name for module in MODULES for name in module.__all__}
    assert mb.__all__ == sorted(union)
    assert len(mb.__all__) == sum(len(module.__all__) for module in MODULES)  # no name in two modules


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mb, name) is getattr(module, name), f"{module.__name__}.{name}"
