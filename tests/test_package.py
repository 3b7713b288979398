from __future__ import annotations

import kgenrich


def test_every_public_name_resolves_on_the_package():
    assert len(kgenrich.__all__) == len(set(kgenrich.__all__))
    assert [name for name in kgenrich.__all__ if not hasattr(kgenrich, name)] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kgenrich import *", namespace)
    assert {name: namespace[name] for name in kgenrich.__all__} == {
        name: getattr(kgenrich, name) for name in kgenrich.__all__}
