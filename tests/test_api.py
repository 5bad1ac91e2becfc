"""The package namespace: every name in `cslme.__all__` resolves."""

import cslme


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from cslme import *", namespace)  # raises on a name the package lacks
    assert all(namespace[name] is getattr(cslme, name) for name in cslme.__all__)
