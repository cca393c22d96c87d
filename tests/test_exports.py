import importlib

import pytest

SUBPACKAGES = [
    "flowpatch",
    "flowpatch.core",
    "flowpatch.diff",
    "flowpatch.defense",
    "flowpatch.flow",
    "flowpatch.attack",
    "flowpatch.harness",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
