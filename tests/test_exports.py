from __future__ import annotations

import pytest

import rafpref
from rafpref import cli


@pytest.mark.parametrize("module", [rafpref, cli], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
