"""The package's public names: every exported name resolves, once."""
import pytest

import hetsim
from hetsim import nn


@pytest.mark.parametrize("module", [hetsim, nn], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_and_is_listed_once(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
