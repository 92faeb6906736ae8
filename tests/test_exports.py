"""Every name a module exports in ``__all__`` resolves."""

import pytest

import mxsim
from mxsim import plots, sweep


@pytest.mark.parametrize("module", [mxsim, sweep, plots], ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
