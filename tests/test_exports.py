"""The package's export list: every name in ``fsosr.__all__`` resolves and a
star import succeeds, so a deleted public name cannot leave a stale entry."""

from __future__ import annotations

import fsosr


def test_every_exported_name_resolves():
    assert fsosr.__all__
    assert len(set(fsosr.__all__)) == len(fsosr.__all__)
    assert [name for name in fsosr.__all__ if not hasattr(fsosr, name)] == []


def test_a_star_import_binds_every_exported_name():
    names: dict = {}
    exec("from fsosr import *", names)
    assert set(fsosr.__all__) <= set(names)
