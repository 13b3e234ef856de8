"""Every name a ``repro`` package exports in ``__all__`` resolves.

A module deleted without its re-export, or a typo in ``__all__``, only
fails at ``from repro.x import *`` or at a user's import; this catches
it for every package at once.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("pkg", PACKAGES)
def test_every_export_resolves(pkg):
    module = importlib.import_module(pkg)
    names = getattr(module, "__all__", None)
    assert names, f"{pkg} declares no __all__"
    for name in names:
        getattr(module, name)
