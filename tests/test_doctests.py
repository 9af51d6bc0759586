"""The docstring examples of every fin2cat module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import fin2cat

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fin2cat.__path__, "fin2cat.")
)


def test_every_module_is_listed():
    assert "fin2cat.codescent" in MODULES and "fin2cat.freegen" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, "%d of %d examples failed" % result
