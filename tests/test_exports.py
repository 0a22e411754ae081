"""The declared exports: every name in an ``__all__`` exists, and the README's
list of the package's stable surface is ``repsim.__all__``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repsim

README = Path(__file__).parent.parent / "README.md"
MODULES = ["repsim", *(f"repsim.{m.name}" for m in pkgutil.iter_modules(repsim.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


def test_readme_lists_the_package_exports():
    text = README.read_text()
    start = text.index("`import repsim` exports the stable surface")
    bullets = text[start:].split("\n\n")[1]  # the list after the sentence
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(repsim.__all__)
