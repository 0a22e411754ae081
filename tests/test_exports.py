"""The declared exports: every name in an ``__all__`` exists, the README's
list of the package's stable surface is ``repsim.__all__``, and every dotted
``repsim.`` name the README cites resolves."""

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


def resolve(dotted: str):
    """The object a dotted name names: its longest importable module prefix,
    then attributes; ``None`` if an attribute is missing."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr, None)
        return obj


def test_readme_dotted_names_resolve():
    names = re.findall(r"`(repsim(?:\.\w+)+)`", README.read_text())
    assert names
    assert [name for name in names if resolve(name) is None] == []
