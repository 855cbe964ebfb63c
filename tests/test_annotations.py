"""Every annotation in fpmimo resolves to a name its module can see.

``typing.get_type_hints`` evaluates the string annotations that
``from __future__ import annotations`` leaves behind, so a name a module
annotates with but never imports raises ``NameError`` here.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import fpmimo

MODULES = ["fpmimo"] + [f"fpmimo.{m.name}" for m in pkgutil.iter_modules(fpmimo.__path__)]


def _defined_in(module):
    """The functions and classes a module defines, and the methods of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # classmethods, staticmethods
                member = getattr(member, "fget", member)  # properties
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(name)
    objects = list(_defined_in(module))
    assert objects or name == "fpmimo"
    for obj in objects:
        typing.get_type_hints(obj)
