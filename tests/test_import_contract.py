"""`import extbound` loads the four core layers (exactla, algebra, modules,
homology) and no upper layer; an upper layer (bounds, tilting, fixtures, fileio,
cli) is imported on first use of one of its names.  What a process has
loaded is checked in a fresh interpreter, since this one has imported every
layer already."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extbound as eb

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = ["extbound", "extbound.algebra", "extbound.exactla", "extbound.homology",
        "extbound.modules"]
LIBRARY_LAYERS = ("exactla", "algebra", "modules", "homology", "bounds", "tilting",
                  "fixtures", "fileio")


def _fresh(code: str):
    """Run `code` in a new interpreter that imports the package from SRC and
    return the JSON value it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_import_loads_the_core_and_each_upper_layer_on_first_use():
    steps = _fresh("""
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "extbound")
import extbound
steps = [loaded()]
extbound.Corpus
steps.append(loaded())
steps.append(extbound.tilting is sys.modules["extbound.tilting"])
try:
    extbound.no_such_name
except AttributeError as exc:
    steps.append(str(exc))
print(json.dumps(steps))
""")
    assert steps == [
        CORE,
        sorted(CORE + ["extbound.bounds"]),
        True,
        "module 'extbound' has no attribute 'no_such_name'",
    ]


def test_star_import_binds_every_public_name():
    bound = _fresh("""
import json
namespace = {}
exec("from extbound import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
""")
    assert bound == sorted(eb.__all__)
    assert len(set(eb.__all__)) == len(eb.__all__)


def test_every_public_name_is_the_object_its_layer_defines():
    layers = {layer: importlib.import_module(f"extbound.{layer}") for layer in LIBRARY_LAYERS}
    for name in eb.__all__:
        value = getattr(eb, name)
        if name in layers:
            assert value is layers[name], name
            continue
        # a core name is defined by the lowest layer that binds it
        layer = eb._LAYER_OF.get(name) or next(
            layer for layer, module in layers.items() if name in vars(module))
        assert value is getattr(layers[layer], name), name
    assert set(eb.__all__) <= set(dir(eb))
    assert "cli" in dir(eb) and eb.cli is importlib.import_module("extbound.cli")
    with pytest.raises(AttributeError):
        eb.no_such_name


def test_a_fixture_corpus_loads_bounds_and_fixtures_but_not_fileio():
    loaded = _fresh("""
import json, sys
import extbound
extbound.fixture_corpus("A2")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "extbound")))
""")
    assert loaded == sorted(CORE + ["extbound.bounds", "extbound.fixtures"])
