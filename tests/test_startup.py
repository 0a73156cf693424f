"""Start-up: each command loads only the modules it runs, and the package
namespace resolves its public names on first access."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import enclosure_atlas
from enclosure_atlas.fixtures import fixture_document
from enclosure_atlas.io import complex_matrix_to_json, serialize_report

from helpers import conjugated_pair_model

SRC = os.path.dirname(os.path.dirname(enclosure_atlas.__file__))
PACKAGE = "enclosure_atlas"
ANALYZE_PATH = {PACKAGE} | {
    f"{PACKAGE}.{m}" for m in ("cli", "decomposition", "io", "linalg", "semigroup")
}
QND = {
    "mode": "qnd",
    "dim": 2,
    "qnd": {"energies": [0.0, 0.0], "amplitudes": [[[0.0, 1.0], [0.0, -1.0]]], "split": 0},
}
ANALYZED = ["faithful-2d", "unfaithful-2d", "two-enclosures-2d", "zero-generator-2d",
            "rotation-channel"]


def _fresh(code: str, *args):
    """What ``code`` prints as JSON, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    # The pair's stage-1 sector has a two-dimensional kernel, certified by
    # _sketched_kernels.
    pair = conjugated_pair_model(np.random.default_rng(1), 2, 2)[0]
    docs = {name: fixture_document(name) for name in ANALYZED + ["two-state-chain"]}
    docs["pair"] = {
        "mode": "lindblad",
        "dim": 4,
        "hamiltonian": complex_matrix_to_json(pair.hamiltonian),
        "jumps": [complex_matrix_to_json(j) for j in pair.jumps],
    }
    docs["qnd"] = QND
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(serialize_report(doc))
    return lambda name: str(root / f"{name}.json")


@pytest.fixture(scope="module")
def numpy_loads_ma():
    # numpy 1.x imports numpy.ma with numpy itself.
    return _fresh("import json, sys, numpy; print(json.dumps('numpy.ma' in sys.modules))")


# Command lines; "@name" is the file of model ``name``.
COMMANDS = {
    "analyze": (["analyze", "@pair"], 0),
    "analyze --batch": (["analyze", *(f"@{m}" for m in ANALYZED), "@pair", "--batch"], 0),
    "oqrw": (["oqrw", "@two-state-chain"], 0),
    "identifiability discrete": (
        ["identifiability", "@rotation-channel", "--mode", "discrete"], 3),
    "identifiability continuous": (
        ["identifiability", "@two-enclosures-2d", "--mode", "continuous"], 0),
    "identifiability qnd": (["identifiability", "@qnd", "--mode", "qnd"], 3),
    "examples": (["examples", "faithful-2d"], 0),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_what_it_runs(command, models, numpy_loads_ma):
    argv, expected = COMMANDS[command]
    argv = [models(a[1:]) if a.startswith("@") else a for a in argv]
    code = (
        "import json, sys; from enclosure_atlas.cli import main; "
        "code = main(sys.argv[1:]); print(json.dumps([code, sorted(sys.modules)]))"
    )
    exit_code, loaded = _fresh(code, *argv, "-o", os.devnull)
    assert exit_code == expected
    loaded = set(loaded)
    ours = {m for m in loaded if m == PACKAGE or m.startswith(PACKAGE + ".")}
    if argv[0] == "analyze":
        assert ours == ANALYZE_PATH
    if argv[0] == "oqrw":
        assert f"{PACKAGE}.identifiability" not in ours
    if argv[0] == "identifiability":
        assert f"{PACKAGE}.oqrw" not in ours
    assert "scipy" not in loaded
    assert numpy_loads_ma or "numpy.ma" not in loaded


def test_package_import_loads_no_submodule():
    loaded, oqrw = _fresh(
        "import json, sys, enclosure_atlas; loaded = sorted(sys.modules); "
        "oqrw = enclosure_atlas.oqrw is sys.modules['enclosure_atlas.oqrw']; "
        "print(json.dumps([loaded, oqrw]))"
    )
    assert [m for m in loaded if m.startswith(PACKAGE)] == [PACKAGE]
    assert "numpy" not in loaded
    # A submodule still resolves as an attribute, now on first access.
    assert oqrw


def test_package_names_resolve_to_their_defining_modules():
    names = enclosure_atlas.__all__
    assert len(names) == 43 and names == sorted(set(names))
    for name in names:
        obj = getattr(enclosure_atlas, name)
        # DEFAULT_TOL, an instance, reports the module of its class.
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith(PACKAGE + "."), name
        assert getattr(home, name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec(f"from {PACKAGE} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(enclosure_atlas.__all__)
    assert set(enclosure_atlas.__all__) <= set(dir(enclosure_atlas))


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        enclosure_atlas.no_such_name
    assert not hasattr(enclosure_atlas, "no_such_name")
