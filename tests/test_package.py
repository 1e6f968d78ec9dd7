"""Every public name the package declares resolves, every definition has
a reader, and importing the package or running any command loads no
scipy.

Profiling tools find the functions to time through each module's
``__all__``, so a name moved or renamed without its entry would vanish
from their spans silently."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vibsim

MODULES = sorted(f"vibsim.{m.name}" for m in pkgutil.iter_modules(vibsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse(Path(vibsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"vibsim.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(vibsim, name) is getattr(source, alias.name)


def _trees(paths):
    return [ast.parse(p.read_text()) for p in paths]


def _definitions(trees) -> set[str]:
    """Names of the functions, methods and classes defined, dunders aside."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _reads(trees) -> set[str]:
    """Names read as a name or an attribute; ``__all__`` strings and import
    aliases do not count as reads."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_definition_is_referenced():
    """Each function, method and class under ``src/vibsim`` is read as a
    name or an attribute somewhere in ``src/`` or ``tests/``."""
    package = _trees(sorted(Path(vibsim.__file__).parent.rglob("*.py")))
    tests = _trees(sorted(Path(__file__).parent.glob("*.py")))
    assert sorted(_definitions(package) - _reads(package + tests)) == []


#: definitions that no code in ``src/`` or ``bench/`` reads, each kept on
#: purpose: exported or documented API, an acceptance-criterion helper, or an
#: oracle that tests compare against
TEST_FACING = {
    "apply", "fidelity_fock", "fit_pump_curve", "hom_to_delta", "mean_photon",
    "pump_to_r", "reference_table", "restrict_to", "tropolone_excited_freqs", "vacuum",
    "write_histogram_csv",
}


def test_only_named_definitions_lack_a_runtime_reader():
    """A helper that only tests call is either named in ``TEST_FACING`` or
    deleted, so that the tests check the code the package runs."""
    package = _trees(sorted(Path(vibsim.__file__).parent.rglob("*.py")))
    runtime = package + _trees(sorted((Path(__file__).parents[1] / "bench").glob("*.py")))
    assert _definitions(package) - _reads(runtime) == TEST_FACING


#: the private names each module reads from another module of the package,
#: as ``module._name``; a layout or a table private to one module stays there
PRIVATE_READS = {
    "calibrate": {"fock._tmsv_amplitudes", "fock._loss_kraus", "fock._table",
                  "fock._noise_convolution", "fock._apply_single", "experiment._mixing_angle"},
    "cli": {"fock._refuse_beyond_memory", "optimize._optimum"},
    "experiment": {"gaussian._anywhere", "gaussian._each", "fock._photon_counts"},
    "optimize": {"gaussian._anywhere"},
}


def _private_reads(tree) -> set[str]:
    """``module._name`` for each ``from .module import _name`` and each
    ``module._name`` attribute on a module bound by ``from . import module``."""
    modules, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    read.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            read.add(f"{modules[node.value.id]}.{node.attr}")
    return read


def test_private_reads_across_modules_are_listed():
    package = Path(vibsim.__file__).parent
    reads = {}
    for path in sorted(package.rglob("*.py")):
        name = path.parent.name if path.stem == "__init__" else path.stem
        found = _private_reads(ast.parse(path.read_text()))
        if found:
            reads[name] = found
    assert reads == PRIVATE_READS


#: the ``lru_cache`` tables of the package, each kept because its traffic reads it
#: again; hits and misses in one seed-7 round of the benchmark workload named:
#: ``fock._binomial_roots`` 1289 / 1 (tomography), ``fock._block_layout`` 245 / 11,
#: ``fock._sector_layout`` 22 / 4 (spectra), ``calibrate._splitter`` 18 / 2 (tomography).
#: A new cache needs a key its traffic repeats: one that never hits still costs a
#: read-only table, and a builder twin whose arguments are hashable
CACHED_TABLES = {"fock._block_layout", "fock._binomial_roots", "fock._sector_layout",
                 "calibrate._splitter"}


def test_cached_tables_are_listed():
    found = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, val in vars(module).items():
            if callable(getattr(val, "cache_info", None)) and val.__module__ == name:
                found.add(f"{name.removeprefix('vibsim.')}.{attr}")
    assert found == CACHED_TABLES


# The import-budget checks run in a fresh interpreter: this process has
# imported scipy already.

SRC = str(Path(vibsim.__file__).parents[1])


def run_fresh(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_LOADED = "any(k == 'scipy' or k.startswith('scipy.') for k in sys.modules)"


def readme_config() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0]


def test_import_loads_no_scipy():
    assert run_fresh(f"import sys, vibsim, vibsim.cli; print({SCIPY_LOADED})") == "False\n"


def test_cli_commands_load_no_scipy(tmp_path):
    from vibsim.calibrate import predicted_distribution, write_histogram_csv
    from vibsim.cli import main
    from vibsim.experiment import DetectorModel
    from vibsim.sampler import sample

    config = tmp_path / "config.json"
    config.write_text(readme_config())
    pair = [tmp_path / "trans.csv", tmp_path / "refl.csv"]
    for path, t in zip(pair, (1.0, 0.0)):
        table = predicted_distribution(0.3, (0.45, 0.40), t, DetectorModel(), 12)
        write_histogram_csv(sample(table, 20_000, seed=int(t)), path)
    runs = {"ideal": ["ideal"], "simulate": ["simulate"], "optimize": ["optimize"],
            "sweep": ["sweep-loss", "--grid", "0:0.95:4"],
            "tomography": ["tomography", *map(str, pair)]}
    code = f"""
import json, sys
from vibsim.cli import main
config, out = sys.argv[1:]
runs = {runs!r}
codes = [main(["--config", config, "--out-dir", out + "/" + name, *argv])
         for name, argv in runs.items()]
loaded = {SCIPY_LOADED}
from vibsim.fock import gaussian_to_fock, photon_distribution
from vibsim.gaussian import BeamSplitter, GaussianCircuit, Squeeze, ThermalMix, replay
mixed = replay(GaussianCircuit(2, [Squeeze(0, 0.4), ThermalMix(1, 0.3, 0.2),
                                   BeamSplitter(0, 1, 0.5, 0.2)]))
table = photon_distribution(gaussian_to_fock(mixed, 10))
print(json.dumps([codes, loaded, {SCIPY_LOADED}, sorted(table.entries.items())]))
"""
    out = run_fresh(code, str(config), str(tmp_path / "fresh"))
    codes, loaded, loaded_by_synthesis, entries = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(runs) and not loaded and loaded_by_synthesis
    # a mixed state's synthesis then loads scipy, and gives the in-process table
    from vibsim.fock import gaussian_to_fock, photon_distribution
    from vibsim.gaussian import BeamSplitter, GaussianCircuit, Squeeze, ThermalMix, replay

    mixed = replay(GaussianCircuit(2, [Squeeze(0, 0.4), ThermalMix(1, 0.3, 0.2),
                                       BeamSplitter(0, 1, 0.5, 0.2)]))
    table = photon_distribution(gaussian_to_fock(mixed, 10))
    assert entries == json.loads(json.dumps(sorted(table.entries.items())))
    for name, argv in runs.items():
        here = tmp_path / "here" / name
        assert main(["--config", str(config), "--out-dir", str(here), *argv]) == 0
        fresh = sorted(p.name for p in (tmp_path / "fresh" / name).iterdir())
        assert fresh == sorted(p.name for p in here.iterdir()) and fresh
        for artefact in fresh:
            assert ((tmp_path / "fresh" / name / artefact).read_bytes()
                    == (here / artefact).read_bytes())
