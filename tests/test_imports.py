"""The package namespace: every public name resolves, and a fresh interpreter
loads only the submodules its caller uses."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowlab

SRC = Path(flowlab.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loaded_after(code):
    """The flowlab submodules, and whether multiprocessing is loaded, after
    ``code`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = proc.stdout.split()
    return ({n.split(".", 1)[1] for n in names if n.startswith("flowlab.")},
            "multiprocessing" in names)


def test_import_flowlab_loads_no_submodule():
    assert loaded_after("import flowlab") == (set(), False)


def test_building_the_benchmark_scenarios_loads_four_layers_and_the_spec_loader():
    workloads = _perfbench("workloads")
    items = [json.loads(s) for w in ("certify-mix", "flow-mix")
             for s in workloads.scenarios_of(workloads.requests(w, 1))]
    assert {"sphere(3)", "paraboloid", "kunita", "ou(1)"} <= {i for i in items if isinstance(i, str)}
    assert any(isinstance(item, dict) for item in items)
    code = ("import flowlab\n"
            f"for item in {items!r}:\n"
            "    flowlab.builtin(item) if isinstance(item, str) else flowlab.load_system(item)")
    assert loaded_after(code) == ({"errors", "geometry", "systems", "scenarios", "expressions"},
                                  False)


def test_import_flowlab_cli_loads_every_module_the_tracer_wraps():
    tracing = _perfbench("tracing")
    wrapped = {m.split(".", 1)[1] for m, *_ in tracing.FUNCTIONS + tracing.METHODS}
    assert wrapped == {"scenarios", "expressions", "systems", "criteria", "estimators",
                       "semigroup", "flow", "geometry"}
    modules, _ = loaded_after("import flowlab.cli")
    assert wrapped <= modules


def test_every_exported_name_is_its_submodules_object():
    assert len(flowlab.__all__) == 68
    for name in flowlab.__all__:
        module = importlib.import_module(f"flowlab.{flowlab._MODULE_OF[name]}")
        assert getattr(flowlab, name) is getattr(module, name), name


def test_dir_covers_all():
    assert set(flowlab.__all__) <= set(dir(flowlab))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flowlab.no_such_name
    assert not hasattr(flowlab, "no_such_name")


def test_from_import_works_in_a_fresh_interpreter():
    modules, _ = loaded_after("from flowlab import certify\nassert callable(certify)")
    assert "criteria" in modules


def test_a_submodule_resolves_after_a_bare_import():
    modules, _ = loaded_after("import flowlab\nassert flowlab.criteria.certify is flowlab.certify")
    assert "criteria" in modules
