"""The import graph: what loading ``repro`` and ``repro.cli`` costs.

Every package ``__init__`` is a lazy export table, so importing one
module never drags in its siblings, and NumPy loads only when the numpy
kernel is first resolved.  These tests pin that by module name in fresh
interpreters (no timing), plus the promise that NumPy is optional: with
it blocked, the package imports and the CLI validates, shows and
schedules a document.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.builder import DocumentBuilder
from repro.core.timebase import MediaTime
from repro.format.writer import write_document

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ("repro", "repro.core", "repro.corpus", "repro.faults",
            "repro.format", "repro.kernel", "repro.media", "repro.pipeline",
            "repro.serving", "repro.store", "repro.timing",
            "repro.transport")

#: What ``import repro.cli`` must leave unloaded: the heavy layers no
#: argument parse needs.
CLI_FORBIDDEN = ("numpy", "repro.serving", "repro.pipeline",
                 "repro.timing", "repro.store", "repro.corpus")


def run_python(code: str, *, env: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    environ = dict(os.environ if env is None else env)
    environ["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement: str) -> list[str]:
    code = (f"import json, sys\n{statement}\n"
            f"print(json.dumps(sorted(sys.modules)))")
    return json.loads(run_python(code))


def test_cli_import_skips_the_heavy_layers():
    loaded = loaded_after("import repro.cli")
    heavy = [name for name in loaded
             if any(name == prefix or name.startswith(prefix + ".")
                    for prefix in CLI_FORBIDDEN)]
    assert heavy == []
    assert "repro.transport.environments" in loaded
    assert "repro.format.parser" in loaded


def test_package_import_loads_only_the_export_table():
    loaded = loaded_after("import repro")
    assert [name for name in loaded if name.startswith("repro")] \
        == ["repro", "repro._lazy"]


def test_every_export_resolves_lists_and_star_imports():
    code = f"""
import importlib, json
problems = []
for name in {PACKAGES!r}:
    package = importlib.import_module(name)
    listed = set(dir(package))
    star = {{}}
    exec(f"from {{name}} import *", star)
    for export in package.__all__:
        if export not in listed:
            problems.append(f"{{name}}.{{export}} missing from dir()")
        if export not in star:
            problems.append(f"{{name}}.{{export}} not star-imported")
        elif star[export] is not getattr(package, export):
            problems.append(f"{{name}}.{{export}} star-imported a "
                            f"different object")
    if len(set(package.__all__)) != len(package.__all__):
        problems.append(f"{{name}}.__all__ has duplicates")
print(json.dumps(problems))
"""
    assert json.loads(run_python(code)) == []


def test_exports_shadow_same_named_submodules():
    # ``repro.transport.negotiate`` is both a submodule and the function
    # the package exports; the function wins whichever loads first.
    code = """
import repro.transport.negotiate
from repro.transport import negotiate
print(callable(negotiate) and negotiate.__name__ == "negotiate")
"""
    assert run_python(code).strip() == "True"


def test_unknown_export_is_an_attribute_error():
    code = """
import repro.timing
try:
    repro.timing.no_such_name
except AttributeError as error:
    print(error)
"""
    assert "no attribute 'no_such_name'" in run_python(code)


NO_NUMPY = """
import sys
sys.modules["numpy"] = None
import repro
import repro.cli
from repro.core.errors import MediaError
from repro.kernel.backends import resolve_kernel
from repro.media.audio import synthesize_samples
assert resolve_kernel("auto").name == "python", resolve_kernel("auto")
for command in (["validate"], ["show"], ["show", "--form", "summary"],
                ["schedule"]):
    argv = [command[0], sys.argv[1], *command[1:]]
    assert repro.cli.main(argv) == 0, argv
try:
    synthesize_samples(100.0, 8000.0)
except MediaError as error:
    print("refused:", error)
"""


def test_cli_runs_without_numpy(tmp_path):
    builder = DocumentBuilder("no-numpy")
    builder.channel("video", "video")
    builder.channel("caption", "text")
    with builder.par("scene"):
        builder.imm("clip", channel="video", data="v",
                    duration=MediaTime.ms(4000))
        builder.imm("text", channel="caption", data="c",
                    duration=MediaTime.ms(2000))
    path = tmp_path / "doc.cmif"
    path.write_text(write_document(builder.build()), encoding="utf-8")
    env = {name: value for name, value in os.environ.items()
           if name != "REPRO_KERNEL"}
    code = NO_NUMPY.replace("sys.argv[1]", repr(str(path)))
    out = run_python(code, env=env)
    assert "VALID: 0 errors" in out
    assert "refused: audio synthesis requires numpy" in out


PLANNED_QUERY = """
import json, sys
from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.kernel._np import HAVE_NUMPY
from repro.store import DataStore, attr_range, keyword, medium_is
store = DataStore("planned")
for index in range(400):
    store.register(DataDescriptor(
        f"d{index:03d}", Medium.VIDEO if index % 2 else Medium.TEXT,
        attributes={"keywords": (f"topic-{index % 4}",),
                    "characters": index * 10}))
query = QUERY
kernel = KERNEL if HAVE_NUMPY else None
plan = store.explain(query)
smallest = min(len(step.ids) for step in plan.steps)
found = store.find_where(query, kernel=kernel)
print(json.dumps([smallest, len(found), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("query,kernel,vector", [
    ('keyword("topic-1") & medium_is("video") '
     '& attr_range("characters", 0, 400)', "numpy", False),
    ('keyword("topic-1") & medium_is("video")', None, True),
])
def test_planned_query_never_imports_numpy(query, kernel, vector):
    """A planned query imports no NumPy: under the numpy kernel when
    its most selective step is under the vector floor, and under the
    default kernel at any size while NumPy is not yet loaded."""
    code = PLANNED_QUERY.replace("QUERY", query).replace("KERNEL",
                                                         repr(kernel))
    smallest, found, loaded = json.loads(run_python(code))
    assert (smallest >= 64) == vector
    assert found > 0
    assert loaded is False
