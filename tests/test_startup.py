"""Import layering: which modules each entry point loads.

Every check runs in a fresh interpreter, so what this process imported
for other tests cannot hide a module that an entry point loads.
``make startup-smoke`` runs this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
EXAMPLES = Path(SRC).parent / "examples"

#: Packages whose ``__init__`` re-exports lazily.
PACKAGES = (
    "repro", "repro.engine", "repro.analysis", "repro.service",
    "repro.automata", "repro.patterns", "repro.xmlmodel",
    "repro.consistency", "repro.mappings", "repro.obs", "repro.regex",
    "repro.exchange", "repro.composition",
)

#: What the CLI's import, ``--help`` and ``--version`` must not load.
NOT_FOR_THE_PARSER = (
    "repro.engine", "repro.service", "repro.analysis", "repro.automata",
    "repro.exchange",
)

#: What ``repro check`` of a mapping must not load.
NOT_FOR_CHECK = (
    "repro.engine.parallel", "repro.service.client", "repro.service.server",
    "repro.exchange", "repro.analysis.fixes", "repro.analysis.sarif",
)


def run_python(script: str, *args: str) -> str:
    """Run *script* in a fresh interpreter; its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in [name for name in env if name.startswith("REPRO_")]:
        del env[name]
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded_by(argv: list[str] | None) -> set[str]:
    """The ``repro`` modules loaded by ``import repro.cli`` and, unless
    *argv* is None, by running the CLI on *argv*."""
    script = (
        "import contextlib, io, json, sys\n"
        "import repro.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            repro.cli.main(argv)\n"
        "        except SystemExit:\n"
        "            pass\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    return set(json.loads(run_python(script, json.dumps(argv))))


def offending(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    return sorted(
        module for module in modules
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    )


@pytest.mark.parametrize("argv", [None, ["--help"], ["--version"]],
                         ids=["import", "help", "version"])
def test_the_parser_loads_no_library_stack(argv):
    modules = loaded_by(argv)
    assert offending(modules, NOT_FOR_THE_PARSER) == []
    assert modules == {"repro", "repro.cli"}


def test_check_loads_only_its_own_stack():
    modules = loaded_by(["check", str(EXAMPLES / "mappings" / "university.xsm")])
    assert "repro.engine.core" in modules  # it did solve
    assert offending(modules, NOT_FOR_CHECK) == []


def test_version_names_the_package():
    output = run_python(
        "import contextlib, io, sys\n"
        "import repro.cli\n"
        "try:\n"
        "    repro.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert output.strip() == f"repro {repro.__version__}"


def test_every_export_resolves_and_star_imports_all():
    script = (
        "import importlib, json, pkgutil, sys, types\n"
        "packages = json.loads(sys.argv[1])\n"
        "resolved = {}\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    assert len(set(package.__all__)) == len(package.__all__), name\n"
        "    assert set(package.__all__) <= set(dir(package)), name\n"
        "    for export in package.__all__:\n"
        "        value = getattr(package, export)\n"
        "        assert not isinstance(value, types.ModuleType), (name, export)\n"
        "        resolved[name, export] = value\n"
        "    namespace = {}\n"
        "    exec(f'from {name} import *', namespace)\n"
        "    namespace.pop('__builtins__')\n"
        "    assert set(namespace) == set(package.__all__), name\n"
        "# a submodule imported later must not replace a resolved name\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        "for (name, export), value in resolved.items():\n"
        "    assert getattr(sys.modules[name], export) is value, (name, export)\n"
        "print('ok')\n"
    )
    assert run_python(script, json.dumps(PACKAGES)).strip() == "ok"


def test_a_fresh_daemon_lists_every_metric_family():
    # metric families register with the modules a serving session loads
    # when it is built, so after one /check they are those of a fully
    # loaded library
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "if sys.argv[1] == 'eager':\n"
        "    for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "        if info.name != 'repro.__main__':\n"
        "            importlib.import_module(info.name)\n"
        "from repro.service.client import call_service, fetch_text\n"
        "from repro.service.server import ServiceServer\n"
        "from repro.service.session import EngineSession\n"
        "with ServiceServer(EngineSession()).start() as server:\n"
        "    text = open(sys.argv[2]).read()\n"
        "    assert call_service(server.url, 'check', {'mappings': [text]})['ok']\n"
        "    metrics = fetch_text(server.url, 'metrics')\n"
        "print(sorted({line.split()[2] for line in metrics.splitlines()\n"
        "              if line.startswith('# TYPE ')}))\n"
    )
    mapping = str(EXAMPLES / "mappings" / "university.xsm")
    lazy = run_python(script, "lazy", mapping)
    eager = run_python(script, "eager", mapping)
    assert "repro_requests_total" in lazy
    assert lazy == eager


def test_a_preloaded_session_imports_nothing_while_serving():
    # the handlers on routes of every consistency cell: once a serving
    # session is built, no request loads another repro module
    # (composition, lint fixes and a worker pool are opt-in and load on
    # first use)
    script = (
        "import sys\n"
        "from repro.mappings.io import render_mapping\n"
        "from repro.workloads import families\n"
        "from repro.service.session import EngineSession\n"
        "session = EngineSession()\n"
        "before = {m for m in sys.modules if m.split('.')[0] == 'repro'}\n"
        "texts = [render_mapping(make(n, flag)) for make, n in (\n"
        "    (families.cons_arbitrary_family, 2),\n"
        "    (families.cons_nested_family, 2),\n"
        "    (families.distinct_values_family, 1),\n"
        "    (families.abscons_ptime_family, 2),\n"
        "    (families.abscons_wildcard_family, 2),\n"
        ") for flag in (True, False)]\n"
        "first = ('source:\\n    f -> item*\\n    item(sku)\\n'\n"
        "         'target:\\n    w -> product*\\n    product(sku)\\n'\n"
        "         'std: f[item(s)] -> w[product(s)]\\n')\n"
        "requests = [\n"
        "    ('check', {'mappings': texts, 'witness': True}),\n"
        "    ('lint', {'mappings': texts}),\n"
        "    ('delta', {'name': 'm', 'mapping': texts[0]}),\n"
        "    ('member', {'mapping': first, 'source': '<f><item sku=\"1\"/></f>',\n"
        "                'targets': ['<w/>'], 'explain': True}),\n"
        "    ('stats', {}),\n"
        "    ('selftest', {'jobs': 1}),\n"
        "]\n"
        "for command, request in requests:\n"
        "    response = session.handle(command, request)\n"
        "    assert response['ok'], (command, response.get('error'))\n"
        "after = {m for m in sys.modules if m.split('.')[0] == 'repro'}\n"
        "print(sorted(after - before))\n"
    )
    assert run_python(script).strip() == "[]"
