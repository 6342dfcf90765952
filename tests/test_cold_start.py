"""Import budgets: what each entry point compiles at cold start.

A daemon spawn or a one-shot ``repro check`` pays for every module it
imports before it does any work, and with ``PYTHONDONTWRITEBYTECODE``
set it compiles each one from source.  Every package ``__init__``
resolves its public names lazily (``repro._lazy``), and each entry point
imports only the checker and codec it runs.  These tests pin that: each
case runs in a fresh interpreter and reads ``sys.modules``, so nothing
this test process already imported can hide a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    path.name for path in (SRC / "repro").iterdir() if (path / "__init__.py").is_file()
)

#: Modules an SI daemon never runs; before the lazy package namespaces
#: the ``repro serve`` import chain compiled every one of them.
SI_DAEMON_NEVER = (
    "repro.service.client",
    "repro.service.replay",
    "repro.online.runner",
    "repro.online.collector",
    "repro.util.sortedmap",
    "repro.util.intervals",
    "repro.util.rng",
    "repro.core.sharded",
    "repro.core.aion_ser",
    "repro.obs.http",
    "repro.histories.serialization",
)


def _loaded(code: str) -> set:
    """The ``sys.modules`` keys after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(json.loads(completed.stdout.splitlines()[-1]))


def _repro_modules(loaded: set) -> set:
    return {name for name in loaded if name == "repro" or name.startswith("repro.")}


def test_every_package_is_found():
    assert {"core", "histories", "service", "online", "util", "obs"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_none_of_its_modules(package):
    loaded = _repro_modules(_loaded(f"import repro.{package}"))
    assert loaded == {"repro", "repro._lazy", f"repro.{package}"}


def test_every_exported_name_resolves():
    code = (
        "import importlib\n"
        f"for package in {['repro'] + [f'repro.{p}' for p in PACKAGES]!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    listed = set(dir(module))\n"
        "    for name in module.__all__:\n"
        "        assert name in listed, (package, name)\n"
        "        assert getattr(module, name) is not None, (package, name)\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(package + ' resolved a name it does not export')\n"
    )
    _loaded(code)


def test_si_daemon_loads_one_checker_and_one_codec():
    # What ``python -m repro serve`` runs up to its first connection:
    # the CLI module, then a daemon (``ServiceConfig.build_checker``
    # inside) built, started and shut down.
    loaded = _loaded(
        "import asyncio\n"
        "import repro.cli\n"
        "from repro.service.config import ServiceConfig\n"
        "from repro.service.daemon import CheckerService\n"
        "async def cycle():\n"
        "    service = CheckerService(ServiceConfig(port=0))\n"
        "    await service.start()\n"
        "    await service.shutdown()\n"
        "asyncio.run(cycle())\n"
    )
    assert "repro.core.aion" in loaded
    assert sorted(loaded & set(SI_DAEMON_NEVER)) == []


def test_in_process_aion_loads_no_ordered_index_and_no_hashlib():
    loaded = _loaded("from repro import Aion, AionConfig\nAion(AionConfig())\n")
    never = {"repro.util.sortedmap", "repro.util.intervals", "repro.util.rng", "hashlib"}
    assert sorted(loaded & never) == []


def test_offline_si_check_loads_only_chronos(tmp_path):
    history = tmp_path / "one.jsonl"
    history.write_text('{"tid":1,"sid":1,"sno":0,"sts":1,"cts":2,"ops":[["w","x",1]]}\n')
    loaded = _loaded(
        "import runpy, sys\n"
        f"sys.argv = ['repro', 'check', {str(history)!r}, '--level', 'si']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )
    assert "repro.core.chronos" in loaded
    assert sorted(loaded & {"repro.core.chronos_ser", "repro.core.aion", "asyncio"}) == []
