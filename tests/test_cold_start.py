"""Import budgets: what each entry point compiles at cold start.

A daemon spawn or a one-shot ``repro check`` pays for every module it
imports before it does any work, and with ``PYTHONDONTWRITEBYTECODE``
set it compiles each one from source.  Every package ``__init__``
resolves its public names lazily (``repro._lazy``), and each entry point
imports only the checker and codec it runs.  These tests pin that: each
case runs in a fresh interpreter and reads ``sys.modules``, so nothing
this test process already imported can hide a load.

None of the checkers, ``repro check`` or ``repro serve`` loads
``dataclasses``: its records are plain classes, because generating
their methods and importing ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) was about a third of a library cold start.  Each entry
point has a budget of repro modules and of their source lines, which
is what it compiles when there is no bytecode cache.
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


#: What ``python -m repro serve`` runs up to its first connection: the
#: CLI module and the serve handler, then a daemon
#: (``ServiceConfig.build_checker`` inside) built, started and shut down.
SI_DAEMON = (
    "import asyncio\n"
    "import repro.cli\n"
    "import repro.commands.serve\n"
    "from repro.service.config import ServiceConfig\n"
    "from repro.service.daemon import CheckerService\n"
    "async def cycle():\n"
    "    service = CheckerService(ServiceConfig(port=0))\n"
    "    await service.start()\n"
    "    await service.shutdown()\n"
    "asyncio.run(cycle())\n"
)

#: Each library checker imported from the package root and constructed.
LIBRARY = {
    "Aion": "from repro import Aion, AionConfig\nAion(AionConfig())\n",
    "AionSer": "from repro import AionConfig, AionSer\nAionSer(AionConfig())\n",
    "ShardedAion": (
        "from repro import AionConfig, ShardedAion\nShardedAion(AionConfig(), n_shards=2)\n"
    ),
}

#: ``inspect`` and the modules it imports; a checker loads none of them.
INSPECT_CHAIN = ("dataclasses", "inspect", "ast", "dis", "tokenize")

#: ``entry -> (repro modules, their source lines)`` at most.  Measured
#: when the records stopped being dataclasses and ``repro check`` stopped
#: compiling the other commands: 16 / 3,775 (``Aion``), 17 / 3,873
#: (``AionSer``), 17 / 4,030 (``ShardedAion``), 13 / 2,513 (``check
#: --level si``), 14 / 2,606 (``--level ser``), 33 / 7,577 (SI daemon);
#: each line budget leaves about 3 % for edits that add no import.
BUDGETS = {
    "Aion": (16, 3_890),
    "AionSer": (17, 3_990),
    "ShardedAion": (17, 4_150),
    "check si": (13, 2_590),
    "check ser": (14, 2_690),
    "serve": (33, 7_810),
}


def _check_code(history: Path, level: str) -> str:
    """``repro check <history> --level <level>`` run as ``python -m repro``."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', 'check', {str(history)!r}, '--level', {level!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )


def _one_transaction_file(tmp_path: Path) -> Path:
    history = tmp_path / "one.jsonl"
    history.write_text('{"tid":1,"sid":1,"sno":0,"sts":1,"cts":2,"ops":[["w","x",1]]}\n')
    return history


def _source_lines(modules: set) -> int:
    """Source lines of the repro modules among ``modules``."""
    total = 0
    for name in _repro_modules(modules):
        path = SRC.joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


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
    loaded = _loaded(SI_DAEMON)
    assert "repro.core.aion" in loaded
    assert sorted(loaded & set(SI_DAEMON_NEVER)) == []


def test_si_daemon_loads_no_dataclasses():
    # ``asyncio`` imports ``inspect`` itself, so only ``dataclasses`` is pinned.
    assert "dataclasses" not in _loaded(SI_DAEMON)


def test_in_process_aion_loads_no_ordered_index_and_no_hashlib():
    loaded = _loaded(LIBRARY["Aion"])
    never = {"repro.util.sortedmap", "repro.util.intervals", "repro.util.rng", "hashlib"}
    assert sorted(loaded & never) == []


@pytest.mark.parametrize("checker", sorted(LIBRARY))
def test_library_checker_loads_no_dataclasses_no_inspect_and_no_codec(checker):
    # The wire codec and the spill segment store are imported at their
    # first use: a frame, a packed file, a spill.
    never = set(INSPECT_CHAIN) | {"repro.core.colpack", "repro.core.segments"}
    assert sorted(_loaded(LIBRARY[checker]) & never) == []


def test_offline_si_check_loads_only_chronos(tmp_path):
    loaded = _loaded(_check_code(_one_transaction_file(tmp_path), "si"))
    assert "repro.core.chronos" in loaded
    assert sorted(loaded & {"repro.core.chronos_ser", "repro.core.aion", "asyncio"}) == []


@pytest.mark.parametrize("level", ["si", "ser"])
def test_offline_check_loads_no_dataclasses_no_inspect_and_no_other_command(tmp_path, level):
    loaded = _loaded(_check_code(_one_transaction_file(tmp_path), level))
    commands = {name for name in loaded if name.startswith("repro.commands.")}
    assert commands == {"repro.commands.check"}
    assert sorted(loaded & (set(INSPECT_CHAIN) | {"repro.core.colpack"})) == []


@pytest.mark.parametrize("entry", sorted(BUDGETS))
def test_entry_point_module_and_source_line_budget(tmp_path, entry):
    if entry == "serve":
        code = SI_DAEMON
    elif entry.startswith("check "):
        code = _check_code(_one_transaction_file(tmp_path), entry.split()[1])
    else:
        code = LIBRARY[entry]
    loaded = _loaded(code)
    modules, lines = BUDGETS[entry]
    assert len(_repro_modules(loaded)) <= modules, sorted(_repro_modules(loaded))
    assert _source_lines(loaded) <= lines
