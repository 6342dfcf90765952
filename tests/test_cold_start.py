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

The daemon is probed as ``python -m repro serve`` runs it, through
``runpy``, over a full session.  It loads no TLS: no ``ssl``, ``hmac``
or ``hashlib``, and neither libssl nor libcrypto mapped, about 5 MB of
its peak RSS.
"""

import ast
import functools
import json
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

import pytest

from repro.db.faults import FaultInjector
from repro.service.client import CheckerClient, http_get_text
from repro.service.replay import transactions_in_commit_order
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

SRC = Path(__file__).resolve().parents[1] / "src"
LADDER = SRC.parent / "benchmarks" / "ladder"
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


def _serve_code(prelude: str = "") -> str:
    """``python -m repro serve <argv[1:]>`` run through ``runpy``, as the
    CLI runs it, with nothing imported first but ``prelude``.  Once the
    daemon exits, the last line of stdout reports its exit code, the
    ``sys.modules`` keys, the shared objects mapped into the process (on
    Linux), whether asyncio holds the real ``ssl``, and whether an
    ``import ssl`` after the daemon still loads it."""
    return prelude + (
        "import json, runpy, sys\n"
        "sys.argv = ['repro', 'serve', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    code = done.code\n"
        "loaded = sorted(sys.modules)\n"
        "maps = ''\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/maps') as handle:\n"
        "        maps = handle.read()\n"
        "objects = sorted({line.split()[-1] for line in maps.splitlines() if '.so' in line})\n"
        "tls = sys.modules['asyncio.base_events'].ssl\n"
        "import ssl\n"
        "print(json.dumps({'code': code, 'modules': loaded, 'objects': objects,\n"
        "                  'asyncio_ssl': tls is ssl, 'late_ssl': hasattr(ssl, 'SSLContext')}))\n"
    )


#: The TLS stack: ``asyncio`` imports ``ssl`` (libssl and libcrypto), and
#: ``secrets`` imports ``hmac`` and ``hashlib`` (libcrypto again).  The
#: daemon has no TLS option, and ``python -m repro serve`` loads none of it.
TLS_MODULES = ("ssl", "_ssl", "hmac", "hashlib", "_hashlib", "secrets")
TLS_LIBRARIES = ("libssl", "libcrypto")

#: Each library checker imported from the package root and constructed.
LIBRARY = {
    "Aion": "from repro import Aion, AionConfig\nAion(AionConfig())\n",
    "AionSer": "from repro import AionConfig, AionSer\nAionSer(AionConfig())\n",
    # Not a package export: the ladder's ``sharded_x2`` cold start.
    "ShardedAion": (
        "from repro import AionConfig, ShardedAion\nShardedAion(AionConfig(), n_shards=2)\n"
    ),
}

#: ``inspect`` and the modules it imports; a checker loads none of them.
INSPECT_CHAIN = ("dataclasses", "inspect", "ast", "dis", "tokenize")

#: ``entry -> (repro modules, their source lines)`` at most.  Measured
#: when the records stopped being dataclasses and ``repro check`` stopped
#: compiling the other commands: 16 / 3,775 (``Aion``), 17 / 3,873
#: (``AionSer``), 17 / 4,030 (``ShardedAion``, read again at 4,030 when
#: the daemon stopped offering it), 13 / 2,513 (``check --level si``),
#: 14 / 2,606 (``--level ser``); each line budget leaves about 3 % for
#: edits that add no import.  ``serve`` is the SI daemon as ``python -m repro serve``
#: runs it, after a full session: 33 / 7,399 when ``/metrics`` started
#: rendering from the ``stats()`` snapshot with no metric objects (33 /
#: 7,596 before).
BUDGETS = {
    "Aion": (16, 3_890),
    "AionSer": (17, 3_990),
    "ShardedAion": (17, 4_150),
    "check si": (13, 2_590),
    "check ser": (14, 2_690),
    "serve": (33, 7_620),
}


def _cli_code(*argv: str) -> str:
    """``python -m repro <argv>`` run through ``runpy``, expecting exit 0."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )


def _check_code(history: Path, level: str) -> str:
    """``repro check <history> --level <level>``."""
    return _cli_code("check", str(history), "--level", level)


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


def _imported_modules(path: Path) -> set:
    """Every module ``path`` names in an ``import`` or ``from`` statement,
    at any depth (a lazy import inside a function counts)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_product_module_reaches_the_sharded_checker():
    # ``repro.core.sharded`` is kept only for the benchmark ladder: no
    # other module under ``src/repro`` imports it, no package lists
    # ``ShardedAion`` in ``__all__``, and ``repro.core`` does not resolve
    # it.  ``from repro import ShardedAion`` still does, for the ladder's
    # ``sharded_x2`` cold start.
    importers = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "sharded.py" and "repro.core.sharded" in _imported_modules(path)
    ]
    assert importers == []
    code = (
        "import repro, repro.core\n"
        "for module in (repro, repro.core):\n"
        "    assert 'ShardedAion' not in module.__all__, module.__name__\n"
        "    assert 'shard_of' not in dir(module), module.__name__\n"
        "assert not hasattr(repro.core, 'ShardedAion')\n"
        "import sys\n"
        "assert 'repro.core.sharded' not in sys.modules\n"
        "from repro import ShardedAion\n"
        "assert ShardedAion.__module__ == 'repro.core.sharded'\n"
    )
    _loaded(code)


def test_every_ladder_cold_start_exits_zero():
    # Each in-process ladder workload times its cold start as a child
    # running ``cold_code``; only an untraced run spawns it, so a package
    # change that breaks one (a name dropped from a lazy export map)
    # shows here, not in a traced ladder run.
    if str(LADDER) not in sys.path:
        sys.path.insert(0, str(LADDER))
    from ladderbench import procs
    from ladderbench.workloads import ALL, StreamWorkload

    codes = {w.name: w.cold_code for w in ALL if isinstance(w, StreamWorkload)}
    assert {"si_stream", "ser_stream", "sharded_x2"} <= set(codes)
    for name, code in codes.items():
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=procs.child_env(),
        )
        assert completed.returncode == 0, (name, completed.stderr[-2000:])


def test_si_daemon_loads_one_checker_and_one_codec():
    loaded = set(_serve_session(())[0]["modules"])
    assert "repro.core.aion" in loaded
    assert sorted(loaded & set(SI_DAEMON_NEVER)) == []


def test_si_daemon_loads_no_dataclasses():
    # ``asyncio`` imports ``inspect`` itself, so only ``dataclasses`` is pinned.
    assert "dataclasses" not in _serve_session(())[0]["modules"]


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


def test_history_stats_loads_no_dataclasses_and_no_inspect(tmp_path):
    # ``repro stats <file>``: the decoder and HistoryStats, a plain record.
    loaded = _loaded(_cli_code("stats", str(_one_transaction_file(tmp_path))))
    assert "repro.histories.stats" in loaded
    assert sorted(loaded & set(INSPECT_CHAIN)) == []


@pytest.mark.parametrize("entry", sorted(BUDGETS))
def test_entry_point_module_and_source_line_budget(tmp_path, entry):
    if entry == "serve":
        loaded = set(_serve_session(())[0]["modules"])
    elif entry.startswith("check "):
        loaded = _loaded(_check_code(_one_transaction_file(tmp_path), entry.split()[1]))
    else:
        loaded = _loaded(LIBRARY[entry])
    modules, lines = BUDGETS[entry]
    assert len(_repro_modules(loaded)) <= modules, sorted(_repro_modules(loaded))
    assert _source_lines(loaded) <= lines


def _stream(n: int = 300):
    history = generate_default_history(
        WorkloadSpec(n_sessions=6, n_transactions=n, ops_per_txn=4, n_keys=60, seed=9)
    )
    injector = FaultInjector(history, seed=9)
    injector.inject_int()
    return transactions_in_commit_order(injector.build())


@functools.lru_cache(maxsize=None)
def _serve_session(argv: Tuple[str, ...], prelude: str = ""):
    """Start :func:`_serve_code` with ``--port 0`` and ``argv``, run one
    full v2 session against it (a ``hello`` that opens a session,
    ``subscribe``, an acked submit, STATS with bytes, ``/metrics`` and
    ``/health`` when ``--http-port`` is given, ``shutdown``) and return
    ``(report, stats, scraped, result)``, shared between callers."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.Popen(
        [sys.executable, "-c", _serve_code(prelude), "--port", "0", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        wanted = r"metrics on http://([\d.]+):(\d+)" if "--http-port" in argv else r"listening"
        printed, deadline = "", time.monotonic() + 60.0
        while not re.search(wanted, printed):
            assert time.monotonic() < deadline, f"daemon announced nothing: {printed!r}"
            assert proc.poll() is None, printed + proc.stderr.read().decode()
            if select.select([proc.stdout], [], [], 0.2)[0]:
                printed += os.read(proc.stdout.fileno(), 4096).decode()
        host, port = re.search(r"listening on ([\d.]+):(\d+)", printed).groups()
        http = re.search(r"metrics on http://([\d.]+):(\d+)", printed)
        client = CheckerClient(host, int(port), auto_resume=True, timeout=60.0)
        client.connect()
        with client:
            assert client.session_token is not None
            client.subscribe()
            client.submit_many(_stream())
            stats = client.stats(include_bytes=True)
            scraped = {}
            if http is not None:
                for route in ("/metrics", "/health"):
                    scraped[route] = http_get_text(http.group(1), int(http.group(2)), route)
            result = client.shutdown()
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    report = json.loads(out.decode().splitlines()[-1])
    assert report["code"] == 0, err.decode()[-2000:]
    return report, stats, scraped, result


@pytest.mark.parametrize(
    "argv",
    [(), ("--level", "ser"), ("--gc-threshold", "50", "--batch-size", "25"),
     ("--http-port", "0")],
    ids=["si", "ser", "gc-spill", "http"],
)
def test_cli_daemon_loads_no_tls(argv):
    # The daemon as ``python -m repro serve`` runs it, after a full
    # session: no TLS module, no OpenSSL mapped, and asyncio without ssl.
    report, stats, scraped, result = _serve_session(argv)
    assert sorted(set(report["modules"]) & set(TLS_MODULES)) == []
    if sys.platform.startswith("linux"):
        assert report["objects"], "no shared object read from /proc/self/maps"
        mapped = [path for path in report["objects"] if any(lib in path for lib in TLS_LIBRARIES)]
        assert mapped == []
    assert not report["asyncio_ssl"]
    # The mask is lifted: an import after the daemon loads the real ssl.
    assert report["late_ssl"]
    assert not result.is_valid  # the stream's INT fault
    if "--gc-threshold" in argv:
        assert stats["gc"]["spill_bytes"] > 0
    if "--http-port" in argv:
        assert scraped["/metrics"][0] == 200 and "repro_" in scraped["/metrics"][1]
        assert scraped["/health"][0] == 200


def test_process_that_imported_asyncio_first_keeps_real_ssl():
    # An embedding process keeps the asyncio it had: the serve handler
    # masks nothing once asyncio is loaded.
    report, _, _, _ = _serve_session((), prelude="import asyncio\n")
    assert report["asyncio_ssl"]
    assert "ssl" in report["modules"]
