"""Tests for the CLI (`python -m repro`) and the example scripts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestCli:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        assert main([
            "generate", "--txns", "200", "--sessions", "4", "--keys", "40",
            "--out", str(out),
        ]) == 0
        assert out.exists()
        assert main(["stats", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "transactions : 200" in captured

    def test_check_valid_history_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        main(["generate", "--txns", "150", "--sessions", "4", "--keys", "30",
              "--out", str(out)])
        assert main(["check", str(out), "--level", "si"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_ser_on_si_history_exit_one(self, tmp_path):
        out = tmp_path / "h.jsonl"
        main(["generate", "--txns", "300", "--sessions", "8", "--keys", "30",
              "--out", str(out)])
        assert main(["check", str(out), "--level", "ser"]) == 1

    def test_inject_then_check_finds_faults(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        bad = tmp_path / "bad.jsonl"
        main(["generate", "--txns", "300", "--sessions", "6", "--keys", "50",
              "--out", str(clean)])
        assert main(["inject", str(clean), "--faults", "4", "--out", str(bad)]) == 0
        assert main(["check", str(bad)]) == 1
        assert "VIOLATIONS" in capsys.readouterr().out

    def test_online_check(self, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        main(["generate", "--txns", "300", "--sessions", "6", "--keys", "50",
              "--out", str(out)])
        assert main(["check", str(out), "--level", "si", "--online"]) == 0
        assert "online SI" in capsys.readouterr().out

    def test_generate_with_clock_skew_detectable(self, tmp_path):
        out = tmp_path / "skew.jsonl"
        main(["generate", "--txns", "500", "--sessions", "8", "--keys", "50",
              "--clock-skew", "0.1", "--out", str(out)])
        assert main(["check", str(out)]) == 1

    @pytest.mark.parametrize("workload", ["list", "twitter", "rubis", "tpcc"])
    def test_generate_other_workloads(self, tmp_path, workload):
        out = tmp_path / f"{workload}.jsonl"
        assert main([
            "generate", "--workload", workload, "--txns", "100",
            "--sessions", "4", "--keys", "30", "--out", str(out),
        ]) == 0
        assert main(["check", str(out)]) == 0

    def test_generate_ser_isolation(self, tmp_path):
        out = tmp_path / "ser.jsonl"
        main(["generate", "--txns", "200", "--sessions", "4", "--keys", "40",
              "--isolation", "ser", "--out", str(out)])
        assert main(["check", str(out), "--level", "ser"]) == 0


GOOD_LINE = '{"tid":1,"sid":1,"sno":0,"sts":1,"cts":2,"ops":[["w","x",1]]}'


class TestCheckCommand:
    """``repro check``: both file forms, the headline, and failing like a tool."""

    @pytest.fixture
    def faulted(self, tmp_path):
        clean, bad = tmp_path / "clean.jsonl", tmp_path / "bad.jsonl"
        main(["generate", "--txns", "300", "--sessions", "6", "--keys", "50", "--out", str(clean)])
        main(["inject", str(clean), "--faults", "5", "--out", str(bad)])
        return bad

    @pytest.mark.parametrize("level", ["si", "ser"])
    def test_headline_decomposes_and_packed_file_prints_the_same_verdict(
        self, faulted, tmp_path, capsys, level
    ):
        from repro.histories.serialization import load_history, save_history_packed

        packed = tmp_path / "bad.rpch"
        save_history_packed(load_history(faulted), packed)
        capsys.readouterr()
        outputs = []
        for path in (faulted, packed):
            assert main(["check", str(path), "--level", level, "--max-report", "100000"]) == 1
            outputs.append(capsys.readouterr().out.splitlines())
        assert re.fullmatch(
            rf"offline {level.upper()}: 301 transactions checked in \d+\.\d\ds "
            r"\(load \d+\.\d\ds, sort \d+\.\d\ds, check \d+\.\d\ds\)",
            outputs[0][0],
        ), outputs[0][0]
        assert outputs[0][1].startswith("VIOLATIONS")
        assert outputs[0][1:] == outputs[1][1:]

    def test_packed_file_checks_online_too(self, faulted, tmp_path, capsys):
        from repro.histories.serialization import load_history, save_history_packed

        packed = tmp_path / "bad.rpch"
        save_history_packed(load_history(faulted), packed)
        assert main(["check", str(packed), "--online"]) == 1
        assert "online SI" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_line, what",
        [
            ('{"tid":2,', "2: "),
            ('{"tid":2,"sid":1,"sno":1,"cts":4,"ops":[]}', "2: missing field 'sts'"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["w","x"]]}', "2: malformed ops"),
            ('{"tid":2,"sid":1,"sno":1,"sts":3,"cts":4,"ops":[["zz","x",1]]}',
             "2: unknown operation code 'zz'"),
            (GOOD_LINE, "2: duplicate transaction id 1"),
        ],
    )
    @pytest.mark.parametrize("mode", [[], ["--online"]])
    def test_malformed_history_exits_two_naming_file_and_line(
        self, tmp_path, capsys, bad_line, what, mode
    ):
        path = tmp_path / "broken.jsonl"
        path.write_text(GOOD_LINE + "\n" + bad_line + "\n")
        assert main(["check", str(path), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:{what}"), captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # An SI history checked for SER prints thousands of violations —
        # far more than a pipe buffers — into a reader that leaves early.
        history = tmp_path / "h.jsonl"
        main(["generate", "--txns", "5000", "--sessions", "8", "--keys", "30", "--out", str(history)])
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "check", str(history), "--level", "ser",
             "--max-report", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline().startswith(b"offline SER")
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert stderr == b""


def test_offline_check_imports_only_what_it_runs(tmp_path):
    """The import budget of ``python -m repro check FILE``, and the lazy
    package namespaces still resolving every public name."""
    history = tmp_path / "one.jsonl"
    history.write_text(GOOD_LINE + "\n")
    probe = (
        "import json, runpy, sys\n"
        f"sys.argv = ['repro', 'check', {str(history)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "import repro, repro.core, repro.histories\n"
        "from repro import Aion\n"
        "from repro.core import ShardedAion\n"
        "from repro.histories import ANOMALY_CATALOG\n"
        "assert repro.Aion is Aion and 'Aion' in dir(repro)\n"
        "for package in (repro, repro.core, repro.histories):\n"
        "    assert set(package.__all__) <= set(dir(package)), package\n"
        "    for name in package.__all__:\n"
        "        assert getattr(package, name) is not None, name\n"
        "try:\n"
        "    repro.core.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('lazy namespace resolved a name it does not export')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    loaded = json.loads(completed.stdout.splitlines()[-1])
    forbidden = ("multiprocessing", "asyncio", "repro.service", "repro.core.sharded",
                 "repro.core.shm", "repro.db", "repro.workloads", "repro.online")
    offenders = [
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in forbidden)
    ]
    assert offenders == []
    assert "repro.core.chronos" in loaded and "repro.core.aion" not in loaded


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "audit_database.py", "online_monitoring.py", "compare_checkers.py"],
)
def test_examples_run_clean(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"


def test_quickstart_output_shape():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "offline verdict : OK" in completed.stdout
    assert "online verdict  : OK" in completed.stdout
    assert "EXT=1" in completed.stdout
