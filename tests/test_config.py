"""The consolidated ``REPRO_*`` environment contract.

One module (:mod:`repro.config`) parses every knob, and the contract
is the same everywhere: unset/empty → default, well-formed → parsed
and clamped to the documented floor, malformed → one-line
:class:`ConfigError` naming the variable — surfaced by the CLI as a
one-line ``error:`` with exit status 2, never a traceback and never a
silent fallback to the default.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ConfigError, env_choice, env_int, env_raw

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    return monkeypatch


class TestEnvRaw:
    def test_unset_is_none(self):
        assert env_raw("REPRO_TEST_KNOB") is None

    def test_empty_and_whitespace_are_none(self, monkeypatch):
        for value in ("", "   ", "\t"):
            monkeypatch.setenv("REPRO_TEST_KNOB", value)
            assert env_raw("REPRO_TEST_KNOB") is None

    def test_value_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "  shm  ")
        assert env_raw("REPRO_TEST_KNOB") == "shm"


class TestEnvInt:
    def test_unset_yields_default(self):
        assert env_int("REPRO_TEST_KNOB", 8) == 8

    def test_well_formed_is_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "32")
        assert env_int("REPRO_TEST_KNOB", 8) == 32

    def test_clamped_to_floor_not_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        assert env_int("REPRO_TEST_KNOB", 8, minimum=1) == 1

    def test_clamped_to_ceiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "1000000")
        assert env_int("REPRO_TEST_KNOB", 8, maximum=64) == 64

    def test_malformed_raises_named_one_liner(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "many")
        with pytest.raises(ConfigError) as caught:
            env_int("REPRO_TEST_KNOB", 8)
        message = str(caught.value)
        assert "REPRO_TEST_KNOB" in message
        assert "'many'" in message
        assert "\n" not in message

    def test_config_error_is_a_value_error(self, monkeypatch):
        # legacy call sites guard with `except ValueError` — keep them
        monkeypatch.setenv("REPRO_TEST_KNOB", "nope")
        with pytest.raises(ValueError):
            env_int("REPRO_TEST_KNOB", 8)


class TestEnvChoice:
    CHOICES = ("shm", "pickle")

    def test_unset_yields_default(self):
        assert env_choice("REPRO_TEST_KNOB", "shm", self.CHOICES) == "shm"

    def test_case_folded_match(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "PICKLE")
        assert (
            env_choice("REPRO_TEST_KNOB", "shm", self.CHOICES) == "pickle"
        )

    def test_unknown_value_lists_the_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "carrier-pigeon")
        with pytest.raises(ConfigError) as caught:
            env_choice("REPRO_TEST_KNOB", "shm", self.CHOICES)
        message = str(caught.value)
        assert "pickle" in message and "shm" in message
        assert "carrier-pigeon" in message


class TestConsumersUseTheContract:
    """Spot-check the real knob resolvers behind the shared parser."""

    def test_frontier_cache_knob(self, monkeypatch):
        from repro.network.shortest_path import resolve_frontier_cache_size

        monkeypatch.setenv("REPRO_FRONTIER_CACHE", "0")
        assert resolve_frontier_cache_size() == 1  # floor is 1, not 0

    def test_cli_maps_config_error_to_exit_2(self, tmp_path):
        # end to end: a garbage knob must exit 2 with a one-line
        # `error:` naming the variable, not a traceback
        from repro.core.compressor import compress_dataset
        from repro.trajectories.datasets import load_dataset

        network, trajectories = load_dataset(
            "CD", 4, seed=1, network_scale=8
        )
        archive_path = tmp_path / "tiny.utcq"
        compress_dataset(
            network, trajectories, default_interval=10
        ).save(archive_path)
        query_path = tmp_path / "queries.json"
        query_path.write_text(
            '{"kind": "where", "trajectory": 0, "time": 10}\n'
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        env["REPRO_DECODE_CACHE_BYTES"] = "many"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "query", "batch",
                str(archive_path), "--input", str(query_path),
                "--workers", "2", "--profile", "CD",
                "--dataset-seed", "1", "--network-scale", "8",
            ],
            cwd="/root/repo",
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert "error:" in done.stderr
        assert "REPRO_DECODE_CACHE_BYTES" in done.stderr
        assert "Traceback" not in done.stderr


def test_configuration_table_lists_exactly_the_variables_src_reads():
    """The "Configuration" table in docs/architecture.md is the census
    of ``REPRO_*`` variables: a variable added to or dropped from
    ``src/repro`` without its row fails here."""
    read_by_src = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        read_by_src.update(
            re.findall(r"""["'](REPRO_[A-Z_]+)["']""", path.read_text())
        )
    document = (REPO_ROOT / "docs" / "architecture.md").read_text()
    section = document.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(REPRO_[A-Z_]+)`", section, re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == read_by_src
