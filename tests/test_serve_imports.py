"""The ``borges serve`` process loads only the read path.

``python -m repro serve --snapshot <release>`` answers queries from a
release file.  It needs the index, the store, the service, the HTTP
server and observability, and none of the write side: a module listed
in :data:`WRITE_SIDE` showing up in its ``-X importtime`` log means a
top-level import (in ``cli.py`` or a package façade) pulled the
reproduction in again.  The façades (``repro``, ``repro.core``,
``repro.serve``) bind their public names on first access; the last
tests check that every exported name still resolves.
"""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.whois import ASNDelegation, WhoisDataset, WhoisOrg, save_as2org_file

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and their submodules) the serve process must never import.
WRITE_SIDE = (
    "numpy",
    "repro.universe",
    "repro.core.pipeline",
    "repro.llm",
    "repro.web",
    "repro.experiments",
    "repro.analysis",
    "repro.serve.loadgen",
)

FACADES = ("repro", "repro.core", "repro.serve")

START_TIMEOUT = 60.0


def _release(path: Path) -> Path:
    orgs = [WhoisOrg("ORG-A", "Alpha Networks"), WhoisOrg("ORG-B", "Beta Net")]
    delegations = [
        ASNDelegation(3356, "ORG-A"),
        ASNDelegation(3549, "ORG-A"),
        ASNDelegation(174, "ORG-B"),
    ]
    save_as2org_file(WhoisDataset.build(orgs, delegations), path)
    return path


def _imported(log: str):
    """Module names in a ``-X importtime`` log."""
    for line in log.splitlines():
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1].strip()
            if name != "package":  # the column header
                yield name


@pytest.fixture(scope="module")
def serve_run(tmp_path_factory):
    """One ``borges serve`` process: ``(modules, output)``, every module
    it imported before (and while) answering, per its ``-X importtime``
    log, and what it printed up to its ``try: curl`` hint."""
    tmp = tmp_path_factory.mktemp("serve-imports")
    release = _release(tmp / "release.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env["PYTHONUNBUFFERED"] = "1"
    log_path = tmp / "importtime.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro", "serve",
                "--snapshot", str(release), "--port", "0",
            ],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        killer = threading.Timer(START_TIMEOUT, proc.kill)
        killer.start()
        output = []
        try:
            for line in proc.stdout:
                output.append(line)
                if line.startswith("  try: curl "):
                    break
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=15)
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
    assert any(line.startswith("serving on") for line in output), "".join(output)
    return set(_imported(log_path.read_text(encoding="utf-8"))), output


@pytest.fixture(scope="module")
def serve_imports(serve_run):
    return serve_run[0]


def test_serve_hints_at_the_lowest_asn(serve_run):
    """The hint names ``asns()[0]``, read without unpacking the table."""
    assert serve_run[1][-1].rstrip().endswith("/v1/asn/174"), serve_run[1]


def test_log_sees_the_read_path(serve_imports):
    """The log lists what the façades import too (they use ``__import__``,
    which ``-X importtime`` reports), so an absence below means something."""
    for name in (
        "repro.cli",
        "repro.serve.store",
        "repro.serve.service",
        "repro.serve.httpd",
        "repro.core.mapping",
    ):
        assert name in serve_imports, name


def test_serve_imports_no_write_side(serve_imports):
    pulled = sorted(
        name
        for name in serve_imports
        if any(name == bad or name.startswith(bad + ".") for bad in WRITE_SIDE)
    )
    assert not pulled, f"the serve process imported {pulled}"


@pytest.mark.parametrize("facade", FACADES)
def test_every_public_name_resolves(facade):
    module = importlib.import_module(facade)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("facade", FACADES)
def test_unknown_name_is_an_attribute_error(facade):
    module = importlib.import_module(facade)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
