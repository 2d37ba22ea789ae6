"""The serving workload's server child is waited for and starts no helper process."""

import os
from pathlib import Path

from perfbench import serve


def _children() -> list[int]:
    """Process ids whose parent is this process, zombies included."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            children.append(int(stat.parent.name))
    return children


def test_server_child_is_reaped_on_stop():
    model = serve.train_snapshots(3, 0.05)
    handle = serve.ServerHandle(model, False, None)
    assert handle.process.pid in _children()
    summary = handle.stop()
    assert handle.process.returncode == 0
    assert summary["stats"]["queries"] == 0
    assert _children() == []


def test_server_child_is_reaped_on_kill():
    model = serve.train_snapshots(3, 0.05)
    handle = serve.ServerHandle(model, False, None)
    handle.kill()
    assert handle.process.returncode is not None
    assert _children() == []
