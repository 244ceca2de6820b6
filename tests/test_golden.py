"""The command line's bytes, pinned by digest, on every interpreter.

golden.py runs a fixed catalog of requests through cli.main and sums each
group up by one sha256; tables.GOLDEN keeps them, so a failure names its
group.  A change that alters any output on purpose updates the digest of
its group and says which requests changed and why.

The package supports every CPython from 3.10 on, so the same digests are
read under each other feature version found on this machine, in a child
python -S that must load neither typing nor __future__.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden import CATALOG, digest
from reference import PACKAGE_ENV
from tables import GOLDEN


@pytest.mark.parametrize("group", sorted(CATALOG))
def test_cli_bytes_match_their_digest(group):
    assert digest(group) == GOLDEN[group]


_VERSION = "import sys; print(sys.implementation.name, *sys.version_info)"


def _interpreters() -> tuple[list[str], dict]:
    """(the paths searched, {(major, minor): path}): the first CPython of
    each feature version from 3.10 on, other than the running one, among
    $(pyenv root)/versions/3.*/bin/python and every python3.X on PATH,
    each asked for its version at once.  A path that does not start, such
    as a pyenv shim of a version that is not selected, is no interpreter."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    dirs = os.environ.get("PATH", "").split(os.pathsep)
    searched = [f"{root}/versions/3.*/bin/python"] + [
        f"{d}/python3.X" for d in dirs]
    feature = r"3\.(1\d|[2-9]\d)"  # 3.10 and later, by name
    paths = [version / "bin" / "python" for version in sorted(
        Path(root, "versions").glob("3.*"))
        if re.fullmatch(feature + r"(\.\d+)*", version.name)] + [
        path for d in dirs if os.path.isdir(d)
        for path in sorted(Path(d).iterdir())
        if re.fullmatch("python" + feature, path.name)]
    probes = {}
    for path in dict.fromkeys(map(os.path.realpath, paths)):
        try:
            probes[path] = subprocess.Popen(
                [path, "-S", "-c", _VERSION], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
        except OSError:
            pass
    found = {}
    for path, probe in probes.items():
        out = probe.communicate(timeout=30)[0].split()
        if probe.returncode or out[:1] != ["cpython"]:
            continue
        version = tuple(map(int, out[1:3]))
        if (3, 10) <= version != sys.version_info[:2]:
            found.setdefault(version, path)
    return searched, found


def test_cli_bytes_match_on_every_interpreter():
    searched, found = _interpreters()
    if not found:
        pytest.skip("no other CPython >= 3.10 in " + ", ".join(searched))
    env = dict(PACKAGE_ENV, PYTHONDONTWRITEBYTECODE="1")
    script = str(Path(__file__).with_name("golden.py"))
    children = {version: subprocess.Popen(
        [path, "-S", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env) for version, path in sorted(found.items())}
    for version, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, (found[version], err)
        report = json.loads(out)
        assert report["digests"] == GOLDEN, found[version]
        assert report["loaded"] == [], found[version]
