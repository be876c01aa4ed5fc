"""The kernel cache: one build and one parse of the declarations per source.

The first process to load the kernels for a source compiles the shared
object and writes cffi's out-of-line module of its declarations beside
it; every later process executes that module and opens the library, and
never imports pycparser.  Each case runs in fresh interpreters over a
temp directory of its own (``TMPDIR``), since the cache lives there and
``load`` memoizes per process.
"""

import glob
import os
import shutil
import subprocess
import sys

import pytest

from repro.core import _kernels

pytest.importorskip("cffi")
pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None or _kernels.load() is None,
    reason="the kernels do not build here")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Loads the kernels and exits 0 if they loaded, 3 if not; prints
#: nothing of its own.  ``BLOCK`` makes importing pycparser fail.
SCRIPT = """
import os, sys
if os.environ.get("BLOCK"):
    sys.modules["pycparser"] = None
from repro.core import _kernels
sys.exit(0 if _kernels.load(os.environ.get("SO") or None) is not None else 3)
"""


def loader(cache, block=False, so_path=None):
    """A fresh interpreter loading the kernels with ``cache`` as its
    temp directory (not waited for)."""
    env = dict(os.environ, TMPDIR=str(cache), PYTHONPATH=SRC,
               BLOCK="1" if block else "", SO=so_path or "")
    return subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def load_in(cache, **kwargs):
    child = loader(cache, **kwargs)
    out, err = child.communicate(timeout=120)
    return child.returncode, out, err


def cached(cache, suffix):
    return sorted(glob.glob(os.path.join(str(cache),
                                         f"repro_kernels_*{suffix}")))


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A cache one cold load filled, and what that load printed."""
    cache = tmp_path_factory.mktemp("kernel-cache")
    return cache, load_in(cache)


def test_a_cache_miss_builds_both_and_prints_nothing(warm):
    """Compiling and writing the module print nothing: the daemon's
    first stdout line is its address."""
    cache, (status, out, err) = warm
    assert (status, out, err) == (0, b"", b"")
    (so_path,) = cached(cache, ".so")
    (py_path,) = cached(cache, ".py")
    assert so_path[:-3] == py_path[:-3]  # beside the shared object
    assert not cached(cache, ".tmp")


def test_a_warm_cache_loads_without_pycparser(warm):
    cache, _ = warm
    before = {path: os.stat(path).st_mtime_ns
              for path in cached(cache, ".so") + cached(cache, ".py")}
    assert load_in(cache, block=True) == (0, b"", b"")
    assert {path: os.stat(path).st_mtime_ns for path in before} == before
    # Without the module, the same process has to parse: refused here.
    os.remove(cached(cache, ".py")[0])
    assert load_in(cache, block=True)[0] == 3
    assert load_in(cache) == (0, b"", b"")  # and it is written again
    assert len(cached(cache, ".py")) == 1


def test_a_module_that_does_not_run_is_written_again(warm, tmp_path):
    """A module this cffi refuses (``ImportError``: another version
    wrote it) is a miss, not a reason to drop to the reference tier."""
    cache, _ = warm
    for path in cached(cache, ".so"):
        shutil.copy(path, str(tmp_path))
    (so_path,) = cached(tmp_path, ".so")
    stale = so_path[:-3] + ".py"
    with open(stale, "w", encoding="utf-8") as handle:
        handle.write("import _cffi_backend_of_another_version\n")
    assert load_in(tmp_path) == (0, b"", b"")
    with open(stale, encoding="utf-8") as handle:
        assert "_cffi_backend.FFI(" in handle.read()


def test_two_processes_racing_on_a_cold_cache_both_load(tmp_path):
    children = [loader(tmp_path) for _ in range(2)]
    results = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert results == [(b"", b"")] * 2
    assert len(cached(tmp_path, ".so")) == len(cached(tmp_path, ".py")) == 1
    assert not cached(tmp_path, ".tmp")
    assert load_in(tmp_path, block=True) == (0, b"", b"")


def test_a_prebuilt_library_is_loaded_as_given(warm, tmp_path):
    """``load(so_path)`` (the sanitizer leg's ``--kernel-so``) opens
    that library and compiles nothing; the declarations still come
    from the module for the source, written if it is missing."""
    cache, _ = warm
    prebuilt = tmp_path / "prebuilt" / "kernels.so"
    prebuilt.parent.mkdir()
    shutil.copy(cached(cache, ".so")[0], str(prebuilt))
    empty = tmp_path / "cache"
    empty.mkdir()
    assert load_in(empty, so_path=str(prebuilt)) == (0, b"", b"")
    assert cached(empty, ".so") == [] and len(cached(empty, ".py")) == 1
    assert load_in(empty, so_path=str(tmp_path / "missing.so"))[0] == 3
