"""Loader for the compiled kernels (DESIGN.md §14).

``_kernels.c`` holds Algorithm 1's inner loop as one resumable C
transaction (plus the restore that loads a window image into it), the
single-edge stream kernel HDRF ingests a batch through, the vertex
intern table both are fed by, the edge-file line scanner and its
inverse — the row formatter that writes ``.parts`` lines and the
daemon's ``assignments`` JSON straight from int64 columns — the
request-line scanner that reads the ``edges`` of a daemon request
straight into int64 rows, and the cluster runtime's host step
(DESIGN.md §8).  It is compiled on demand
with the system C compiler (``cc -O3 -fPIC -shared -ffp-contract=off``)
and loaded through cffi's ABI mode; the shared object is cached in the
system temp directory keyed by a hash of the source, with an atomic
rename so concurrent test workers never race.  ``-ffp-contract=off``
(and no fast-math) keeps every float64 operation rounding exactly like
the object-window reference.  The declarations cffi parses are cut out
of the C source itself (between its ``cdef-begin``/``cdef-end``
markers), so the struct layout has one definition.  They are parsed
once per source: the process that first needs them writes cffi's
out-of-line ABI module (``repro_kernels_<hash>.py``, the parsed types
as tables) next to the shared object, with the same atomic rename, and
every process — that one included — executes that module and opens
the library through its ``ffi``.  A warm cache therefore costs a hash
of the source, a module of tables and a ``dlopen`` (milliseconds), not
pycparser over the declarations (about 55 ms).

There is exactly one kernel source and no interpreted twin: where the
kernels cannot be built (no C compiler, no cffi, no numpy) :func:`load`
returns ``None`` and every partitioner runs on the dict-backed
:class:`~repro.partitioning.state.PartitionState`:
:class:`~repro.core.adwise.AdwisePartitioner` with the object
:class:`~repro.core.window.EdgeWindow`,
:class:`~repro.partitioning.hdrf.HDRFPartitioner` with its per-edge loop
— the bit-identical references, which need none of the three
(:meth:`repro.partitioning.base.StreamingPartitioner._new_state` is
where that choice is made) — and a cluster host steps and syncs with
the dense kernels' numpy helpers
(:class:`repro.cluster.transport.ShardGroup` asks :func:`load` once).
That tier rule is quiet; a compiler that *ran and rejected* the source
is not the same machine — the tier still drops, but :func:`load` says so
once, in a ``RuntimeWarning`` carrying the compiler's stderr.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import warnings
from typing import Optional, Tuple

_UNSET = object()

#: ``(ffi, lib)``, ``None`` after a failed build, or ``_UNSET`` before
#: the first :func:`load`.
_loaded: object = _UNSET


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def _declarations(source: str) -> str:
    """The part of ``_kernels.c`` between its cdef markers."""
    return source.split("/* cdef-begin */")[1].split("/* cdef-end */")[0]


def _cache_path(source: bytes, suffix: str) -> str:
    """Where the build of ``source`` ending in ``suffix`` is cached."""
    digest = hashlib.sha256(source).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(),
                        f"repro_kernels_{digest}{suffix}")


def _compile(source: bytes) -> str:
    """Path of the cached shared object for ``source``, building it if
    this is the first process to need it."""
    so_path = _cache_path(source, ".so")
    if not os.path.exists(so_path):
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        subprocess.run(
            ["cc", "-O3", "-fPIC", "-shared", "-ffp-contract=off",
             "-o", tmp_path, _source_path()],
            check=True, capture_output=True)
        os.replace(tmp_path, so_path)  # atomic: xdist workers race here
    return so_path


def _ffi(source: bytes):
    """The ``ffi`` of ``source``'s declarations, from the cached
    out-of-line module, writing that module first if this is the first
    process to need it (or if the cached one does not run under this
    cffi)."""
    py_path = _cache_path(source, ".py")
    try:
        return _run_module(py_path)
    except (FileNotFoundError, ImportError):
        pass  # not written yet, or written for another cffi version
    from cffi import FFI
    from cffi.recompiler import make_py_source

    ffi = FFI()
    ffi.cdef(_declarations(source.decode("utf-8")))
    tmp_path = f"{py_path}.{os.getpid()}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        # A file object, not a path: with a path cffi renames on its own,
        # and with verbose=True it prints to stdout (the daemon's first
        # line there is its address).
        make_py_source(ffi, os.path.basename(py_path)[:-3], handle,
                       verbose=False)
    os.replace(tmp_path, py_path)  # atomic, like the shared object's
    return _run_module(py_path)


def _run_module(py_path: str):
    """Execute a module written by :func:`_ffi` and return its ``ffi``."""
    with open(py_path, encoding="utf-8") as handle:
        code = compile(handle.read(), py_path, "exec")
    namespace: dict = {}
    exec(code, namespace)
    return namespace["ffi"]


def load(so_path: Optional[str] = None) -> Optional[Tuple]:
    """``(ffi, lib)`` for the compiled kernels, or ``None`` if they
    cannot be built here.  Memoized per process (so a rejected build
    warns once).

    ``so_path`` loads a prebuilt shared object instead of compiling one
    (the sanitizer CI leg builds ``_kernels.c`` with
    ``-fsanitize=address,undefined`` and hands the result in through
    the test harness) and replaces whatever was loaded before.
    """
    global _loaded
    if so_path is None and _loaded is not _UNSET:
        return _loaded
    try:
        import cffi  # noqa: F401 - without it, build nothing
        import numpy  # noqa: F401 - every kernel buffer is a numpy array

        with open(_source_path(), "rb") as handle:
            source = handle.read()
        library = so_path or _compile(source)
        ffi = _ffi(source)
        _loaded = (ffi, ffi.dlopen(library))
    except (ImportError, OSError):
        # cffi, numpy or cc missing, or the shared object does not load.
        _loaded = None
    except subprocess.CalledProcessError as error:
        # cc is here and refused the source: a broken _kernels.c, not a
        # machine without a compiler — the reference tier, but loudly.
        _loaded = None
        stderr = (error.stderr or b"").decode("utf-8", "replace").strip()
        warnings.warn(
            f"cc exited {error.returncode} on {_source_path()}; ADWISE, "
            f"HDRF and the cluster host step run their Python reference "
            f"tier instead of the compiled kernels:\n{stderr}",
            RuntimeWarning, stacklevel=2)
    return _loaded


def resolve_backend_name() -> str:
    """What ADWISE and HDRF run here: ``"cc"`` (the compiled kernels —
    ADWISE's array window, HDRF's stream kernel — on the array-backed
    state) or ``"object"`` (no kernels — the object window and per-edge
    HDRF on the dict-backed state)."""
    return "cc" if load() is not None else "object"
