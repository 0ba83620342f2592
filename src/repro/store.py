"""Content-addressed files on disk: the store both caches share.

The engine's result cache and the trace factory's trace cache keep
their entries alike (DESIGN.md §6): one switch (``REPRO_CACHE=0``), one
directory (``REPRO_CACHE_DIR``; traces in its ``traces/``), one source
:func:`fingerprint` over the scope each cache names, one layout
(:func:`path`), one read, and one atomic publish (:func:`write`).
Only the standard library is imported here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os

#: The ``repro`` package directory; a fingerprint scope names its
#: top-level entries (``vm``, ``analysis``, ``errors.py``, ...).
PACKAGE_ROOT = os.path.dirname(os.path.realpath(__file__))

#: Tells apart the tmp files of one process's writers (threads).
_tmp_counter = itertools.count()


def enabled() -> bool:
    """Whether the disk caches are on (``REPRO_CACHE``; default yes)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "false", "off")


def cache_dir() -> str:
    """The cache directory (``REPRO_CACHE_DIR``; default ``.repro-cache``)."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


@functools.lru_cache(maxsize=None)
def fingerprint(
    include: tuple[str, ...] | None = None,
    exclude: tuple[str, ...] = (),
    package: str = PACKAGE_ROOT,
) -> str:
    """SHA-256 of the ``*.py`` sources in one scope of *package*.

    The scope is the top-level entries named in *include* (``None``:
    all) less those in *exclude*; only the scope is read. Each source
    adds ``relpath \\0 bytes \\0``, in sorted order; neither a path
    nor a Python source holds a NUL byte, so two trees never hash alike.
    Memoized per scope.
    """
    digest = hashlib.sha256()
    for top in sorted(os.listdir(package)):
        if (include is not None and top not in include) or top in exclude:
            continue
        sources = [top] if top.endswith(".py") else sorted(
            os.path.relpath(os.path.join(directory, name), package)
            for directory, _, names in os.walk(os.path.join(package, top))
            for name in names if name.endswith(".py")
        )
        for rel in sources:
            digest.update(rel.replace(os.sep, "/").encode() + b"\0")
            with open(os.path.join(package, rel), "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def path(root: str | os.PathLike, key: str, suffix: str) -> str:
    """Where the entry for *key* lives: ``<root>/<kk>/<rest><suffix>``."""
    return os.path.join(root, key[:2], key[2:] + suffix)


def read(root: str | os.PathLike, key: str, suffix: str) -> bytes | None:
    """The entry's bytes, or ``None`` if it cannot be read. A plain
    string path and one binary ``open``: on a warm run this read is
    most of the engine's time."""
    try:
        with open(path(root, key, suffix), "rb") as handle:
            return handle.read()
    except OSError:
        return None


def write(root: str | os.PathLike, key: str, suffix: str, data: bytes) -> None:
    """Publish *data* as the entry for *key*; best-effort.

    The tmp name is unique per process and per call, and ``os.replace``
    publishes it whole, so a reader never sees a torn entry. A refused
    write never fails the caller and leaves no tmp file behind.
    """
    target = path(root, key, suffix)
    tmp = f"{target}.tmp.{os.getpid()}.{next(_tmp_counter)}"
    try:
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
