"""Content-addressed result cache for poset computations.

Enabled only when the OCS_CACHE environment variable names a directory.
Keys are SHA-256 hashes of the canonical poset serialization plus an
operation tag, so a hit can only ever return the value the same
computation would produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import InputError
from .posets import Poset, canonical_poset_bytes

__all__ = ["cache_dir", "poset_key", "fetch", "store", "cached"]


def cache_dir() -> Path | None:
    loc = os.environ.get("OCS_CACHE")
    if not loc:
        return None
    path = Path(loc)
    path.mkdir(parents=True, exist_ok=True)
    return path


def poset_key(p: Poset, op: str) -> str:
    h = hashlib.sha256()
    h.update(op.encode())
    h.update(b"\x00")
    h.update(canonical_poset_bytes(p))
    return h.hexdigest()


def fetch(key: str):
    """Returns (hit, value).

    Raises:
        InputError: if the entry on disk is not a valid cache entry.
    """
    base = cache_dir()
    if base is None:
        return False, None
    path = base / f"{key}.json"
    if not path.is_file():
        return False, None
    try:
        with open(path, encoding="utf-8") as fh:
            return True, json.load(fh)["value"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"corrupt cache entry {path}: delete it and rerun") from exc


def store(key: str, value) -> None:
    base = cache_dir()
    if base is None:
        return
    # one temporary file per writer, so concurrent stores of a key never mix
    fd, tmp = tempfile.mkstemp(dir=base, prefix=f"{key}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump({"key": key, "value": value}, fh, sort_keys=True)
        os.replace(tmp, base / f"{key}.json")
    except BaseException:
        os.unlink(tmp)
        raise


def cached(p: Poset, op: str, compute):
    """Run compute() with content-hash caching; values must round-trip
    through JSON unchanged."""
    key = poset_key(p, op)
    hit, value = fetch(key)
    if hit:
        return value
    value = compute()
    store(key, value)
    return value
