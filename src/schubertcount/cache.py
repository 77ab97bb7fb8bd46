"""File-backed result cache: one JSON file per entry, atomic writes.

The cache key is a pure function of the request (command, sorted parameters,
engine version, body schema), so a hit is byte-identical to a recomputation.
Entries are written to a temporary file and renamed into place, so concurrent
writers never corrupt each other; unreadable entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Optional


# version of the cached bodies: bump it when a body gains, loses or renames a
# field, or when a command's values are corrected, so that old entries are
# never served
BODY_SCHEMA = 2


def cache_key(command: str, params: dict, engine_version: str) -> str:
    parts = [command] + [f"{k}={params[k]}" for k in sorted(params)]
    parts += [f"v={engine_version}", f"schema={BODY_SCHEMA}"]
    return " ".join(parts)


class ResultCache:
    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return os.path.join(self.directory, f"{digest}.json")

    def lookup(self, key: str) -> Optional[str]:
        """Return the cached body for `key`, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("key") != key or not isinstance(entry.get("body"), str):
            return None
        return entry["body"]

    def store(self, key: str, body: str, engine_version: str) -> None:
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "key": key,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "engine_version": engine_version,
            "body": body,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
