"""File-backed result cache: one JSON file per entry, atomic writes.

The cache key is a pure function of the request (command, sorted parameters,
engine version, body schema), so a hit is byte-identical to a recomputation.
Entries are written to a temporary file and renamed into place, so concurrent
writers never corrupt each other.  An entry's file name is the crc32 of its
key, only a bucket: the key stored in the entry and the body's `command` and
`engine_version` decide a hit.  An entry that cannot be read or parsed, holds
another key (a name collision), or whose body is not the text of a JSON
object of the requested command and engine version is a miss: the result is
recomputed and the entry overwritten.  `zlib` is imported on the first
lookup or store and `tempfile` on the first store, so runs without a cache
directory load neither.
"""

from __future__ import annotations

import json
import os
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
        import zlib

        return os.path.join(self.directory, f"{zlib.crc32(key.encode()):08x}.json")

    def lookup(self, key: str, command: str, engine_version: str) -> Optional[dict]:
        """Return the decoded cached body for `key`, or None on a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            body = json.loads(entry["body"]) if entry["key"] == key else None
        except (OSError, ValueError, TypeError, KeyError):
            return None
        fields = (body.get("command"), body.get("engine_version")) if isinstance(body, dict) else None
        return body if fields == (command, engine_version) else None

    def store(self, key: str, body: str, engine_version: str) -> None:
        os.makedirs(self.directory, exist_ok=True)
        entry = {
            "key": key,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "engine_version": engine_version,
            "body": body,
        }
        import tempfile  # with shutil and random: only runs that store pay for it

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
