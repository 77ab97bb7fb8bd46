"""File-backed result cache: one file per entry, atomic writes.

The cache key is a pure function of the request (command, sorted parameters,
engine version, body schema), so a hit is byte-identical to a recomputation.
An entry file holds the JSON-encoded key on its first line and the body text,
exactly as it was printed, on its second.  Entries are written to a temporary
file and renamed into place, so concurrent writers never corrupt each other.
An entry's file name is the crc32 of its key, only a bucket: the key stored in
the entry and the body's `command` and `engine_version` decide a hit.  An
entry that cannot be read or parsed, holds another key (a name collision), or
whose body is not one line of a JSON object of the requested command and
engine version ending in `}` is a miss: the result is recomputed and the
entry overwritten.  `zlib` is imported on the first lookup or store and
`tempfile` on the first store, so runs without a cache directory load
neither.
"""

from __future__ import annotations

import json
import os
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

    def lookup(self, key: str, command: str, engine_version: str) -> Optional[tuple[str, dict]]:
        """Return the stored body text for `key` and its decoding, or None on a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                stored_key, text = fh.read().split("\n")
            body = json.loads(text) if json.loads(stored_key) == key and text.endswith("}") else None
        except (OSError, ValueError):
            return None
        fields = (body.get("command"), body.get("engine_version")) if isinstance(body, dict) else None
        return (text, body) if fields == (command, engine_version) else None

    def store(self, key: str, text: str) -> None:
        """Store `text`, the one-line JSON body of `key`, as printed."""
        os.makedirs(self.directory, exist_ok=True)
        import tempfile  # with shutil and random: only runs that store pay for it

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f"{json.dumps(key)}\n{text}")
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
