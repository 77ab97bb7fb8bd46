"""File-backed result cache: one file per entry, atomic writes.

The cache key is a pure function of the request (command, sorted parameters,
engine version, body schema), so a hit is byte-identical to a recomputation.
An entry file holds the crc32 of the body text in 8 hex digits, a space, the
key as plain text (newlines and all), a newline and the body text, exactly
as it was printed.  Entries are written to a temporary file and renamed into
place, so concurrent writers never corrupt each other.  An entry's file name
is the crc32 of its key, only a bucket: the stored key and checksum decide a
hit, which is printed without decoding its body.  An entry that cannot be
read, holds another key (a name collision, or the JSON-quoted key line of
earlier versions), fails its checksum (a digit edited in place), or whose
body is not one line ending in `}` is a miss: the result is recomputed and
the entry overwritten.  `zlib` is imported on the first lookup or store and
`tempfile` on the first store, so runs without a cache directory load
neither.
"""

import os


# version of the cached bodies: bump it when a body gains, loses or renames a
# field, or when a command's values are corrected, so that old entries are
# never served
BODY_SCHEMA = 2


def cache_key(command: str, params: dict, engine_version: str) -> str:
    parts = [command] + [f"{k}={params[k]}" for k in sorted(params)]
    parts += [f"v={engine_version}", f"schema={BODY_SCHEMA}"]
    return " ".join(parts)


def _crc(text: str) -> str:
    import zlib

    return f"{zlib.crc32(text.encode('utf-8', 'surrogatepass')):08x}"  # a key may hold lone surrogates


class ResultCache:
    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{_crc(key)}.json")

    def lookup(self, key: str) -> str | None:
        """Return the stored body text for `key`, or None on a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8", errors="surrogatepass", newline="") as fh:
                entry = fh.read()
        except (OSError, ValueError):
            return None
        body = entry[len(key) + 10:]
        one_line = body.endswith("}") and "\n" not in body
        return body if one_line and entry == f"{_crc(body)} {key}\n{body}" else None

    def store(self, key: str, text: str) -> None:
        """Store `text`, the one-line JSON body of `key`, as printed."""
        os.makedirs(self.directory, exist_ok=True)
        import tempfile  # with shutil and random: only runs that store pay for it

        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", errors="surrogatepass", newline="") as fh:
                fh.write(f"{_crc(text)} {key}\n{text}")
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
