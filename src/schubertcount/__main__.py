"""`python -m schubertcount` and the `schubertcount` console script: `run`
runs the command line, then ends the process without the interpreter's teardown.

Once `main()` has returned, the answer is written and every cache entry is
closed and renamed, and a run registers no atexit callback and starts no
thread.  What the interpreter would still do on exit (final garbage
collections, and tearing down every module the process loaded, `site`'s
among them) is work no one reads, so `run` flushes the streams and
`os._exit` ends the process.  If
a flush fails (a pipe whose reader is gone, a closed stdout, a full disk),
`sys.exit` hands the exit to the interpreter, which reports the failure as
it would have without the shortcut.  `cli.main()` itself keeps the normal
exit for callers that run it in process.
"""

import os
import sys

from .cli import main


def run() -> None:
    """Run `main()` and end the process with its exit code; it never returns."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # any failed flush, sys.stdout None included: the interpreter's exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
