"""Every file mcuq writes goes through ``atomic_write``, so no reader sees a
partial file, and every CSV through ``write_csv``, which fixes the dialect
(``\\n`` line ends, minimal quoting) that keeps identical runs
byte-identical."""

from __future__ import annotations

import csv
import os
from pathlib import Path


def atomic_write(path: str | Path, write) -> None:
    """Call ``write`` on a temp path in the same directory, then rename it
    into place.  The temp name is unique per call, so concurrent writers
    never share it, and a failed write leaves nothing behind."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: str | Path, header: list[str] | None, rows) -> None:
    """Write ``rows`` of cells atomically, after ``header`` unless None."""
    def write(tmp):
        with open(tmp, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            if header is not None:
                w.writerow(header)
            w.writerows(rows)

    atomic_write(path, write)
