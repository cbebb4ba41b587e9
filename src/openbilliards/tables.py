"""The one text format of every CSV output."""

from __future__ import annotations

import numpy as np


def write_table(path, header_lines, columns, formats, *arrays) -> None:
    """Write `# ` comment lines, the column names, then one comma-separated row
    per entry, each column in its own format spec: `d` for counts, `.12g` for
    values, `.6g` for diagnostics. Identical inputs give identical bytes."""
    if not len(columns) == len(formats) == len(arrays):
        raise ValueError(
            f"{len(columns)} columns, {len(formats)} formats and {len(arrays)} arrays"
        )
    row = ",".join(f"{{:{spec}}}" for spec in formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for values in zip(*(np.asarray(a).tolist() for a in arrays), strict=True):
            fh.write(row.format(*values))
