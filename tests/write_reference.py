"""The earlier form of ``scan_io._write_rows``: the byte-for-byte reference.

The package formats a block of rows as one byte matrix with a vectorized
shortest round-trip float kernel.  This is the form it replaced, kept
verbatim: Python's ``%`` over each block's values, so ``%r`` is
``repr(float)`` and ``%d`` is ``int.__format__``.
"""

# rows formatted per write: one join per block keeps the per-row cost low
# without building a whole output file in memory
_WRITE_BLOCK = 8192


def _write_rows(f, line: str, *columns) -> None:
    """Write ``line % row`` for each row of the equal-length columns.

    A block is formatted by one ``%`` of the line repeated once per row
    over the block's values, row by row.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = [c[start : start + _WRITE_BLOCK].tolist() for c in columns]
        rows = len(block[0])
        values = [None] * (width * rows)
        for i, column in enumerate(block):
            values[i::width] = column
        f.write(line * rows % tuple(values))
