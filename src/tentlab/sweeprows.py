"""sweep.csv rows, formatted a chunk at a time in the sweep's workers."""

from ._arrays import CELL_BYTES, cells, np
from .basins import KINDS


# a binary64 sweep.csv row in fixed byte columns, each field a whole number
# of 8-byte words: x0 0-31, ",outcome," 32-47, final 48-79, "," 80-87,
# distance 88-119, "\n" 120-127
_ROW_BYTES = 128
_CELL_COLUMNS = (0, 48, 88)


def sweep_rows(b, plot: bool):
    """The CLI's function for sweep_chunks, run in the workers: a chunk's
    sweep.csv rows, its outcome counts, and under --plot its x0 and final
    floats: binary64's own columns, which its repr cells round-trip, else
    the cells parsed back, since decimal serialize quantizes.

    Under binary64 the rows are a uint8 matrix of _ROW_BYTES columns, NUL
    where a field is shorter, in a table each worker reuses; _arrays.cells
    writes the three numbers in place, each equal to its repr, and refuses
    a column that is not float64.  The rows returned are a new uint8 array
    of its bytes, NULs deleted; the other backends join their serialize
    cells into a string, with repr for the float64 distances."""
    if plot:  # imported here, in the parent, before any worker forks
        from .svgplot import as_floats
    names = [kind.value for kind in KINDS]
    binary64 = b.kind == "binary64"
    labels = np.array([f",{name},".encode() for name in names], dtype="S16")
    separators = np.array([b",", b"\n"], dtype="S8").view(np.uint64)
    table = np.empty((0, _ROW_BYTES), dtype=np.uint8)  # grown to the longest chunk

    def rows(points, finals, codes, distances):
        nonlocal table
        if binary64:
            if len(table) < len(codes):
                table = np.empty((len(codes), _ROW_BYTES), dtype=np.uint8)
            matrix = table[:len(codes)]
            for start, values in zip(_CELL_COLUMNS, (points, finals, distances)):
                cells(values, matrix[:, start:start + CELL_BYTES])
            words = matrix.view(np.uint64)
            words[:, 4:6] = labels.view(np.uint64).reshape(len(names), 2)[codes]
            words[:, [10, 15]] = separators  # every byte of the matrix is now written
            text = matrix.ravel()[matrix.ravel() != 0]
        else:
            x0s, ends = (list(map(b.serialize, c.tolist())) for c in (points, finals))
            text = "\n".join(map(",".join, zip(
                x0s, map(names.__getitem__, codes.tolist()), ends, map(repr, distances.tolist()),
            ))) + "\n"
        if plot and not binary64:
            points, finals = map(as_floats, (x0s, ends))
        return text, np.bincount(codes, minlength=len(KINDS)), (points, finals) if plot else None

    return rows
