"""CSV helpers shared by the point-set types and the CLI."""

import sys
from contextlib import contextmanager

import numpy as np


class DataError(ValueError):
    """Malformed or missing input data (CLI exit code 3)."""


class NumericalError(RuntimeError):
    """Numerical failure such as a factorization breakdown (CLI exit code 4)."""


@contextmanager
def open_output(out):
    """A text stream to the file ``out``, or to stdout when ``out`` is None or
    "-"; a file that cannot be opened for writing is a data error."""
    if out in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc
    with fh:
        yield fh


def write_matrix_csv(fh, matrix):
    """One row per line, full double precision (%.17g), no header, to the text stream ``fh``."""
    for row in np.atleast_2d(np.asarray(matrix, dtype=float)):
        fh.write(",".join("%.17g" % v for v in row) + "\n")


def read_matrix_csv(path, skip_header=False):
    """Parse a numeric CSV; errors name the offending 1-based line."""
    rows = []
    arity = None
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path} as text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if skip_header and lineno == 1:
            continue
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if arity is None:
            arity = len(fields)
        elif len(fields) != arity:
            raise DataError(
                f"{path}: line {lineno} has {len(fields)} fields, expected {arity}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)
