"""Line reading and number writing shared by every text file of the pipeline.

Each loader walks its file through lines(), which numbers the lines and
turns a ValueError raised while one is handled (by int(), float(), finite(),
int64() or a constructor's own check) into a MalformedFileError at path:line.
Each writer writes its floats with fmt(), which reads back bit for bit.
"""

from __future__ import annotations

import math

from .errors import MalformedFileError


class lines:
    """`with lines(path) as src: for tokens in src: ...` walks the non-blank
    lines of a text file, each split on sep (whitespace when None).

    src.no is the number of the line being handled; after the loop, of the
    last line of the file. A ValueError raised inside the block leaves it as
    MalformedFileError(path, src.no, message).
    """

    def __init__(self, path, sep=None, errors=None):
        self.path = path
        self.sep = sep
        self.errors = errors
        self.no = 0

    def __enter__(self):
        self._fh = open(self.path, errors=self.errors)
        return self

    def __iter__(self):
        numbered = enumerate(self._fh, start=1)
        if self.sep is None:
            # split() drops the line end itself and gives [] for a blank line.
            for self.no, raw in numbered:
                tokens = raw.split()
                if tokens:
                    yield tokens
        else:
            for self.no, raw in numbered:
                line = raw.strip()
                if line:
                    yield line.split(self.sep)

    def __exit__(self, kind, exc, tb):
        self._fh.close()
        # Text is decoded a block at a time, so a UnicodeError has no line.
        if isinstance(exc, ValueError) and not isinstance(exc, UnicodeError):
            raise MalformedFileError(self.path, self.no, str(exc)) from None


def finite(what, *vals):
    """vals, or a ValueError `non-finite <what>` when one is NaN or infinite."""
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite {what}")
    return vals


def int64(what, *vals):
    """vals, or a ValueError `<what> out of the int64 range` when one does not
    fit in the int64 columns it is read into."""
    if vals and not (-(1 << 63) <= min(vals) and max(vals) < 1 << 63):
        raise ValueError(f"{what} out of the int64 range")
    return vals


def fmt(x) -> str:
    """x as text that float() reads back to the same double."""
    return format(float(x), ".17g")
