"""Line reading and number writing shared by every text file of the pipeline.

Each loader walks its file through lines(), which numbers the lines and
turns a ValueError raised while one is handled (by int(), float(), finite(),
int64() or a constructor's own check) into a MalformedFileError at path:line.
Each writer writes its floats with fmt(), which reads back bit for bit, and
its file through a temp file and a rename (write_text, or a Sidecar, which
keeps the columns a loader parses from some files beside them).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import stat
from pathlib import Path

import numpy as np

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
        self._fh = open(self.path, encoding="utf-8", errors=self.errors)
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
    """vals, or a ValueError when one is a bool or no integer (`<what> <v> is
    not an integer`) or does not fit in int64 (`<what> out of the int64 range`)."""
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} {v!r} is not an integer")
    if vals and not (-(1 << 63) <= min(vals) and max(vals) < 1 << 63):
        raise ValueError(f"{what} out of the int64 range")
    return vals


def fmt(x) -> str:
    """x as text that float() reads back to the same double."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def _replacing(path: Path):
    """`with _replacing(path) as fh:` writes a temp file beside path, renamed to
    path at the end of the block; an exception leaves path as it was.

    A path that is a symlink or no regular file (/dev/null, /dev/stdout, a
    FIFO) is written through, as a rename would replace the link or the device.
    """
    try:
        through = not stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # a missing path; other errors surface when the temp file opens
        through = False
    if through:
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, chunks) -> None:
    """Write the str chunks, in order, to path as UTF-8 through _replacing: an
    exception while they are made or written leaves path as it was."""
    with _replacing(Path(path)) as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8"))


class Sidecar:
    """A copy of the columns that a loader parses from some text files, kept
    in one .npz file beside them, so that a load of the same bytes need not
    parse them again.

    A copy is keyed on content: SHA-256 over the numpy version, the loader's
    source files and this module's (so that an edit to either leaves every
    copy stale), then the text files, each followed by its length (so that
    bytes moved from one file to the next change the key). columns gives
    each column's dtype and the shape of one row. A copy that is missing,
    stale, unreadable or malformed only means a parse. Each text file and the
    copy is written to a temp file and renamed into place (_replacing), and an
    OSError while writing the copy leaves no copy and is not raised.
    """

    def __init__(self, path, files, sources, columns):
        self.path = Path(path)
        self.files = files
        self.sources = [Path(__file__), *map(Path, sources)]
        self.columns = columns

    @classmethod
    def beside(cls, path, source, columns):
        """The Sidecar of the one text file at path, kept in
        .<name>.landmarkloc.npz beside it, for the loader in the file source."""
        path = Path(path)
        return cls(path.with_name(f".{path.name}.landmarkloc.npz"), [path], [source], columns)

    def _hash(self, files=()):
        """SHA-256 over the numpy version, the source files and files; an
        OSError when one cannot be read."""
        h = hashlib.sha256(np.__version__.encode())
        for p in (*self.sources, *files):
            data = p.read_bytes()
            h.update(data)
            h.update(len(data).to_bytes(8, "little"))
        return h

    def key(self) -> bytes:
        """The key of the files as they are; an OSError when one cannot be read."""
        return self._hash(self.files).digest()

    def write(self, texts, columns) -> None:
        """Write each file from its iterable of byte chunks in texts, and keep
        columns under the key of the bytes written; no copy when columns is
        None."""
        try:
            h = None if columns is None else self._hash()
        except OSError:
            h = None
        for path, chunks in zip(self.files, texts, strict=True):
            size = 0
            with _replacing(path) as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    size += len(chunk)
                    if h is not None:
                        h.update(chunk)
            if h is not None:
                h.update(size.to_bytes(8, "little"))
        if h is not None:
            self._store(h.digest(), columns)

    def _fits(self, columns) -> bool:
        return columns.keys() == self.columns.keys() and all(
            columns[name].dtype == dtype and columns[name].shape[1:] == row
            and columns[name].ndim == 1 + len(row)
            for name, (dtype, row) in self.columns.items())

    def _load(self, key):
        """The columns kept under key, or None."""
        try:
            with np.load(self.path, allow_pickle=False) as z:
                if set(z.files) != {"key", *self.columns} or z["key"].tobytes() != key:
                    return None
                columns = {name: z[name] for name in self.columns}
        except Exception:  # whatever a missing, truncated or foreign file raises
            return None
        return columns if self._fits(columns) else None

    def _store(self, key, columns) -> None:
        """Keep columns under key; nothing when they do not fit self.columns."""
        if not self._fits(columns):
            return
        with contextlib.suppress(OSError), _replacing(self.path) as fh:  # a read-only directory
            np.savez(fh, key=np.frombuffer(key, np.uint8), **columns)

    def read(self, parse, build, keep=None):
        """build(columns) of the copy kept for the files' bytes, or parse()
        when there is none or build raises.

        With keep, the result of a parse is kept too: keep(result) is stored
        under the key of the bytes parsed, unless a file changed meanwhile.
        Without keep, a load that finds no copy file parses at once, without
        reading a byte for the key.
        """
        if keep is None and not self.path.exists():
            return parse()
        try:
            key = self.key()
        except OSError:
            return parse()  # which reports what it cannot read
        columns = self._load(key)
        if columns is not None:
            with contextlib.suppress(Exception):  # columns that make no value: parse
                return build(columns)
        value = parse()
        if keep is not None:
            try:
                if self.key() == key:
                    self._store(key, keep(value))
            except OSError:
                pass
        return value
