"""Line reading and number writing shared by every text file of the pipeline.

Each loader walks its file through lines(), which numbers the lines and
turns a ValueError raised while one is handled (by int(), float() or a format
check) into a MalformedFileError at path:line. The rows a loader keeps there
are judged by their table's constructor, at the first line the table refuses.
Each writer writes its floats with fmt(), which reads back bit for bit, and
its file through a temp file and a rename (write_text, or a Sidecar, which
keeps the columns a loader parses from some files beside them). A Sidecar's
copy is one file in pack's layout: a header with a CRC-32, then each column's
bytes at a multiple of 64 bytes, which a load reads once into one buffer and
unpack checks before it makes the columns views of it.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import stat
import time
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError, MalformedFileError


class lines:
    """`with lines(path) as src: for tokens in src: ...` walks the non-blank
    lines of a text file, each split on sep (whitespace when None).

    src.no is the number of the line being handled; after the loop, of the
    last line of the file, and src.ended says whether that line ends with a
    line end (refuse_cut). A ValueError raised inside the block leaves it as
    MalformedFileError(path, src.no, message).

    With make, which turns a list of rows into their table (a ValueError or
    DataError when it refuses them), src.keep(*row) keeps a row of the line
    being handled and src.table() is make(src.rows). When a ValueError or
    DataError leaves the block and make refuses the kept rows, the error is
    MalformedFileError(path, line, make's message) of the shortest run of
    them that make refuses, at its last row's line. make must refuse each
    longer run of rows than one it refuses, as per-row and repeat rules do.
    """

    def __init__(self, path, sep=None, errors=None, make=None):
        self.path = path
        self.sep = sep
        self.errors = errors
        self.make = make
        self.no = 0
        self.ended = True
        self.rows, self._nos = [], []  # kept rows and their lines

    def __enter__(self):
        self._fh = open(self.path, encoding="utf-8", errors=self.errors)
        return self

    def __iter__(self):
        raw = "\n"
        for self.no, raw in enumerate(self._fh, start=1):
            line = raw.strip()
            if line:
                yield line.split(self.sep)
        self.ended = raw.endswith("\n")

    def keep(self, *row):
        self.rows.append(row)
        self._nos.append(self.no)

    def table(self):
        return self.make(self.rows)

    def refuse_cut(self):
        """A ValueError, after the loop, when the last line has no line end:
        every writer ends each line with one, so the file was cut."""
        if not self.ended:
            raise ValueError("no line end: the file is cut")

    def _refused(self, n):
        """make's error for the first n kept rows, or None when it takes them."""
        try:
            self.make(self.rows[:n])
        except (ValueError, DataError) as error:
            return error
        return None

    def __exit__(self, kind, exc, tb):
        self._fh.close()
        if self.rows and isinstance(exc, (ValueError, DataError)) and self._refused(len(self.rows)):
            n = bisect.bisect_left(range(len(self.rows)), True,
                                   key=lambda k: self._refused(k + 1) is not None)
            raise MalformedFileError(self.path, self._nos[n], str(self._refused(n + 1))) from None
        # Text is decoded a block at a time, so a UnicodeError has no line.
        if isinstance(exc, ValueError) and not isinstance(exc, UnicodeError):
            raise MalformedFileError(self.path, self.no, str(exc)) from None


def columns(rows, n) -> list:
    """The n columns of rows, n-tuples, as tuples: n empty ones for no rows."""
    return list(zip(*rows)) if rows else [()] * n


def finite(what, *vals):
    """vals, or a ValueError `non-finite <what>` when one is NaN or infinite."""
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite {what}")
    return vals


def int64(what, *vals):
    """vals, or a ValueError when one is a bool or no integer (`<what> <v> is
    not an integer`) or does not fit in int64 (`<what> out of the int64 range`)."""
    if not set(map(type, vals)) <= {int}:  # one pass when all are plain ints
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{what} {v!r} is not an integer")
    if vals and not (-(1 << 63) <= min(vals) and max(vals) < 1 << 63):
        raise ValueError(f"{what} out of the int64 range")
    return vals


def int64_column(what, values) -> np.ndarray:
    """values, an int64 array as it is or any array or (nested) sequence, as a
    contiguous int64 column; int64's error for a value that is no int64
    integer. Values are checked before numpy casts them, since it casts 1.5
    to 1 and np.asarray([2, True]) is already an int64 array."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        values = np.asarray(values, dtype=object).reshape(-1).tolist()
        int64(what, *values)
    return np.ascontiguousarray(values, dtype=np.int64).reshape(-1)


def refuse_repeats(column, message):
    """A ValueError, message with {} replaced by the least value that the
    int64 array column holds more than once, when it holds one."""
    ordered = np.sort(column)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(twice):
        raise ValueError(message.format(twice[0]))


def fmt(x) -> str:
    """x as text that float() reads back to the same double."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def _replacing(path: Path):
    """`with _replacing(path) as fh:` writes a temp file beside path, renamed to
    path at the end of the block; an exception leaves path as it was.

    A path that is a symlink or no regular file (/dev/null, /dev/stdout, a
    FIFO) is written through, as a rename would replace the link or the device.
    An OSError that names the temp file or no file (a full disk) is raised
    again naming path, the file the caller gave.
    """
    try:
        through = not stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # a missing path; other errors surface when the temp file opens
        through = False
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        if through:
            with open(path, "wb") as fh:
                yield fh
            return
        try:
            with open(tmp, "xb") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.filename in (None, str(tmp)):
            exc.filename = str(path)
        raise


def write_text(path, chunks) -> None:
    """Write the str chunks, in order, to path as UTF-8 through _replacing: an
    exception while they are made or written leaves path as it was."""
    with _replacing(Path(path)) as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8"))


_MAGIC = b"LMLCOLS1"  # the first bytes of a copy file
_ALIGN = 64  # each column of a copy starts at a multiple of this many bytes


def _padded(n: int) -> int:
    """n rounded up to a multiple of _ALIGN."""
    return -(-n // _ALIGN) * _ALIGN


def frame(header: dict, body) -> list:
    """The chunks of a copy file that holds header and then the byte chunks of
    body: _MAGIC, the CRC-32 of every byte after it (4 bytes, little-endian),
    the length of the header (4 bytes), the header as JSON, and zeros up to a
    multiple of _ALIGN bytes, where body starts."""
    text = json.dumps(header).encode()
    rest = [len(text).to_bytes(4, "little"), text,
            bytes(_padded(16 + len(text)) - 16 - len(text)), *body]
    crc = 0
    for chunk in rest:
        crc = zlib.crc32(chunk, crc)
    return [_MAGIC, crc.to_bytes(4, "little"), *rest]


def unframe(data) -> tuple:
    """(header, the CRC-32 it was kept with, the offset of the body) of a
    copy file's bytes data; an exception when data have no frame."""
    if bytes(data[:8]) != _MAGIC:
        raise ValueError("not a copy file")
    n = int.from_bytes(data[12:16], "little")
    return json.loads(bytes(data[16:16 + n])), int.from_bytes(data[8:12], "little"), _padded(16 + n)


def pack(key: bytes, columns: dict) -> list:
    """The chunks of a copy file of columns under key. The header gives the
    key in hex and, for each column, its name, dtype, shape and offset from
    the start of the body; each column starts at a multiple of _ALIGN bytes."""
    table, body, end = [], [], 0
    for name, col in columns.items():
        col = np.ascontiguousarray(col)
        offset = _padded(end)
        table.append([name, col.dtype.str, list(col.shape), offset])
        body += [bytes(offset - end), col]
        end = offset + col.nbytes
    return frame({"key": key.hex(), "columns": table}, body)


def unpack(data, key: bytes, columns: dict):
    """The columns ({name: (dtype, row shape)}) that the copy file's bytes
    data keep under key, as views of data; None when data are no whole copy
    of them (an exception when they hold no header). The key, the header's
    columns, the layout (each column where the one before it ends, padded,
    and the last at the end of data) and the CRC-32 are checked before any
    view is made."""
    header, crc, start = unframe(data)
    table = header["columns"]
    if header["key"] != key.hex() or sorted(c[0] for c in table) != sorted(columns):
        return None
    views, end = [], start
    for name, dtype, shape, offset in table:
        want, row = np.dtype(columns[name][0]), list(columns[name][1])
        if (dtype != want.str or shape[1:] != row or type(shape[0]) is not int or shape[0] < 0
                or start + offset != _padded(end)):
            return None
        end = start + offset + math.prod(shape) * want.itemsize
        views.append((name, want, shape, start + offset, end))
    if end != len(data) or zlib.crc32(data[12:]) != crc:
        return None
    buf = np.frombuffer(data, np.uint8)
    return {name: buf[lo:hi].view(want).reshape(shape) for name, want, shape, lo, hi in views}


@functools.cache
def _blas_kernel() -> bytes:
    """The kernel that numpy's bundled OpenBLAS runs (the CPU's, or the one
    OPENBLAS_CORETYPE names), read once per process; b"" without one."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        with contextlib.suppress(OSError, AttributeError):
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename() or b""
    return b""


_digests = {}  # (path, size, mtime in ns) -> the SHA-256 digest of that file


def _digest(path: Path) -> bytes:
    """The SHA-256 digest of the file at path, read once per process for each
    (path, size, mtime). A file changed in the last 2 s is read every time: a
    second change within its timestamp's resolution could keep size and mtime."""
    st = os.stat(path)
    key = (str(path), st.st_size, st.st_mtime_ns)
    digest = _digests.get(key)
    if digest is None:
        digest = hashlib.sha256(path.read_bytes()).digest()
        if time.time_ns() - st.st_mtime_ns > 2_000_000_000:
            _digests[key] = digest
    return digest


class Sidecar:
    """A copy of the columns that a loader parses from some text files, kept
    in one file beside them, so that a load of the same bytes need not parse
    them again.

    A copy is keyed on content: SHA-256 over the numpy version and BLAS
    kernel (_blas_kernel: kernels round some products differently), the
    loader's source files and this module's (their _digest, so that an edit
    to either leaves every copy stale), then the text files, each followed by
    its length (so that bytes moved from one file to the next change the
    key). columns gives each column's dtype and the shape of one row. The
    copy file is pack's layout: a header that gives the key, a CRC-32 and
    each column's name, dtype, shape and offset, then the columns' bytes,
    each at a multiple of 64 bytes from the start. A load reads it once and
    makes its columns views of that one buffer, after checking the header
    against columns, the key, the layout and the CRC-32. A copy that is
    missing, stale, cut, corrupted, foreign or of columns that do not fit
    (kept as the writer gave them) only means a parse. Each text file and the
    copy is written to a temp file and renamed into place (_replacing), and
    an OSError while writing the copy leaves no copy and is not raised.
    """

    def __init__(self, path, files, sources, columns):
        self.path = Path(path)
        self.files = files
        self.sources = [Path(__file__), *map(Path, sources)]
        self.columns = columns

    @classmethod
    def beside(cls, path, source, columns):
        """The Sidecar of the one text file at path, kept in
        .<name>.landmarkloc beside it, for the loader in the file source."""
        path = Path(path)
        return cls(path.with_name(f".{path.name}.landmarkloc"), [path], [source], columns)

    def _hash(self, files=()):
        """SHA-256 over the numpy version, the BLAS kernel, the source files'
        digests and files; an OSError when one cannot be read."""
        h = hashlib.sha256(np.__version__.encode() + b"\0" + _blas_kernel())
        for p in self.sources:
            h.update(_digest(p))
        for p in files:
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

    def _load(self, key):
        """The columns kept under key, as views of one read of the copy into
        a buffer that starts at a multiple of _ALIGN bytes, or None."""
        try:
            with open(self.path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                raw = np.empty(size + _ALIGN, np.uint8)
                data = raw[-raw.ctypes.data % _ALIGN:][:size]
                if fh.readinto(data) != size:
                    return None
            return unpack(data, key, self.columns)
        except Exception:  # whatever a missing, cut or foreign file raises
            return None

    def _store(self, key, columns) -> None:
        """Keep columns under key (unpack refuses them if they do not fit)."""
        with contextlib.suppress(OSError), _replacing(self.path) as fh:  # a read-only directory
            for chunk in pack(key, columns):
                fh.write(chunk)

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
