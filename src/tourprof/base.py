"""What every layer shares and none needs numpy for: the exception
classes and the check that an input file is ASCII.  The CLI and the
certificate module import them from here, so `verify --cert` loads no
numpy; core re-exports them.
"""

from __future__ import annotations


class TournamentError(ValueError):
    """A construction precondition or matrix validity check failed."""


class DataFormatError(ValueError):
    """An on-disk artifact (TRN/FLAGCERT) is malformed."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed identity failed; indicates a bug."""


def _ascii(data: bytes) -> bytes:
    r"""`data` itself if it is ASCII.  Else the first non-ASCII byte is a
    DataFormatError that names its line (lines end at \n, \r\n or \r)
    and its column, both counted from 1."""
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            pos = exc.start
        # a stand-in byte after the ASCII prefix lands where the bad one is
        where = (data[:pos] + b"x").splitlines()
        raise DataFormatError(
            f"line {len(where)}: non-ASCII byte 0x{data[pos]:02x} "
            f"at column {len(where[-1])}")
    return data


def _read_ascii(path) -> bytes:
    """The bytes of an ASCII file (TRN, FLAGCERT), checked by _ascii."""
    with open(path, "rb") as fh:
        return _ascii(fh.read())
