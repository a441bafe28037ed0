"""Append-only JSONL ledgers: a header line, then one record per line.

The enrollment and grade ledgers share this layout, its locking and its
reader. An append holds an exclusive ``flock`` while it writes and a read
holds a shared one, so a reader never sees a half-written header or
record. A ledger object keeps the records it has parsed, the byte offset
it has parsed up to and the file's identity. Each read stats the file and
parses only the bytes appended since, so one command reads each ledger
byte once however many lookups it makes, and still sees every record any
process appended before the lookup.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import ClassVar, Generic, TypeVar

R = TypeVar("R")

VERSION = 1

# The JSON types a record field may hold, by its annotation. A boolean is
# neither an integer nor a number.
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float),
               "bool": (bool,)}


class JsonlLedger(Generic[R]):
    """One ledger file; a subclass names its format, records and error."""

    FORMAT: ClassVar[str]
    KIND: ClassVar[str]  # as in "not a supported <KIND> ledger"
    ERROR: ClassVar[type[Exception]]
    RECORD: ClassVar[type]  # a dataclass of str, int, float and bool fields

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._reset(None)

    def _record(self, doc) -> R:
        """Build one record from its parsed JSON line; each field must hold
        a JSON value of its annotated type."""
        values = []
        for f in fields(self.RECORD):
            value = doc[f.name]
            if type(value) not in _JSON_TYPES[f.type]:
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
            values.append(float(value) if f.type == "float" else value)
        return self.RECORD(*values)

    def _clear(self) -> None:
        self._records: list[R] = []

    def _add(self, records: list[R]) -> None:
        self._records.extend(records)

    def _reset(self, file_id: tuple[int, int] | None) -> None:
        self._file_id = file_id
        self._offset = 0  # bytes parsed
        self._lines = 0   # lines parsed, the header included
        self._clear()

    def _header(self) -> bytes:
        return json.dumps({"format": self.FORMAT, "version": VERSION}).encode()

    def _check_header(self, line: bytes) -> None:
        if line == self._header():
            return
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise self.ERROR(
                f"{self.path}:1: malformed ledger header: {exc}") from exc
        if not isinstance(header, dict) \
                or header.get("format") != self.FORMAT \
                or header.get("version") != VERSION:
            raise self.ERROR(
                f"{self.path} is not a supported {self.KIND} ledger")

    def _stale(self) -> bool:
        """Whether the file is not the one, or not as long as, last parsed."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return self._file_id is not None
        return (st.st_dev, st.st_ino) != self._file_id \
            or st.st_size != self._offset

    def _sync(self) -> list[R]:
        """Parse what the file gained since the last call; all records.

        A missing or zero-length file holds no records. A file that shrank
        or was replaced is parsed again from its start.
        """
        if not self._stale():
            return self._records
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                st = os.fstat(fh.fileno())
                file_id = (st.st_dev, st.st_ino)
                if file_id != self._file_id or st.st_size < self._offset:
                    self._reset(file_id)
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            self._reset(None)
            return self._records
        lines = data.split(b"\n")
        if not lines[-1]:
            lines.pop()  # the file ends in a newline
        # A crash during an append can leave a torn last line; it is parsed
        # like any other, so a torn record fails naming its line.
        new: list[R] = []
        for lineno, line in enumerate(lines, start=self._lines + 1):
            if lineno == 1:
                self._check_header(line)
            elif line.strip():
                try:
                    new.append(self._record(json.loads(line)))
                except (ValueError, KeyError, TypeError, OverflowError) as exc:
                    raise self.ERROR(
                        f"{self.path}:{lineno}: malformed ledger record: "
                        f"{exc}") from exc
        self._offset += len(data)
        self._lines += len(lines)
        self._add(new)
        return self._records

    def append(self, *records: R) -> None:
        """Append records in one write; the first also writes the header.

        Raises the ledger's error, writing nothing, when the file holds
        another ledger or ends in a torn line, which the new records would
        otherwise be glued onto.
        """
        data = b"".join(json.dumps(asdict(r), sort_keys=True).encode() + b"\n"
                        for r in records)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            end = os.fstat(fh.fileno()).st_size
            if end == 0:
                data = self._header() + b"\n" + data
            else:
                fh.seek(0)
                self._check_header(fh.readline().rstrip(b"\n"))
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    torn = fh.read().count(b"\n") + 1
                    raise self.ERROR(f"{self.path}:{torn}: torn ledger line; "
                                     f"not appending after it")
            fh.write(data)
