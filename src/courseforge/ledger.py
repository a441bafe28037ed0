"""Append-only JSONL ledgers: a header line, then one record per line.

The enrollment and grade ledgers share this layout, its locking and its
reader. An append holds an exclusive ``flock`` while it writes and a read
holds a shared one, so a reader never sees a half-written header or
record. A ledger object parses its file once, on its first lookup, and
then adds its own appends to what it read: every lookup of one object
sees one version of the file. Records another process appends later are
seen by a new ledger object, and each command builds its own.
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
        self._records: list[R] | None = None  # parsed on the first lookup

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

    def _add(self, records: list[R]) -> None:
        self._records.extend(records)

    def _header(self) -> bytes:
        return json.dumps({"format": self.FORMAT, "version": VERSION}).encode()

    def _check_header(self, line: bytes) -> None:
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

    def _read(self) -> list[R]:
        """All records: the file's as parsed on the first call, then this
        object's appends. A missing or zero-length file holds no records."""
        if self._records is not None:
            return self._records
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                data = fh.read()
        except FileNotFoundError:
            data = b""
        lines = data.split(b"\n")
        if not lines[-1]:
            lines.pop()  # the file ends in a newline
        # A crash during an append can leave a torn last line; it is parsed
        # like any other, so a torn record fails naming its line.
        records: list[R] = []
        for lineno, line in enumerate(lines, start=1):
            if lineno == 1:
                self._check_header(line)
            elif line.strip():
                try:
                    records.append(self._record(json.loads(line)))
                except (ValueError, KeyError, TypeError, OverflowError) as exc:
                    raise self.ERROR(
                        f"{self.path}:{lineno}: malformed ledger record: "
                        f"{exc}") from exc
        self._records = []
        self._add(records)
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
        if self._records is not None:
            self._add(list(records))
