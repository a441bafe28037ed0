"""Template generation: strip marked solution regions out of source trees.

Teachers annotate solution files with three line comments. A BEGIN/END pair
delimits a region that is deleted from the student template; a STUDENT line
is replaced by its payload (scaffolding shown only to students). Everything
else passes through byte for byte.

Recognition rule, applied per line against the file's dialect:
  indent  comment_prefix  [spaces/tabs]  TOKEN  (end of line | space/tab rest)
Tokens are matched case-sensitively and longest first, so dialects whose
tokens share a prefix stay unambiguous. Trailing text after a BEGIN or END
token is ignored. For STUDENT lines exactly one separator character after
the token is consumed; the remainder, including any further indentation, is
the payload. The rendered line is the marker line's indent plus the payload,
or an empty line when the payload is empty.

Validation guarantees templates never leak: a surviving line (any line
outside removed regions) must not contain a marker token even mid-line, so a
valid input always renders to a template free of marker occurrences, and
stripping a stripped file is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from courseforge.config import CourseConfig, MarkerDialect
from courseforge.repomodel import Snapshot


class LineKind(Enum):
    PLAIN = "plain"
    BEGIN = "begin"
    END = "end"
    STUDENT = "student"


@dataclass(frozen=True)
class MarkerViolation:
    """One rejected marker usage, pointing at a 1-based source line."""

    path: str
    line: int
    code: str  # end-without-begin | nested-begin | unclosed-begin | stray-token
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


class MarkerViolationError(Exception):
    """Raised when marked sources are invalid; carries every violation found."""

    def __init__(self, violations: Iterable[MarkerViolation]):
        self.violations = tuple(violations)
        lines = "\n".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} marker violation(s):\n{lines}")


@dataclass(frozen=True)
class SourceLine:
    line_no: int  # 1-based
    kind: LineKind
    payload: str  # STUDENT payload; empty otherwise
    body: str     # original text without its terminator
    eol: str      # "", "\n" or "\r\n"
    indent: str   # leading whitespace


@dataclass(frozen=True)
class StripDocument:
    """The parsed marker structure of one file.

    ``dialect`` is None for binary content or extensions without a dialect;
    such documents render verbatim from ``raw``.
    """

    path: str
    dialect: MarkerDialect | None
    lines: tuple[SourceLine, ...]
    raw: bytes


def split_lines(text: str) -> list[tuple[str, str]]:
    """Split into (body, eol) pairs; eol is "\\n", "\\r\\n" or "" at EOF."""
    out: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        j = text.find("\n", i)
        if j == -1:
            out.append((text[i:], ""))
            break
        body = text[i:j]
        if body.endswith("\r"):
            out.append((body[:-1], "\r\n"))
        else:
            out.append((body, "\n"))
        i = j + 1
    return out


def classify_line(body: str, dialect: MarkerDialect) -> tuple[LineKind, str, str]:
    """Classify one line; returns (kind, indent, payload)."""
    stripped = body.lstrip(" \t")
    indent = body[: len(body) - len(stripped)]
    if not stripped.startswith(dialect.comment_prefix):
        return LineKind.PLAIN, indent, ""
    rest = stripped[len(dialect.comment_prefix):].lstrip(" \t")
    tokens = sorted(
        ((dialect.begin_token, LineKind.BEGIN),
         (dialect.end_token, LineKind.END),
         (dialect.student_token, LineKind.STUDENT)),
        key=lambda t: len(t[0]), reverse=True)
    for token, kind in tokens:
        if rest == token:
            return kind, indent, ""
        if rest.startswith(token) and rest[len(token)] in (" ", "\t"):
            payload = rest[len(token) + 1:] if kind is LineKind.STUDENT else ""
            return kind, indent, payload
    return LineKind.PLAIN, indent, ""


def _classify_text(path: str, text: str, raw: bytes,
                   dialect: MarkerDialect) -> StripDocument:
    lines = []
    for n, (body, eol) in enumerate(split_lines(text), start=1):
        kind, indent, payload = classify_line(body, dialect)
        lines.append(SourceLine(n, kind, payload, body, eol, indent))
    return StripDocument(path, dialect, tuple(lines), raw)


def validate_document(doc: StripDocument) -> list[MarkerViolation]:
    """All marker violations in one file, in line order.

    Recovery is deterministic so every problem surfaces in a single pass: a
    nested BEGIN leaves the region open, a stray END leaves it closed, and a
    region still open at end of file is reported at its opening line.
    """
    if doc.dialect is None:
        return []
    violations: list[MarkerViolation] = []
    tokens = (doc.dialect.begin_token, doc.dialect.end_token,
              doc.dialect.student_token)
    open_line: int | None = None
    for line in doc.lines:
        if line.kind is LineKind.BEGIN:
            if open_line is not None:
                violations.append(MarkerViolation(
                    doc.path, line.line_no, "nested-begin",
                    f"region opened at line {open_line} is still open"))
            else:
                open_line = line.line_no
        elif line.kind is LineKind.END:
            if open_line is None:
                violations.append(MarkerViolation(
                    doc.path, line.line_no, "end-without-begin",
                    "no region is open here"))
            else:
                open_line = None
        elif open_line is None:
            # the line survives into the template; it must not carry tokens
            surviving = line.payload if line.kind is LineKind.STUDENT else line.body
            hit = next((t for t in tokens if t in surviving), None)
            if hit is not None:
                violations.append(MarkerViolation(
                    doc.path, line.line_no, "stray-token",
                    f"marker token {hit!r} would leak into the template"))
    if open_line is not None:
        violations.append(MarkerViolation(
            doc.path, open_line, "unclosed-begin", "region is never closed"))
    violations.sort(key=lambda v: v.line)
    return violations


def _parse_no_raise(path: str, content: bytes,
                    config: CourseConfig) -> tuple[StripDocument,
                                                   list[MarkerViolation]]:
    dialect = config.dialect_for(path)
    if dialect is None:
        return StripDocument(path, None, (), content), []
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError:
        # binary despite the extension: passed through untouched
        return StripDocument(path, None, (), content), []
    doc = _classify_text(path, text, content, dialect)
    return doc, validate_document(doc)


def parse_markers(path: str, content: bytes, config: CourseConfig) -> StripDocument:
    """Parse and validate one file's marker structure.

    Files whose extension has no dialect, and binary files, come back with
    ``dialect = None`` and are rendered verbatim.

    Raises:
        MarkerViolationError: naming the path and line of every violation.
    """
    doc, violations = _parse_no_raise(path, content, config)
    if violations:
        raise MarkerViolationError(violations)
    return doc


def strip_document(doc: StripDocument) -> bytes:
    """Student-facing bytes for a validated document."""
    if doc.dialect is None:
        return doc.raw
    out: list[str] = []
    in_region = False
    for line in doc.lines:
        if line.kind is LineKind.BEGIN:
            in_region = True
        elif line.kind is LineKind.END:
            in_region = False
        elif in_region:
            continue
        elif line.kind is LineKind.STUDENT:
            rendered = line.indent + line.payload if line.payload else ""
            out.append(rendered + line.eol)
        else:
            out.append(line.body + line.eol)
    return "".join(out).encode("utf-8")


def strip_snapshot(solution: Snapshot, config: CourseConfig) -> Snapshot:
    """Produce the student template tree for a solution tree.

    Teacher-only paths are omitted entirely. Files whose extension has a
    dialect are stripped; everything else is copied verbatim. Violations are
    collected across all files before anything is raised, so a teacher sees
    the full list at once.

    Raises:
        MarkerViolationError: if any file is invalid; no partial template is
            produced.
    """
    teacher_only = config.teacher_only
    violations: list[MarkerViolation] = []
    out: dict[str, bytes] = {}
    for path, data in solution.items():
        if teacher_only.matches(path):
            continue
        doc, file_violations = _parse_no_raise(path, data, config)
        if file_violations:
            violations.extend(file_violations)
            continue
        out[path] = strip_document(doc)
    if violations:
        raise MarkerViolationError(violations)
    return Snapshot(out)
