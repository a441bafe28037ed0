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
from typing import Iterable

from courseforge.config import CourseConfig, MarkerDialect
from courseforge.repomodel import Snapshot


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
class StripDocument:
    """One file's student-facing bytes.

    ``dialect`` is None for binary content or extensions without a dialect;
    such files pass through verbatim.
    """

    path: str
    dialect: MarkerDialect | None
    template: bytes


def _strip_text(path: str, text: str, dialect: MarkerDialect
                ) -> tuple[str, list[MarkerViolation]]:
    """The template text of one file and its violations, in line order.

    Each line is classified, checked and rendered in the one pass. Recovery
    is deterministic so every problem surfaces at once: a nested BEGIN
    leaves the region open, a stray END leaves it closed, and a region
    still open at end of file is reported at its opening line.
    """
    prefix = dialect.comment_prefix
    begin, end, student = tokens = (dialect.begin_token, dialect.end_token,
                                    dialect.student_token)
    longest_first = sorted(tokens, key=len, reverse=True)
    out: list[str] = []
    violations: list[MarkerViolation] = []
    open_line: int | None = None
    lines = text.split("\n")
    ends = len(lines) - 1  # lines that end in "\n": all but the last
    if not lines[-1]:
        lines.pop()
    for n, body in enumerate(lines, start=1):
        eol = "\n" if n <= ends else ""  # stripping never appends one
        if eol and body.endswith("\r"):
            body, eol = body[:-1], "\r\n"
        stripped = body.lstrip(" \t")
        token = None
        if stripped.startswith(prefix):
            rest = stripped[len(prefix):].lstrip(" \t")
            for t in longest_first:
                if rest == t or rest.startswith(t) and rest[len(t)] in " \t":
                    token = t
                    break
        if token == begin:
            if open_line is not None:
                violations.append(MarkerViolation(
                    path, n, "nested-begin",
                    f"region opened at line {open_line} is still open"))
            else:
                open_line = n
        elif token == end:
            if open_line is None:
                violations.append(MarkerViolation(
                    path, n, "end-without-begin", "no region is open here"))
            else:
                open_line = None
        elif open_line is None:
            # the line survives into the template; it must not carry tokens
            surviving = rest[len(student) + 1:] if token else body
            if begin in surviving or end in surviving or student in surviving:
                hit = next(t for t in tokens if t in surviving)
                violations.append(MarkerViolation(
                    path, n, "stray-token",
                    f"marker token {hit!r} would leak into the template"))
            if token and surviving:  # a STUDENT payload keeps the indent
                surviving = body[:len(body) - len(stripped)] + surviving
            out.append(surviving + eol)
    if open_line is not None:
        violations.append(MarkerViolation(
            path, open_line, "unclosed-begin", "region is never closed"))
        violations.sort(key=lambda v: v.line)
    return "".join(out), violations


def _parse_no_raise(path: str, content: bytes,
                    config: CourseConfig) -> tuple[StripDocument,
                                                   list[MarkerViolation]]:
    dialect = config.dialect_for(path)
    if dialect is None:
        return StripDocument(path, None, content), []
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError:
        # binary despite the extension: passed through untouched
        return StripDocument(path, None, content), []
    template, violations = _strip_text(path, text, dialect)
    return StripDocument(path, dialect, template.encode("utf-8")), violations


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
    return doc.template


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
        out[path] = doc.template
    if violations:
        raise MarkerViolationError(violations)
    return Snapshot(out)
