"""Course configuration: marker dialects, path policies, tasks, executor commands.

The configuration file is YAML; the exact schema is documented in
``docs/formats.md``. A loaded :class:`CourseConfig` is immutable and safe to
share across concurrent pipeline runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, TypeVar
from zoneinfo import ZoneInfo

import yaml

from courseforge.executor import references_test_id
from courseforge.repomodel import RepoModelError, validate_repo_path

T = TypeVar("T")


class ConfigError(Exception):
    """Raised when a course configuration cannot be loaded or is invalid."""


def require_distinct(items: Iterable[str], what: str,
                     error: type[Exception]) -> None:
    """Raise ``error`` naming the first item that repeats an earlier one."""
    seen: set[str] = set()
    for item in items:
        if item in seen:
            raise error(f"duplicate {what} '{item}'")
        seen.add(item)


# ---------------------------------------------------------------------------
# Glob patterns
# ---------------------------------------------------------------------------
#
# Patterns are anchored at the repository root and use:
#   *   any run of characters within one path segment
#   ?   one character within a segment
#   **  any number of whole segments (only valid as a complete segment)

def validate_pattern(pattern: str) -> None:
    """Reject malformed glob patterns with a reason. Raises ValueError."""
    if not pattern:
        raise ValueError("empty pattern")
    if pattern.startswith("/"):
        raise ValueError("pattern must be repo-relative (no leading '/')")
    if pattern.endswith("/"):
        raise ValueError("pattern must not end with '/'")
    if "\\" in pattern:
        raise ValueError("use forward slashes only")
    for seg in pattern.split("/"):
        if not seg:
            raise ValueError("empty path segment")
        if seg in (".", ".."):
            raise ValueError(f"'{seg}' segments are not allowed")
        if "**" in seg and seg != "**":
            raise ValueError("'**' must be a complete path segment")


def _glob_regex(pattern: str) -> re.Pattern[str]:
    try:
        validate_pattern(pattern)
    except ValueError as exc:
        raise ValueError(f"bad pattern {pattern!r}: {exc}") from None
    segments = pattern.split("/")
    parts: list[str] = []
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        if seg == "**":
            # zero or more whole segments; as the final segment it must
            # match at least one more segment ("src/**" never matches "src")
            parts.append(".+" if last else "(?:[^/]+/)*")
            continue
        seg_re = "".join(
            "[^/]*" if ch == "*" else "[^/]" if ch == "?" else re.escape(ch)
            for ch in seg
        )
        parts.append(seg_re if last else seg_re + "/")
    return re.compile("".join(parts))


class PathFilter:
    """A compiled set of glob patterns matched against normalized repo paths.

    Raises ValueError, naming the pattern, when a pattern is malformed.
    """

    def __init__(self, patterns: Iterable[str]):
        self.patterns = tuple(patterns)
        self._compiled = [(p, _glob_regex(p)) for p in self.patterns]

    def matches(self, path: str) -> bool:
        return any(rx.fullmatch(path) for _, rx in self._compiled)

    def unmatched_patterns(self, paths: Iterable[str]) -> list[str]:
        """Patterns that match none of ``paths`` (misconfiguration probe)."""
        paths = list(paths)
        return [p for p, rx in self._compiled if not any(rx.fullmatch(x) for x in paths)]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

DEFAULT_BEGIN_TOKEN = "BEGIN STRIP"
DEFAULT_END_TOKEN = "END STRIP"
DEFAULT_STUDENT_TOKEN = "STUDENT"


@dataclass(frozen=True)
class MarkerDialect:
    """Comment-marker vocabulary for one family of file extensions."""

    file_extensions: tuple[str, ...]
    comment_prefix: str
    begin_token: str = DEFAULT_BEGIN_TOKEN
    end_token: str = DEFAULT_END_TOKEN
    student_token: str = DEFAULT_STUDENT_TOKEN

    def __post_init__(self) -> None:
        if not self.comment_prefix:
            raise ConfigError("dialect comment_prefix must be non-empty")
        if not self.file_extensions:
            raise ConfigError("dialect needs at least one file extension")
        tokens = (self.begin_token, self.end_token, self.student_token)
        if len(set(tokens)) != 3 or not all(tokens):
            raise ConfigError(
                "dialect begin/end/student tokens must be non-empty and distinct"
            )
        # extension order is insignificant; keep a canonical form
        norm = tuple(sorted(e.lower().lstrip(".") for e in self.file_extensions))
        if any(not e or "/" in e or "." in e for e in norm):
            raise ConfigError(f"invalid file extension in dialect: {self.file_extensions}")
        object.__setattr__(self, "file_extensions", norm)


DEFAULT_DIALECTS: tuple[MarkerDialect, ...] = (
    MarkerDialect(
        (
            "c", "cc", "cpp", "cxx", "h", "hh", "hpp", "java", "kt", "kts",
            "scala", "go", "rs", "js", "jsx", "ts", "tsx", "cs", "swift", "dart",
        ),
        "//",
    ),
    MarkerDialect(
        ("py", "rb", "sh", "bash", "pl", "r", "jl", "yaml", "yml", "toml", "cmake"),
        "#",
    ),
    MarkerDialect(("sql", "lua", "hs"), "--"),
    MarkerDialect(("tex",), "%"),
)


@dataclass(frozen=True)
class TaskDef:
    """One graded task: an identifier, the manifest location, and a statement."""

    task_id: str
    manifest_path: str
    statement: str = ""

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ConfigError("task id must be non-empty")
        validate_repo_path(self.task_id, "task id", ConfigError)
        try:
            validate_repo_path(self.manifest_path)
        except RepoModelError as exc:
            raise ConfigError(f"task '{self.task_id}' manifest path: {exc}") from None


@dataclass(frozen=True)
class CourseConfig:
    """Everything that parameterizes stripping, publishing, enrollment and grading.

    Immutable after load. ``dialects`` is the effective table: built-in
    defaults merged with the config file's entries (an extension declared in
    the file overrides the built-in dialect for that extension). The four
    path filters are compiled once, from the four pattern fields, and
    ``zone`` is read once, from ``timezone``.
    """

    course_id: str
    bot_account: str
    template_repo_name: str = ""
    teacher_repo_name: str = ""
    timezone: str = "UTC"
    state_dir: str = "state"
    dialects: tuple[MarkerDialect, ...] = DEFAULT_DIALECTS
    teacher_only_paths: tuple[str, ...] = ()
    replaced_paths: tuple[str, ...] = ()
    archive_paths: tuple[str, ...] = ()
    sensitive_patterns: tuple[str, ...] = ()
    tasks: tuple[TaskDef, ...] = ()
    compile_command: tuple[str, ...] | None = None
    test_command: tuple[str, ...] | None = None
    teacher_only: PathFilter = field(init=False, repr=False, compare=False)
    replaced: PathFilter = field(init=False, repr=False, compare=False)
    archived: PathFilter = field(init=False, repr=False, compare=False)
    sensitive: PathFilter = field(init=False, repr=False, compare=False)
    zone: ZoneInfo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.course_id:
            raise ConfigError("course_id must be non-empty")
        if not self.bot_account:
            raise ConfigError("bot_account must be non-empty")
        if not self.state_dir:
            raise ConfigError("state_dir must be non-empty")
        try:
            object.__setattr__(self, "zone", ZoneInfo(self.timezone))
        except (KeyError, ValueError):  # ValueError: a path or a non-zone file
            raise ConfigError(f"unknown timezone {self.timezone!r}") from None
        if self.compile_command is not None and not self.compile_command:
            raise ConfigError("executor.compile_command must be non-empty")
        if self.test_command is not None \
                and not references_test_id(self.test_command):
            raise ConfigError("executor.test_command must reference {test_id}")
        if not self.template_repo_name:
            object.__setattr__(self, "template_repo_name", f"{self.course_id}-template")
        if not self.teacher_repo_name:
            object.__setattr__(self, "teacher_repo_name", f"{self.course_id}-solutions")
        if self.template_repo_name == self.teacher_repo_name:
            # the public template would be the private solution repository
            raise ConfigError("template_repo_name and teacher_repo_name must "
                              f"differ: both are {self.template_repo_name!r}")
        require_distinct((e for d in self.dialects for e in d.file_extensions),
                         "extension", ConfigError)
        for fname, attr in (("teacher_only_paths", "teacher_only"),
                            ("replaced_paths", "replaced"),
                            ("archive_paths", "archived"),
                            ("sensitive_patterns", "sensitive")):
            try:
                object.__setattr__(self, attr, PathFilter(getattr(self, fname)))
            except ValueError as exc:
                raise ConfigError(f"{fname}: {exc}") from None
        require_distinct((t.task_id for t in self.tasks), "task id", ConfigError)

    def dialect_for(self, path: str) -> MarkerDialect | None:
        """The dialect governing ``path``, chosen by its (lowercased) extension."""
        name = path.rsplit("/", 1)[-1]
        if "." not in name:
            return None
        ext = name.rsplit(".", 1)[-1].lower()
        for d in self.dialects:
            if ext in d.file_extensions:
                return d
        return None

    def task(self, task_id: str) -> TaskDef:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise ConfigError(f"unknown task '{task_id}'")


# ---------------------------------------------------------------------------
# Reading YAML
# ---------------------------------------------------------------------------

class Fields:
    """One YAML mapping whose fields are read by type.

    Construction checks that ``data`` is a mapping with only ``keys`` in it.
    ``where`` places the mapping in every message, as in ``tasks/t1.yaml:
    tests[2]``, and ``error`` is the exception raised. A missing field reads
    as its default. A value's type is checked here, and everything else about
    it by the class it is built into, through :meth:`construct`.
    """

    def __init__(self, data: object, keys: Collection[str], where: str,
                 error: type[Exception], what: str = "top level"):
        if not isinstance(data, dict):
            raise error(f"{where}: {what} must be a mapping")
        unknown = set(data) - set(keys)
        if unknown:
            raise error(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
        self.data, self.where, self.error = data, where, error

    @classmethod
    def load(cls, text: str, keys: Collection[str], source: str,
             error: type[Exception]) -> Fields:
        """The top-level fields of a YAML document; an empty one has none."""
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise error(f"{source}: YAML parse error: {exc}") from exc
        return cls({} if data is None else data, keys, source, error)

    def _get(self, key: str, default, kind: str, ok: Callable[[object], bool],
             convert: Callable = lambda value: value):
        if key not in self.data:
            return default
        if not ok(self.data[key]):
            raise self.error(f"{self.where}: '{key}' must be {kind}")
        return convert(self.data[key])

    def string(self, key: str, default: str | None = "") -> str | None:
        return self._get(key, default, "a string", lambda v: isinstance(v, str))

    def strings(self, key: str, default: tuple[str, ...] | None = (), *,
                single: bool = False) -> tuple[str, ...] | None:
        """A list of strings; with ``single``, a lone string is a list of one."""
        return self._get(
            key, default, "a list of strings",
            lambda v: (single and isinstance(v, str)) or (
                isinstance(v, list) and all(isinstance(s, str) for s in v)),
            lambda v: (v,) if isinstance(v, str) else tuple(v))

    def number(self, key: str, default: float | None = None, *,
               name: str | None = None) -> float | None:
        """A number as a float; ``name`` stands for the quoted key in messages."""
        name = name or f"'{key}'"
        if key not in self.data:
            return default
        value = self.data[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise self.error(f"{self.where}: {name} must be a number")
        try:
            return float(value)
        except OverflowError:  # an int beyond the largest float
            raise self.error(f"{self.where}: {name} is out of range") from None

    def entries(self, key: str, keys: Collection[str],
                what: str) -> Iterator[Fields]:
        """The mappings listed under ``key``, each placed as ``key[i]``."""
        for i, entry in enumerate(self._get(key, [], "a list",
                                            lambda v: isinstance(v, list))):
            yield Fields(entry, keys, f"{self.where}: {key}[{i}]", self.error,
                         what)

    def construct(self, cls: type[T], *args, **kwargs) -> T:
        """``cls(*args, **kwargs)``, placing the constructor's error here."""
        try:
            return cls(*args, **kwargs)
        except self.error as exc:
            raise self.error(f"{self.where}: {exc}") from None


# ---------------------------------------------------------------------------
# Loading / serializing
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "course_id", "bot_account", "template_repo_name", "teacher_repo_name",
    "timezone", "state_dir", "dialects", "teacher_only_paths", "replaced_paths",
    "archive_paths", "sensitive_patterns", "tasks", "executor",
}
_DIALECT_KEYS = {"extensions", "comment_prefix", "begin_token", "end_token",
                 "student_token"}
_TASK_KEYS = {"id", "manifest", "statement"}
_EXECUTOR_KEYS = {"compile_command", "test_command"}


def load_config(path: str | Path) -> CourseConfig:
    """Load and fully validate a course configuration file.

    Raises:
        ConfigError: on unreadable files, YAML syntax errors (with the parser's
            line/column), or any violated invariant (naming the field).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, source=str(path), base_dir=path.parent)


def parse_config(text: str, source: str = "<string>",
                 base_dir: str | Path | None = None) -> CourseConfig:
    """Parse configuration YAML. ``base_dir`` anchors a relative state_dir."""
    doc = Fields.load(text, _TOP_LEVEL_KEYS, source, ConfigError)
    dialects = [d.construct(MarkerDialect,
                            d.strings("extensions", single=True),
                            d.string("comment_prefix"),
                            d.string("begin_token", DEFAULT_BEGIN_TOKEN),
                            d.string("end_token", DEFAULT_END_TOKEN),
                            d.string("student_token", DEFAULT_STUDENT_TOKEN))
                for d in doc.entries("dialects", _DIALECT_KEYS, "dialect")]
    tasks = tuple(t.construct(TaskDef, t.string("id"), t.string("manifest"),
                              t.string("statement"))
                  for t in doc.entries("tasks", _TASK_KEYS, "task"))
    executor = Fields(doc.data.get("executor", {}), _EXECUTOR_KEYS,
                      f"{source}: executor", ConfigError, "section")
    state_dir = doc.string("state_dir", "state")
    if state_dir and not Path(state_dir).is_absolute():
        state_dir = str((Path(base_dir) if base_dir is not None else Path.cwd())
                        / state_dir)
    return doc.construct(
        CourseConfig,
        course_id=doc.string("course_id"),
        bot_account=doc.string("bot_account"),
        template_repo_name=doc.string("template_repo_name"),
        teacher_repo_name=doc.string("teacher_repo_name"),
        timezone=doc.string("timezone") or "UTC",
        state_dir=state_dir,
        dialects=_merge_dialects(dialects),
        teacher_only_paths=doc.strings("teacher_only_paths"),
        replaced_paths=doc.strings("replaced_paths"),
        archive_paths=doc.strings("archive_paths"),
        sensitive_patterns=doc.strings("sensitive_patterns"),
        tasks=tasks,
        compile_command=executor.strings("compile_command", None),
        test_command=executor.strings("test_command", None),
    )


def _merge_dialects(declared: list[MarkerDialect]) -> tuple[MarkerDialect, ...]:
    overridden = {e for d in declared for e in d.file_extensions}
    effective = list(declared)
    for d in DEFAULT_DIALECTS:
        remaining = tuple(e for e in d.file_extensions if e not in overridden)
        if remaining == d.file_extensions:
            effective.append(d)
        elif remaining:
            effective.append(replace(d, file_extensions=remaining))
    return tuple(sorted(effective, key=lambda d: d.file_extensions))
