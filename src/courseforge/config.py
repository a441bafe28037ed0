"""Course configuration: marker dialects, path policies, tasks, executor commands.

The configuration file is YAML; the exact schema is documented in
``docs/formats.md``. A loaded :class:`CourseConfig` is immutable and safe to
share across concurrent pipeline runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

import yaml

from courseforge.repomodel import RepoModelError, validate_repo_path


class ConfigError(Exception):
    """Raised when a course configuration cannot be loaded or is invalid."""


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

    def __bool__(self) -> bool:
        return bool(self._compiled)


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
    path filters are compiled once, from the four pattern fields.
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

    def __post_init__(self) -> None:
        if not self.course_id:
            raise ConfigError("course_id must be non-empty")
        if not self.bot_account:
            raise ConfigError("bot_account must be non-empty")
        if not self.template_repo_name:
            object.__setattr__(self, "template_repo_name", f"{self.course_id}-template")
        if not self.teacher_repo_name:
            object.__setattr__(self, "teacher_repo_name", f"{self.course_id}-solutions")
        seen: set[str] = set()
        for d in self.dialects:
            for ext in d.file_extensions:
                if ext in seen:
                    raise ConfigError(f"duplicate extension '{ext}' in two dialects")
                seen.add(ext)
        for fname, attr in (("teacher_only_paths", "teacher_only"),
                            ("replaced_paths", "replaced"),
                            ("archive_paths", "archived"),
                            ("sensitive_patterns", "sensitive")):
            try:
                object.__setattr__(self, attr, PathFilter(getattr(self, fname)))
            except ValueError as exc:
                raise ConfigError(f"{fname}: {exc}") from None
        ids = [t.task_id for t in self.tasks]
        if len(ids) != len(set(ids)):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ConfigError(f"duplicate task id '{dup}'")

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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, source=str(path), base_dir=path.parent)


def parse_config(text: str, source: str = "<string>",
                 base_dir: str | Path | None = None) -> CourseConfig:
    """Parse configuration YAML. ``base_dir`` anchors a relative state_dir."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: YAML parse error: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")

    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")

    course_id = _req_str(data, "course_id", source)
    bot_account = _req_str(data, "bot_account", source)

    declared: list[MarkerDialect] = []
    for i, entry in enumerate(_opt_list(data, "dialects", source)):
        declared.append(_parse_dialect(entry, f"{source}: dialects[{i}]"))

    tasks: list[TaskDef] = []
    for i, entry in enumerate(_opt_list(data, "tasks", source)):
        tasks.append(_parse_task(entry, f"{source}: tasks[{i}]"))

    compile_command: tuple[str, ...] | None = None
    test_command: tuple[str, ...] | None = None
    if "executor" in data:
        ex = data["executor"]
        if not isinstance(ex, dict):
            raise ConfigError(f"{source}: 'executor' must be a mapping")
        unknown = set(ex) - _EXECUTOR_KEYS
        if unknown:
            raise ConfigError(f"{source}: executor: unknown keys: "
                              f"{', '.join(sorted(unknown))}")
        if "compile_command" in ex:
            compile_command = _str_tuple(ex["compile_command"],
                                         f"{source}: executor.compile_command")
        if "test_command" in ex:
            test_command = _str_tuple(ex["test_command"],
                                      f"{source}: executor.test_command")

    state_dir = data.get("state_dir", "state")
    if not isinstance(state_dir, str) or not state_dir:
        raise ConfigError(f"{source}: state_dir must be a non-empty string")
    if not Path(state_dir).is_absolute():
        state_dir = str((Path(base_dir) if base_dir is not None else Path.cwd())
                        / state_dir)

    kwargs = dict(
        course_id=course_id,
        bot_account=bot_account,
        template_repo_name=_opt_str(data, "template_repo_name", source),
        teacher_repo_name=_opt_str(data, "teacher_repo_name", source),
        timezone=_opt_str(data, "timezone", source) or "UTC",
        state_dir=state_dir,
        dialects=_merge_dialects(declared),
        teacher_only_paths=_pattern_tuple(data, "teacher_only_paths", source),
        replaced_paths=_pattern_tuple(data, "replaced_paths", source),
        archive_paths=_pattern_tuple(data, "archive_paths", source),
        sensitive_patterns=_pattern_tuple(data, "sensitive_patterns", source),
        tasks=tuple(tasks),
        compile_command=compile_command,
        test_command=test_command,
    )
    try:
        return CourseConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def serialize_config(config: CourseConfig) -> str:
    """Render a config back to YAML such that ``parse_config`` round-trips it."""
    doc: dict = {
        "course_id": config.course_id,
        "bot_account": config.bot_account,
        "template_repo_name": config.template_repo_name,
        "teacher_repo_name": config.teacher_repo_name,
        "timezone": config.timezone,
        "state_dir": config.state_dir,
        "dialects": [
            {
                "extensions": list(d.file_extensions),
                "comment_prefix": d.comment_prefix,
                "begin_token": d.begin_token,
                "end_token": d.end_token,
                "student_token": d.student_token,
            }
            for d in config.dialects
        ],
        "teacher_only_paths": list(config.teacher_only_paths),
        "replaced_paths": list(config.replaced_paths),
        "archive_paths": list(config.archive_paths),
        "sensitive_patterns": list(config.sensitive_patterns),
        "tasks": [
            {"id": t.task_id, "manifest": t.manifest_path, "statement": t.statement}
            for t in config.tasks
        ],
    }
    executor: dict = {}
    if config.compile_command is not None:
        executor["compile_command"] = list(config.compile_command)
    if config.test_command is not None:
        executor["test_command"] = list(config.test_command)
    if executor:
        doc["executor"] = executor
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


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


def _parse_dialect(entry: object, where: str) -> MarkerDialect:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: dialect must be a mapping")
    unknown = set(entry) - _DIALECT_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
    exts = entry.get("extensions")
    if isinstance(exts, str):
        exts = [exts]
    if not isinstance(exts, list) or not all(isinstance(e, str) for e in exts):
        raise ConfigError(f"{where}: 'extensions' must be a list of strings")
    prefix = entry.get("comment_prefix")
    if not isinstance(prefix, str):
        raise ConfigError(f"{where}: 'comment_prefix' must be a string")
    kwargs = {}
    for key, attr in (("begin_token", "begin_token"), ("end_token", "end_token"),
                      ("student_token", "student_token")):
        if key in entry:
            if not isinstance(entry[key], str):
                raise ConfigError(f"{where}: '{key}' must be a string")
            kwargs[attr] = entry[key]
    return MarkerDialect(tuple(exts), prefix, **kwargs)


def _parse_task(entry: object, where: str) -> TaskDef:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: task must be a mapping")
    unknown = set(entry) - _TASK_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys: {', '.join(sorted(unknown))}")
    task_id = entry.get("id")
    manifest = entry.get("manifest")
    if not isinstance(task_id, str):
        raise ConfigError(f"{where}: 'id' must be a string")
    if not isinstance(manifest, str):
        raise ConfigError(f"{where}: 'manifest' must be a string")
    statement = entry.get("statement", "")
    if not isinstance(statement, str):
        raise ConfigError(f"{where}: 'statement' must be a string")
    return TaskDef(task_id, manifest, statement)


def _req_str(data: Mapping, key: str, source: str) -> str:
    if key not in data:
        raise ConfigError(f"{source}: missing required field '{key}'")
    value = data[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{source}: '{key}' must be a non-empty string")
    return value


def _opt_str(data: Mapping, key: str, source: str) -> str:
    value = data.get(key, "")
    if not isinstance(value, str):
        raise ConfigError(f"{source}: '{key}' must be a string")
    return value


def _opt_list(data: Mapping, key: str, source: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{source}: '{key}' must be a list")
    return value


def _pattern_tuple(data: Mapping, key: str, source: str) -> tuple[str, ...]:
    value = _opt_list(data, key, source)
    if not all(isinstance(p, str) for p in value):
        raise ConfigError(f"{source}: '{key}' must contain only strings")
    return tuple(value)


def _str_tuple(value: object, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value \
            or not all(isinstance(s, str) for s in value):
        raise ConfigError(f"{where} must be a non-empty list of strings")
    return tuple(value)
