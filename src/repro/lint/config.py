"""repro-lint configuration: the ``[tool.repro-lint]`` pyproject table.

Recognised keys::

    [tool.repro-lint]
    disable = ["float-ticks"]        # rule ids switched off globally
    enable  = ["layering"]           # if set, ONLY these rules run
    exclude = ["src/repro/viz"]      # path prefixes never scanned

``enable`` and ``disable`` compose: ``enable`` first restricts the rule
set, then ``disable`` removes from it.  Unknown rule ids in either list
are a configuration error (exit code 2) so typos don't silently turn a
gate off.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path


class LintConfigError(Exception):
    """The [tool.repro-lint] table is malformed (exit code 2)."""


@dataclass(frozen=True)
class LintConfig:
    """Parsed ``[tool.repro-lint]`` settings."""

    enable: tuple[str, ...] = ()
    disable: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    source: Path | None = field(default=None, compare=False)

    def rule_enabled(self, rule_id: str) -> bool:
        if self.enable and rule_id not in self.enable:
            return False
        return rule_id not in self.disable

    def path_excluded(self, path: Path) -> bool:
        text = path.as_posix()
        for prefix in self.exclude:
            p = prefix.rstrip("/")
            if text == p or text.startswith(p + "/") or f"/{p}/" in f"/{text}/":
                return True
        return False

    def validate_rule_ids(self, known: set[str]) -> None:
        unknown = [r for r in (*self.enable, *self.disable) if r not in known]
        if unknown:
            raise LintConfigError(
                f"unknown rule id(s) in [tool.repro-lint]: "
                f"{', '.join(sorted(unknown))} (known: {', '.join(sorted(known))})"
            )


def _string_list(table: dict, key: str) -> tuple[str, ...]:
    value = table.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LintConfigError(f"[tool.repro-lint] {key} must be a list of strings")
    return tuple(value)


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Read ``[tool.repro-lint]`` from ``pyproject.toml``.

    With no explicit path, searches the current directory and its
    parents.  Missing file or missing table both yield the default
    config; a present-but-malformed table raises
    :class:`LintConfigError`.
    """
    path = pyproject if pyproject is not None else _find_pyproject()
    if path is None or not path.is_file():
        return LintConfig()
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"{path}: invalid TOML: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")
    return LintConfig(
        enable=_string_list(table, "enable"),
        disable=_string_list(table, "disable"),
        exclude=_string_list(table, "exclude"),
        source=path,
    )


def _find_pyproject(start: Path | None = None) -> Path | None:
    here = (start or Path.cwd()).resolve()
    for directory in (here, *here.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
