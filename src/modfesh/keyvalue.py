"""Line-oriented key/value file format with named sections and table rows.

Shared by the species/registry data files and the CLI configuration files::

    # comment (also after '#' at end of line is NOT stripped: keep values raw)
    [section name]
    key = value
    other_key = 1 2 3

    [transitions]
    D1 3 3 335.12056284 2.6980e-29 4.5612   <- bare rows become table rows

Sections repeat; order is preserved.  Values are raw strings; callers parse
them with Section.get_float / Section.get_int (or finite / int for row tokens),
so every number in every file is finite and every integer exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["Section", "parse_keyvalue", "load_keyvalue", "format_keyvalue",
           "read_text", "write_text"]

_REQUIRED = object()


def finite(text: str) -> float:
    """float(text) that rejects nan and inf; also the argparse number type."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


@dataclass
class Section:
    name: str
    line: int
    values: dict = field(default_factory=dict)       # key -> str
    value_lines: dict = field(default_factory=dict)  # key -> line number
    rows: list = field(default_factory=list)         # list of (line, [tokens])
    path: object = None                              # file the section came from

    def get_float(self, key: str, default=_REQUIRED) -> float:
        """The finite number under key; default when the key is absent."""
        return self._get(key, default, finite)

    def get_int(self, key: str, default=_REQUIRED) -> int:
        """The integer under key, written as one ('3', not '3.0'); default when
        the key is absent."""
        return self._get(key, default, int)

    def _get(self, key, default, parse):
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"missing key {key!r} in [{self.name}]", self.path, self.line)
            return default
        try:
            return parse(self.values[key])
        except ValueError:
            raise ConfigError(f"cannot parse {key!r} = {self.values[key]!r}",
                              self.path, self.value_lines[key]) from None


def parse_keyvalue(text: str, path=None) -> list[Section]:
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", path, lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", path, lineno)
            current = Section(name=name, line=lineno, path=path)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError("content before any [section] header", path, lineno)
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError("missing key before '='", path, lineno)
            if key in current.values:
                raise ConfigError(f"duplicate key {key!r} in [{current.name}]", path, lineno)
            current.values[key] = value
            current.value_lines[key] = lineno
        else:
            current.rows.append((lineno, line.split()))
    return sections


def read_text(path) -> str:
    """The text of a UTF-8 file: the one place the package reads a file.  A
    file that cannot be read or decoded is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read file: {exc}", path) from None


def write_text(text: str, path=None) -> None:
    """Write text to path with '\\n' line ends, or to stdout when path is None:
    the one place the package writes a file.  A file that cannot be written is
    a ConfigError naming it."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write file: {exc}", path) from None


def load_keyvalue(path) -> list[Section]:
    return parse_keyvalue(read_text(path), path=path)


def format_keyvalue(sections, header_comment: str = "") -> str:
    """Serialize sections back to text (values/rows must already be strings)."""
    out = []
    if header_comment:
        for line in header_comment.splitlines():
            out.append(f"# {line}" if line else "#")
        out.append("")
    for sec in sections:
        out.append(f"[{sec.name}]")
        for key, value in sec.values.items():
            out.append(f"{key} = {value}")
        for _lineno, tokens in sec.rows:
            out.append(" ".join(str(t) for t in tokens))
        out.append("")
    return "\n".join(out)
