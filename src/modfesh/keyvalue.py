"""Line-oriented key/value file format with named sections and table rows.

Shared by the species/registry data files and the CLI configuration files::

    # comment (also after '#' at end of line is NOT stripped: keep values raw)
    [section name]
    key = value
    other_key = 1 2 3

    [transitions]
    D1 3 3 335.12056284 2.6980e-29 4.5612   <- bare rows become table rows

Sections repeat; order is preserved.  load_keyvalue refuses a section name
the reader does not list; Section.get parses a raw value and Section.take_rows
the bare rows (finite or int for numbers, so every number is finite and every
integer exact), and Section.done() refuses a key that no get read or a bare
row that the reader did not take: each a ConfigError naming the file and line.
parse_fields is the one check of a text row's field count and numbers, here
and in the CSV readers and the CLI's grid and window specs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["Section", "REQUIRED", "load_keyvalue", "format_keyvalue",
           "parse_fields", "read_text", "write_text"]

REQUIRED = object()   # Section.get default of a key the section must hold


def finite(text: str) -> float:
    """float(text) that rejects nan, inf and a bool (a JSON true is not 1.0);
    also the argparse number type."""
    if isinstance(text, bool):
        raise TypeError(f"a bool is not a number: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def parse_fields(fields, parsers, what: str, path=None, line=None) -> tuple:
    """Each field through its parser, exactly one field per parser.  A wrong
    field count, or a ValueError, TypeError or OverflowError (float of an
    integer beyond double range) from a parser, is a ConfigError naming what,
    the file and the line."""
    if len(fields) != len(parsers):
        raise ConfigError(f"{what} takes {len(parsers)} columns, got {len(fields)}", path, line)
    try:
        return tuple(parse(text) for parse, text in zip(parsers, fields))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse {what}: {exc}", path, line) from None


@dataclass
class Section:
    name: str
    line: int
    values: dict = field(default_factory=dict)       # key -> str
    path: object = None                              # file the section came from
    label: str = ""                                  # '4g(4)' of [state 4g(4)]
    value_lines: dict = field(default_factory=dict, init=False)  # key -> line number
    rows: list = field(default_factory=list, init=False)         # list of (line, [tokens])
    read: set = field(default_factory=set, init=False)    # keys asked for by get
    rows_taken: bool = field(default=False, init=False)

    @property
    def header(self) -> str:
        return f"[{self.name} {self.label}]" if self.label else f"[{self.name}]"

    def get(self, key: str, parse, default):
        """parse(value) of key, or default when the key is absent (REQUIRED:
        a ConfigError).  A ValueError (DomainError and ConfigError included)
        or TypeError from parse is a ConfigError at the key's line."""
        self.read.add(key)
        if key not in self.values:
            if default is REQUIRED:
                raise ConfigError(f"missing key {key!r} in {self.header}", self.path, self.line)
            return default
        return parse_fields((self.values[key],), (parse,), f"{key!r} = {self.values[key]!r}",
                            self.path, self.value_lines[key])[0]

    def take_rows(self, parsers, what: str) -> list:
        """The bare rows, taken by the reader: (line, values) each, the row's
        tokens through parse_fields."""
        self.rows_taken = True
        return [(line, parse_fields(tokens, parsers, what, self.path, line))
                for line, tokens in self.rows]

    def done(self) -> None:
        """ConfigError at the first key, in file order, that no get read, or
        at the first bare row when the reader did not take the rows."""
        for key, line in self.value_lines.items():
            if key not in self.read:
                raise ConfigError(f"unknown key {key!r} in {self.header}", self.path, line)
        if self.rows and not self.rows_taken:
            raise ConfigError(f"{self.header} takes 'key = value' lines, not bare rows",
                              self.path, self.rows[0][0])


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


def load_keyvalue(path, names) -> dict:
    """{name: [Section, ...]} of the file at path for each of names, in file
    order.  A name written 'state <label>' takes headers [state <label>] with a
    label, the others headers without one; any other header is a ConfigError
    at its line."""
    groups = {name.split()[0]: [] for name in names}
    current: Section | None = None
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", path, lineno)
            name, _, label = line[1:-1].strip().partition(" ")
            if (f"{name} <label>" if label else name) not in names:
                raise ConfigError(f"unknown section {line}; this file takes "
                                  + ", ".join(f"[{n}]" for n in names), path, lineno)
            current = Section(name, lineno, path=path, label=label.strip())
            groups[name].append(current)
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
                raise ConfigError(f"duplicate key {key!r} in {current.header}", path, lineno)
            current.values[key] = value
            current.value_lines[key] = lineno
        else:
            current.rows.append((lineno, line.split()))
    return groups


def format_keyvalue(sections, header_comment: str) -> str:
    """Serialize sections back to text under a '#' comment (values/rows must
    already be strings)."""
    out = [f"# {line}" if line else "#" for line in header_comment.splitlines()]
    out.append("")
    for sec in sections:
        out.append(sec.header)
        for key, value in sec.values.items():
            out.append(f"{key} = {value}")
        for _lineno, tokens in sec.rows:
            out.append(" ".join(str(t) for t in tokens))
        out.append("")
    return "\n".join(out)
