"""Schemas and tables for delimiter-separated data files.

A schema assigns each variable a role (outcome component, treatment,
covariate, or ignored) and a kind (numeric or categorical). Loading turns
the file into float columns: numeric cells are parsed as-is, categorical
cells are coded 1, 2, ... by the alphabetical order of the level strings
observed in the file. That coding rule is deliberate and fixed so the same
file always produces the same codes.

Errors point at the offending file line and column by name. Missing values
(empty cells, "NA", "?") are rejected outright for any non-ignored column,
and so are numeric cells that parse to nan or an infinity; this library has
no imputation story and pretending otherwise would poison the estimators
downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, MissingValueError, PocError, SchemaError, as_index

ROLES = ("outcome", "treatment", "covariate", "ignored")
KINDS = ("numeric", "categorical")
MISSING_TOKENS = ("", "NA", "?")


@dataclass(frozen=True)
class Variable:
    name: str
    role: str
    kind: str = "numeric"
    position: int | None = None  # outcome component slot; required iff role == "outcome"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("variable name must be non-empty")
        if self.role not in ROLES:
            raise SchemaError(f"unknown role {self.role!r} for {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for {self.name!r}")
        if self.role == "outcome":
            position = as_index(self.position, f"outcome position of {self.name!r}", SchemaError)
            if position < 0:
                raise SchemaError(f"outcome variable {self.name!r} needs a nonnegative position")
            object.__setattr__(self, "position", position)
        elif self.position is not None:
            raise SchemaError(f"{self.name!r} has a position but is not an outcome")


@dataclass(frozen=True)
class TableSchema:
    variables: tuple[Variable, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate variable names: {dupes}")
        positions = sorted(v.position for v in self.variables if v.role == "outcome")
        if positions != list(range(len(positions))):
            raise SchemaError(
                f"outcome positions must be exactly 0..{len(positions) - 1}, got {positions}"
            )

    def by_role(self, role: str) -> tuple[Variable, ...]:
        if role == "outcome":
            outs = [v for v in self.variables if v.role == "outcome"]
            return tuple(sorted(outs, key=lambda v: v.position))
        return tuple(v for v in self.variables if v.role == role)

    @property
    def outcome_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.by_role("outcome"))

    @property
    def treatment_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.by_role("treatment"))

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.by_role("covariate"))

    def as_dict(self) -> dict:
        out = []
        for v in self.variables:
            role = {"outcome": v.position} if v.role == "outcome" else v.role
            out.append({"name": v.name, "role": role, "kind": v.kind})
        return {"variables": out}


def schema_from_dict(obj: dict) -> TableSchema:
    """Parse {"variables": [{"name": ..., "role": ..., "kind": ...}, ...]}.

    role is either one of "treatment" / "covariate" / "ignored" or an
    object {"outcome": position}.
    """
    if not isinstance(obj, dict) or "variables" not in obj:
        raise SchemaError("schema JSON must be an object with a 'variables' list")
    entries = obj["variables"]
    if not isinstance(entries, list) or not entries:
        raise SchemaError("'variables' must be a non-empty list")
    variables = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"variables[{i}] must be an object with a 'name'")
        role_raw = entry.get("role", "ignored")
        position = None
        if isinstance(role_raw, dict):
            if set(role_raw) != {"outcome"}:
                raise SchemaError(
                    f"variables[{i}]: object roles must be {{'outcome': position}}"
                )
            role, position = "outcome", role_raw["outcome"]
        else:
            role = str(role_raw)
        variables.append(
            Variable(
                name=str(entry["name"]),
                role=role,
                kind=str(entry.get("kind", "numeric")),
                position=position,
            )
        )
    return TableSchema(variables=tuple(variables))


def _read_json(path, what: str, error: type[PocError] = ConfigError):
    """The JSON value in the file at path; a file that cannot be read or
    parsed raises error, naming the file as what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def load_schema(path) -> TableSchema:
    return schema_from_dict(_read_json(path, "schema file", SchemaError))


@dataclass
class DataTable:
    """Loaded data: one float column per non-ignored schema variable.

    levels maps each categorical column to its observed level strings in
    code order, i.e. levels[name][k] is the string coded as k + 1. Codes
    are part of the table's identity: row subsets (resamples) keep the
    original coding even if they no longer contain every level.
    """

    schema: TableSchema
    columns: dict[str, np.ndarray]
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    source: str | None = None

    @property
    def n_rows(self) -> int:
        for col in self.columns.values():
            return int(col.shape[0])
        return 0

    def _matrix(self, names) -> np.ndarray:
        if not names:
            return np.empty((self.n_rows, 0))
        return np.column_stack([self.columns[n] for n in names])

    def outcomes(self) -> np.ndarray:
        return self._matrix(self.schema.outcome_names)

    def treatments(self) -> np.ndarray:
        return self._matrix(self.schema.treatment_names)

    def covariates(self) -> np.ndarray:
        return self._matrix(self.schema.covariate_names)

    def take(self, indices) -> "DataTable":
        idx = np.asarray(indices, dtype=int)
        return DataTable(
            schema=self.schema,
            columns={name: col[idx] for name, col in self.columns.items()},
            levels=dict(self.levels),
            source=self.source,
        )


def _check_delimiter(delimiter) -> None:
    """Reject a delimiter the csv module cannot use, before any file is opened."""
    try:
        csv.reader([], delimiter=delimiter)
    except TypeError:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}") from None


def load_table(path, schema: TableSchema, delimiter: str = ";") -> DataTable:
    """Read a delimited text file into a DataTable under the given schema.

    Header row required. File columns not named in the schema are ignored;
    schema columns missing from the file are an error. Cell failures are
    reported with the file line number (header is line 1) and column name.
    """
    _check_delimiter(delimiter)
    wanted = {v.name: v for v in schema.variables if v.role != "ignored"}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        col_index = {}
        for name in wanted:
            if name not in header:
                raise SchemaError(f"{path}: schema column {name!r} not in header")
            col_index[name] = header.index(name)

        raw: dict[str, list[str]] = {name: [] for name in wanted}
        lines: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(row)} fields, header has {len(header)}"
                )
            lines.append(line_no)
            for name, j in col_index.items():
                raw[name].append(row[j].strip())

    n = len(lines)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")

    columns: dict[str, np.ndarray] = {}
    levels: dict[str, tuple[str, ...]] = {}
    for name, var in wanted.items():
        cells = raw[name]
        for i, cell in enumerate(cells):
            if cell in MISSING_TOKENS:
                raise MissingValueError(
                    f"{path}: line {lines[i]}, column {name!r}: missing value"
                )
        if var.kind == "numeric":
            values = np.empty(n)
            for i, cell in enumerate(cells):
                try:
                    values[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {lines[i]}, column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"{path}: line {lines[i]}, column {name!r}: "
                    f"{cells[i]!r} is not a finite number"
                )
            columns[name] = values
        else:
            lvls = tuple(sorted(set(cells)))
            code = {s: k + 1 for k, s in enumerate(lvls)}
            columns[name] = np.array([code[c] for c in cells], dtype=float)
            levels[name] = lvls
    return DataTable(schema=schema, columns=columns, levels=levels, source=str(path))


def save_table(table: DataTable, path, delimiter: str = ";") -> None:
    """Write a DataTable back to disk. Loading the result under the same
    schema reproduces the columns and codes exactly."""
    _check_delimiter(delimiter)
    names = [v.name for v in table.schema.variables if v.name in table.columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(names)
        n = table.n_rows
        for i in range(n):
            row = []
            for name in names:
                v = table.columns[name][i]
                if name in table.levels:
                    row.append(table.levels[name][int(v) - 1])
                else:
                    row.append(repr(float(v)))
            writer.writerow(row)

