"""Schemas and tables for delimiter-separated data files.

A schema assigns each variable a role (outcome component, treatment,
covariate, or ignored) and a kind (numeric or categorical). Loading turns
the file into float columns: numeric cells are parsed as-is, categorical
cells are coded 1, 2, ... by the alphabetical order of the level strings
observed in the file. That coding rule is deliberate and fixed so the same
file always produces the same codes.

A file whose schema columns are all numeric is parsed by numpy's C reader
(np.loadtxt); the csv reader parses every other file, and every numeric file
the C reader fails on or could read differently. Both give the same columns,
bit for bit, and only the csv reader reports errors.

Errors point at the offending file line and column by name. Missing values
(empty cells, "NA", "?") are rejected outright for any non-ignored column,
and so are numeric cells that parse to nan or an infinity; this library has
no imputation story and pretending otherwise would poison the estimators
downstream. Every input file is read as UTF-8: a data file that is not is
a DataError, a JSON file that is not is a ConfigError (SchemaError for a
schema), and each names the file and the first byte that does not decode.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, MissingValueError, PocError, SchemaError, as_index

ROLES = ("outcome", "treatment", "covariate", "ignored")
KINDS = ("numeric", "categorical")
MISSING_TOKENS = ("", "NA", "?")
_SAVE_CHUNK_ROWS = 2048  # rows per join and write; bounds the cell strings held at once


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
    except UnicodeDecodeError as exc:
        raise error(
            f"{what} {path} is not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None
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

    A table is either a root, loaded or simulated with its columns in
    hand, or a resample that take() made. A resample records its root and
    its row indices into the root (a take of a take composes them), and
    gathers no column until one is read: the first read of any column
    gathers all of them from the root at once. Every reader sees the
    arrays an eager gather would give.

    A table also carries one stratum index, built the first time
    stratum_index() is called: each row's (x, c) stratum as an intp code,
    and the code of each distinct (x, c) row. A resample's index is its
    root's, gathered at its rows. cached() keeps other values derived from
    a table with it. A table's columns must not change once it has been
    resampled or has built its index or a cached value.
    """

    schema: TableSchema
    columns: Mapping[str, np.ndarray]
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    source: str | None = None
    _root: DataTable | None = field(default=None, init=False, repr=False, compare=False)
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        if self._rows is not None:
            return int(self._rows.shape[0])
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

    def origin(self) -> tuple[DataTable, np.ndarray | None]:
        """The root table this table's rows come from, and their indices
        into it: the table itself and None, unless take() made it."""
        if self._root is None:
            return self, None
        return self._root, self._rows

    def cached(self, key, build):
        """The value build() gives for this table, kept under key after the
        first call asks for it. build must give the same value every time:
        threads that ask for a new key at once may each build it, and the
        first value stored is the one every caller gets."""
        try:
            return self._cache[key]
        except KeyError:
            return self._cache.setdefault(key, build())

    def stratum_index(self) -> tuple[np.ndarray, dict[tuple, int]]:
        """Each row's (x, c) stratum code, and the code of each distinct
        (x, c) row, for a table with at least one treatment or covariate.

        One stable sort of the root's (treatment, covariate) rows
        (_distinct_rows) numbers its distinct rows 0, 1, ... in sorted
        order, first column primary. The lookup is keyed by value, as a
        tuple of floats, so -0.0 and 0.0 name one stratum. A table made by
        take() has its root's lookup and its rows' root codes, so some
        strata may have no rows in it.
        """
        return self.cached("strata", self._build_stratum_index)

    def _build_stratum_index(self) -> tuple[np.ndarray, dict[tuple, int]]:
        if self._root is not None:
            codes, lookup = self._root.stratum_index()
            return codes[self._rows], lookup
        distinct, codes = _distinct_rows(np.hstack([self.treatments(), self.covariates()]))
        return codes, {tuple(key): code for code, key in enumerate(distinct.tolist())}

    def take(self, indices) -> DataTable:
        """The table of this table's rows at indices, in that order, repeats
        allowed: a resample that gathers its columns when one is first read.

        indices must be a 1-d array (or list) of integers, each in
        0..n_rows-1; anything else, a boolean mask included, raises
        ConfigError naming the first bad index. The resample keeps an intp
        index array as it is, without a copy, and reads it when its columns
        are gathered, so the array must not change while the resample is in
        use.
        """
        idx = _row_indices(indices, self.n_rows)
        root, rows = self.origin()
        if rows is not None:
            idx = rows[idx]
        out = DataTable(
            schema=self.schema,
            columns=_Gathered(root.columns, idx),
            levels=dict(self.levels),
            source=self.source,
        )
        out._root, out._rows = root, idx
        return out


class _Gathered(Mapping):
    """A resample's columns: its root's columns at its rows, all gathered
    the first time any one is read. Names, their order and their count
    come from the root without a gather."""

    def __init__(self, root_columns: Mapping[str, np.ndarray], rows: np.ndarray):
        self._root_columns = root_columns
        self._rows = rows
        self._columns = None

    def __getitem__(self, name: str) -> np.ndarray:
        if self._columns is None:
            self._columns = {n: col[self._rows] for n, col in self._root_columns.items()}
        return self._columns[name]

    def __iter__(self):
        return iter(self._root_columns)

    def __len__(self) -> int:
        return len(self._root_columns)

    def __contains__(self, name) -> bool:
        return name in self._root_columns


def _row_indices(indices, n_rows: int) -> np.ndarray:
    """indices as an intp array, once each is known to be a row number in
    0..n_rows-1; ConfigError naming the first that is not."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ConfigError(f"row indices must be a 1-d array, got shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ConfigError(
            f"row index {idx[0].item()!r} at position 0 is not an integer "
            f"(row indices must be integers, got {idx.dtype} values)"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        i = int(np.flatnonzero((idx < 0) | (idx >= n_rows))[0])
        raise ConfigError(
            f"row index {idx[i].item()!r} at position {i} is not a row of a {n_rows}-row table"
        )
    return idx.astype(np.intp, copy=False)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array and each row's index among them, in
    np.unique(rows, axis=0)'s order (first column primary), by one stable
    sort. Rows equal by value are one row, -0.0 and 0.0 included; the first
    of them in row order stands for the rest. Rows are compared a column at
    a time, so no (n, k) boolean temporary is built."""
    perm = np.lexsort(rows.T[::-1])
    ordered = rows[perm]
    starts = np.zeros(rows.shape[0], dtype=bool)
    starts[:1] = True
    for j in range(rows.shape[1]):
        starts[1:] |= ordered[1:, j] != ordered[:-1, j]
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[perm] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _check_delimiter(delimiter) -> None:
    """Reject, before any file is opened, a delimiter the csv module cannot
    use, and two it reads back wrong: a line break splits every row into
    lines, and the quote character merges quoted cells with their
    neighbours."""
    try:
        csv.reader([], delimiter=delimiter)
    except TypeError:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}") from None
    if delimiter in "\r\n":
        raise ConfigError(f"delimiter must not be a line break, got {delimiter!r}")
    if delimiter == '"':
        raise ConfigError(f"delimiter must not be the quote character, got {delimiter!r}")


def load_table(path, schema: TableSchema, delimiter: str = ";") -> DataTable:
    """Read a delimited text file into a DataTable under the given schema.

    Header row required. File columns not named in the schema are ignored;
    schema columns missing from the file are an error. Cell failures are
    reported with the file line number (header is line 1) and column name.

    A file whose schema columns are all numeric is parsed first by numpy's
    C reader; whenever that reader fails or could disagree, the csv reader
    reads the file again and gives the answer or the error.
    """
    _check_delimiter(delimiter)
    wanted = {v.name: v for v in schema.variables if v.role != "ignored"}
    if all(v.kind == "numeric" for v in wanted.values()):
        columns = _load_numeric(path, wanted, delimiter)
        if columns is not None:
            return DataTable(schema=schema, columns=columns, source=str(path))
    return _load_csv(path, schema, delimiter)


def _load_numeric(path, wanted, delimiter: str) -> dict[str, np.ndarray] | None:
    """The wanted columns if np.loadtxt parses every cell of the file to a
    finite float and the rows fit the header; None otherwise.

    Whatever loadtxt parses, float() parses to the same bits, and a row
    whose field count differs from the first row's makes it fail. It
    rejects quotes, underscores and non-ASCII digits, which the csv reader
    may accept, and it parses cells of any length. So a file with a line
    longer than the csv reader's field limit, which might hold a cell that
    reader rejects, goes to the csv reader unread. The checks after
    loadtxt return None where the csv reader would raise: no data rows, a
    field count other than the header's, a missing schema column, or a
    value that is not finite.
    """
    try:
        if _longest_line(path) > csv.field_size_limit():
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh, delimiter=delimiter), [])]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                arr = np.loadtxt(
                    fh, delimiter=delimiter, comments=None, quotechar=None, ndmin=2, dtype=float
                )
    except (OSError, ValueError, csv.Error):
        return None
    if (
        arr.shape[0] == 0
        or arr.shape[1] != len(header)
        or not all(name in header for name in wanted)
        or not np.isfinite(arr).all()
    ):
        return None
    return {name: arr[:, header.index(name)].copy() for name in wanted}


def _longest_line(path) -> int:
    """The bytes in the file's longest line, split at each \\n and \\r: a
    bound on the characters in any one of its cells."""
    widest, last, pos = 0, -1, 0  # widest gap between line ends; last line end
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            b = np.frombuffer(chunk, dtype=np.uint8)
            ends = np.flatnonzero((b == 10) | (b == 13)) + pos
            if ends.size:
                widest = max(widest, int(ends[0] - last), int(np.diff(ends).max(initial=0)))
                last = int(ends[-1])
            pos += len(chunk)
    return max(widest, pos - last) - 1


def _load_csv(path, schema: TableSchema, delimiter: str) -> DataTable:
    """load_table through the csv module, cell by cell: the reference
    reader, the only one that reports errors, and the one for categorical
    columns."""
    _check_delimiter(delimiter)
    wanted = {v.name: v for v in schema.variables if v.role != "ignored"}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read data file {path}: {exc}") from exc
    try:
        with fh:
            records = _records(csv.reader(fh, delimiter=delimiter), path)
            try:
                _, header = next(records)
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
            for line_no, row in records:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {line_no} has {len(row)} fields, header has {len(header)}"
                    )
                lines.append(line_no)
                for name, j in col_index.items():
                    raw[name].append(row[j].strip())
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None

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


def _records(reader, path):
    """The csv reader's records, each with its line number (the header is
    line 1). A record the reader rejects, such as one with a cell longer
    than csv.field_size_limit(), raises DataError naming its line."""
    line_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from None
        yield line_no, row
        line_no += 1


def save_table(table: DataTable, path, delimiter: str = ";") -> None:
    """Write a DataTable back to disk. Loading the result under the same
    schema reproduces the columns and codes exactly.

    Numbers are written with repr and levels by name, _SAVE_CHUNK_ROWS rows
    at a time, column by column; each level is quoted once.
    """
    _check_delimiter(delimiter)
    names = [v.name for v in table.schema.variables if v.name in table.columns]
    levels = {
        name: np.array(_csv_cells(list(lv), delimiter), dtype=object)
        for name, lv in table.levels.items()
    }

    def chunks():
        for s in range(0, table.n_rows, _SAVE_CHUNK_ROWS):
            columns = []
            for name in names:
                col = table.columns[name][s:s + _SAVE_CHUNK_ROWS]
                if name in levels:
                    columns.append(levels[name][col.astype(int) - 1].tolist())
                else:
                    columns.append(_csv_numbers(np.asarray(col, dtype=float), delimiter))
            yield columns

    _write_csv(path, _csv_cells(names, delimiter), chunks(), delimiter)


def _save_curves(path, x_grid: np.ndarray, curves: np.ndarray) -> None:
    """Write (n_u, n_grid, d) outcome curves over an (n_grid, k) treatment
    grid, one ';'-delimited row per curve and grid point: u_index, x1..xk,
    y1..yd. Each curve is one chunk of rows."""
    header = (
        ["u_index"]
        + [f"x{j + 1}" for j in range(x_grid.shape[1])]
        + [f"y{j + 1}" for j in range(curves.shape[2])]
    )
    xs = [_csv_numbers(col, ";") for col in x_grid.T]
    chunks = (
        [[str(i)] * len(x_grid), *xs, *(_csv_numbers(col, ";") for col in curve.T)]
        for i, curve in enumerate(curves)
    )
    _write_csv(path, _csv_cells(header, ";"), chunks, ";")


def _csv_numbers(values: np.ndarray, delimiter: str) -> list[str]:
    """A float column's cells: each value's repr, quoted where it holds the
    delimiter."""
    return _csv_cells(list(map(repr, values.tolist())), delimiter)


def _csv_cells(texts: list[str], delimiter: str) -> list[str]:
    """texts as csv.writer writes them by default (QUOTE_MINIMAL): a cell
    holding the delimiter, a quote, a carriage return or a line feed is
    quoted, with its quotes doubled."""
    special = (delimiter, '"', "\r", "\n")
    joined = "".join(texts)
    if not any(ch in joined for ch in special):
        return texts
    return [
        '"' + t.replace('"', '""') + '"' if any(ch in t for ch in special) else t
        for t in texts
    ]


def _write_csv(path, header: list[str], chunks, delimiter: str) -> None:
    """Write the header row, then every chunk of rows, as csv.writer writes
    them: cells already quoted by _csv_cells, a row's lone empty cell as two
    quotes, and \\r\\n after each row. A chunk is a list of equally long
    columns of cells, written with one join."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for columns in chain([[[cell] for cell in header]], chunks):
            if len(columns) == 1:
                columns = [[cell or '""' for cell in columns[0]]]
            # csv.writer ends a row of no cells too; only a header can be one.
            rows = list(map(delimiter.join, zip(*columns))) if columns else [""]
            if rows:
                fh.write("\r\n".join(rows) + "\r\n")
