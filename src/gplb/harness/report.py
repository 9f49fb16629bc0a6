"""Report rows, CSV/JSON rendering, and schema-checked reading.

The CSV schema is fixed: its columns are the fields of ``RiskRow``, in
order (``COLUMNS``).  ``lemma4_bound`` is the coordinatewise floor sum_k
T_k AND 1/n of the row's family and ``thm2_floor`` the closed-form
envelope C_d'^2 n^{-(2+d)/(2+2d)}; both column names are wire tokens kept
stable for downstream consumers.  Floats print with 17 significant digits so parsing
a report back reproduces every value bit-for-bit; inapplicable cells are
empty (CSV) or null (JSON).  Two comment blocks precede the CSV header:
the schema version and the fully resolved configuration, making every
report self-describing and reruns byte-comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from ..errors import ContractError, SchemaVersionError

__all__ = [
    "SCHEMA_VERSION",
    "COLUMNS",
    "RiskRow",
    "RiskReport",
    "render_csv",
    "render_json",
    "render",
    "emit_report",
    "read_report",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RiskRow:
    """One report row; None marks a column the row's study does not fill."""

    d: int | None = None
    n: float | None = None
    k: int | None = None
    m: int | None = None
    spectrum_id: str = ""
    K: int | None = None
    exact_risk: float | None = None
    mc_risk: float | None = None
    mc_stderr: float | None = None
    lemma4_bound: float | None = None
    thm2_floor: float | None = None
    contraction_prob: float | None = None
    radius: float | None = None
    slope: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if any(ch in self.spectrum_id for ch in ",\n\r"):
            raise ContractError("spectrum_id must not contain commas or line breaks")


COLUMNS = tuple(f.name for f in fields(RiskRow))
# each column's cell type, read from its annotation string ("int | None" gives int)
_CELL_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type.split()[0]] for f in fields(RiskRow)}


@dataclass
class RiskReport:
    """Rows plus the resolved configuration and any study-level fit summary."""

    rows: list[RiskRow] = field(default_factory=list)
    config_items: list[tuple[str, str]] = field(default_factory=list)
    fits: dict | None = None


def format_cell(value) -> str:
    """A report cell or config value: floats with 17 significant digits, tuples comma-joined."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(format_cell(v) for v in value)
    return str(value)


def render_csv(report: RiskReport) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    for key, value in report.config_items:
        lines.append(f"# config {key}={value}")
    lines.append(",".join(COLUMNS))
    for row in report.rows:
        lines.append(",".join(format_cell(getattr(row, col)) for col in COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(report: RiskReport) -> str:
    # each row object is what dataclasses.asdict would give, without its deep copy
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(report.config_items),
        "columns": list(COLUMNS),
        "rows": [{col: getattr(row, col) for col in COLUMNS} for row in report.rows],
        "fits": report.fits,
    }
    return json.dumps(payload, indent=2) + "\n"


def render(report: RiskReport, format: str) -> str:
    """The report's text in ``format``, "csv" or "json"."""
    if format == "csv":
        return render_csv(report)
    if format == "json":
        return render_json(report)
    raise ContractError(f"format must be 'csv' or 'json', got {format!r}")


def emit_report(report: RiskReport, path: str, format: str = "csv") -> None:
    """Write the report to ``path`` in the requested format."""
    _write_text(render(report, format), path)


def _write_text(text: str, path: str) -> None:
    """Write a report's text, or verify's lines, to ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc


def _parse_cell(column: str, text: str):
    cast = _CELL_TYPES[column]
    if cast is str:
        return text
    return None if text == "" else cast(text)


def _read_csv(text: str) -> RiskReport:
    version = None
    config_items: list[tuple[str, str]] = []
    header = None
    rows: list[RiskRow] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("schema_version="):
                found = body.split("=", 1)[1]
                try:
                    version = int(found)
                except ValueError:
                    raise SchemaVersionError(found=found, supported=SCHEMA_VERSION) from None
            elif body.startswith("config "):
                key, _, value = body[len("config "):].partition("=")
                config_items.append((key, value))
            continue
        if header is None:
            header = tuple(line.split(","))
            if header != COLUMNS:
                raise SchemaVersionError(found=version, supported=SCHEMA_VERSION)
            continue
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ContractError(f"malformed report row with {len(cells)} cells: {line!r}")
        rows.append(RiskRow(**{c: _parse_cell(c, v) for c, v in zip(COLUMNS, cells)}))
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(found=version, supported=SCHEMA_VERSION)
    return RiskReport(rows=rows, config_items=config_items, fits=None)


def _read_json(text: str) -> RiskReport:
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION or payload.get("columns") != list(COLUMNS):
        raise SchemaVersionError(found=version, supported=SCHEMA_VERSION)
    rows = []
    for row in payload.get("rows", []):
        if not (isinstance(row, dict) and row.keys() <= set(COLUMNS)):
            raise ContractError(f"malformed report row: {row!r}")
        rows.append(RiskRow(**row))
    config_items = list(payload.get("config", {}).items())
    return RiskReport(rows=rows, config_items=config_items, fits=payload.get("fits"))


def read_report(path: str) -> RiskReport:
    """Parse a report emitted by this module, checking the schema version."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise OSError(f"failed to read report from {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _read_json(text)
    return _read_csv(text)
