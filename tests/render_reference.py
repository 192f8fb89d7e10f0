"""The per-cell table renderer, kept as the reference for ``cli.render_table``.

It formats one cell per Python call: floats by ``f"{x + 0.0:.12g}"``,
complex numbers by their own 12-digit rule, integers and strings by
``str``; JSON cells are ``json.dumps`` of the ``_round12`` value.
:func:`render` gives the whole text that ``render_table`` writes for the
same columns, without its ``log 2`` cap check.
"""

import json

import numpy as np

from cvdistill.cli import VALUE_KEYS

# json.dumps spells the non-finite floats that repr gives as nan and inf
JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 folds negative zero


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return format_float(z.real)
    return f"{format_float(z.real)}{z.imag:+.12g}j"


def cells(values, fmt: str) -> list[str]:
    # one column's cells, by dtype: CSV text, or JSON literals equal to
    # json.dumps of what _round12 and format_complex give
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind == "f":
        text = list(map(format_float, values.tolist()))
        return text if fmt == "csv" else [JSON_FLOATS.get(v, v) for v in map(repr, map(float, text))]
    text = list(map(format_complex if values.dtype.kind == "c" else str, values.tolist()))
    return text if fmt == "csv" else list(map(json.dumps, text))


def json_object(row: dict) -> str:
    # one row as json.dumps(..., indent=2, sort_keys=True) lays it out inside a list
    return "  {\n" + ",\n".join(f'    "{key}": {row[key]}' for key in sorted(row)) + "\n  }"


def render_rows(columns: dict, header: tuple[str, ...], fmt: str, rows: slice) -> str:
    table = {key: cells(columns[key][rows], fmt) for key in header}
    errors = columns.get("error")
    tagged = [] if errors is None else [(i, tag) for i, tag in enumerate(errors[rows]) if tag]
    if fmt == "csv":
        for i, tag in tagged:  # null row: value cells empty, the error tag lands in delta_e
            for key in VALUE_KEYS:
                table[key][i] = ""
            table["delta_e"][i] = tag
        return "\n".join(map(",".join, zip(*table.values()))) + "\n"
    template = json_object(dict.fromkeys(header, "%s"))
    text = [template % row for row in zip(*(table[key] for key in sorted(header)))]
    for i, tag in tagged:  # null row: null values and an "error" key
        doc = {key: table[key][i] for key in header}
        text[i] = json_object({**doc, **dict.fromkeys(VALUE_KEYS, "null"), "error": json.dumps(tag)})
    return ",\n".join(text)


def render(columns: dict, header: tuple[str, ...], fmt: str) -> str:
    """The text of the whole table, as ``render_table`` writes it."""
    rows = render_rows(columns, header, fmt, slice(None)) if len(columns["delta_e"]) else ""
    if fmt == "csv":
        return ",".join(header) + "\n" + rows
    return "[\n" + rows + "\n]\n"
