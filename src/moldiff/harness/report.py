"""Results table (CSV) and the three scatter plots (SVG)."""

from __future__ import annotations

import csv
from pathlib import Path
from xml.etree import ElementTree as ET

from .metrics import MetricsReport

# results.csv's columns, in order, each with the type it reads back as
COLUMN_TYPES = {"experiment": str, "latent_z": int, "validity": float, "uniqueness": float,
                "novelty": float, "latent_mmd": float, "ae_seconds": float,
                "flow_seconds": float, "params": int, "count": int}
CSV_COLUMNS = list(COLUMN_TYPES)


class OutputUnwritable(OSError):
    pass


class ResultsUnreadable(ValueError):
    """A results.csv that cannot be read back into reports."""


def write_results_csv(path, reports: list[MetricsReport]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in reports:
                writer.writerow([kind(getattr(r, c)) for c, kind in COLUMN_TYPES.items()])
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc}") from exc


def _read_row(path, line: int, row: dict) -> MetricsReport:
    """The report in a row of results.csv; ``line`` is its line in the file."""
    if None in row:
        # DictReader files a long row's extra values under the key None
        raise ResultsUnreadable(f"{path}, line {line}: {len(row[None])} values past the header")
    values = {}
    for column, kind in COLUMN_TYPES.items():
        try:
            values[column] = kind(row[column])
        except (TypeError, ValueError):
            # DictReader gives None for a column a short row lacks
            got = "no value" if row[column] is None else f"{row[column]!r} is not {kind.__name__}"
            raise ResultsUnreadable(f"{path}, line {line}, column {column!r}: {got}") from None
    return MetricsReport(**values)


def read_results_csv(path) -> list[MetricsReport]:
    """The reports of a results.csv. A file that cannot be read, is empty,
    lacks a column or has no rows, a row with more values than the header,
    and a value that does not parse as its column's type, raise
    :class:`ResultsUnreadable`, naming the file and, for a row, its line
    and, for a value, its column. A file written before the
    ``latent_mmd`` column existed reads it as NaN."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ResultsUnreadable(f"{path} is empty")
            missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames and c != "latent_mmd"]
            if missing:
                raise ResultsUnreadable(f"{path}: no column {missing[0]!r}")
            reports = [_read_row(path, reader.line_num, {"latent_mmd": "nan", **row})
                       for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ResultsUnreadable(f"cannot read {path}: {exc}") from exc
    if not reports:
        raise ResultsUnreadable(f"{path}: no rows")
    return reports


def _scatter_svg(points: list[tuple[float, float, str]], xlabel: str,
                 ylabel: str) -> ET.Element:
    """800x600 scatter with axes, ticks, and one circle per point."""
    width, height = 800, 600
    left, right, top, bottom = 90, 40, 40, 70
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height),
                     viewBox=f"0 0 {width} {height}")
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width),
                  height=str(height), fill="white")

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    axis = {"stroke": "black", "stroke-width": "1"}
    ET.SubElement(svg, "line", x1=str(left), y1=str(height - bottom),
                  x2=str(width - right), y2=str(height - bottom), **axis)
    ET.SubElement(svg, "line", x1=str(left), y1=str(top),
                  x2=str(left), y2=str(height - bottom), **axis)

    for k in range(5):
        xv = x_lo + (x_hi - x_lo) * k / 4
        yv = y_lo + (y_hi - y_lo) * k / 4
        ET.SubElement(svg, "line", x1=str(sx(xv)), y1=str(height - bottom),
                      x2=str(sx(xv)), y2=str(height - bottom + 5), **axis)
        tick = ET.SubElement(svg, "text", x=str(sx(xv)), y=str(height - bottom + 20),
                             fill="black", attrib={"text-anchor": "middle",
                                                   "font-size": "12"})
        tick.text = f"{xv:.4g}"
        ET.SubElement(svg, "line", x1=str(left - 5), y1=str(sy(yv)),
                      x2=str(left), y2=str(sy(yv)), **axis)
        tick = ET.SubElement(svg, "text", x=str(left - 8), y=str(sy(yv) + 4),
                             fill="black", attrib={"text-anchor": "end",
                                                   "font-size": "12"})
        tick.text = f"{yv:.4g}"

    xt = ET.SubElement(svg, "text", x=str((left + width - right) / 2),
                       y=str(height - 20), fill="black",
                       attrib={"text-anchor": "middle", "font-size": "16"})
    xt.text = xlabel
    yt = ET.SubElement(svg, "text", x="25", y=str((top + height - bottom) / 2),
                       fill="black",
                       attrib={"text-anchor": "middle", "font-size": "16",
                               "transform": f"rotate(-90 25 {(top + height - bottom) / 2})"})
    yt.text = ylabel

    for x, y, label in points:
        ET.SubElement(svg, "circle", cx=str(sx(x)), cy=str(sy(y)), r="6",
                      fill="steelblue", stroke="black", attrib={"fill-opacity": "0.8"})
        txt = ET.SubElement(svg, "text", x=str(sx(x) + 8), y=str(sy(y) - 8),
                            fill="black", attrib={"font-size": "11"})
        txt.text = label
    return svg


def _write_svg(path, element: ET.Element) -> None:
    try:
        ET.ElementTree(element).write(path, encoding="unicode", xml_declaration=True)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc}") from exc


def write_report(out_dir, reports: list[MetricsReport]) -> list[Path]:
    """Emit results.csv plus the three scatter figures; returns the paths."""
    if not reports:
        raise ValueError("need at least one report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "results.csv"]
    write_results_csv(paths[0], reports)

    def tag(r: MetricsReport) -> str:
        return f"{r.experiment} z={r.latent_z}"

    quality = [(float(r.params), r.validity + r.uniqueness + r.novelty, tag(r))
               for r in reports]
    vu = [(r.validity, r.uniqueness, tag(r)) for r in reports]
    times = [(r.ae_seconds, r.flow_seconds, tag(r)) for r in reports]

    figures = [
        ("fig_params_vs_quality.svg", quality, "trainable parameters",
         "validity + uniqueness + novelty (%)"),
        ("fig_validity_vs_uniqueness.svg", vu, "validity (%)", "uniqueness (%)"),
        ("fig_training_times.svg", times, "autoencoder training time (s)",
         "flow training time (s)"),
    ]
    for name, pts, xl, yl in figures:
        path = out / name
        _write_svg(path, _scatter_svg(pts, xl, yl))
        paths.append(path)
    return paths
