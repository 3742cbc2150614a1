"""Hourly green-energy profiles.

A site is described either by a weather CSV (hourly dry-bulb temperature
and global horizontal irradiance, 8760 rows) that we push through a small
PV panel model, or by a precomputed profile CSV holding hourly Wh
directly.  Synthetic shapes cover tests and demos.
"""

import csv
import io
import math
import warnings
from itertools import islice

import numpy as np

from .errors import ParseError, ValidationError
from .model import PanelConfig, finite_number

HOURS_PER_YEAR = 8760

SYNTH_SHAPES = ("zero", "constant", "sinusoid")


def valid_energy(value):
    """Whether `value` is a usable energy amount (Wh, or Wh/m^2 of GHI).

    That is a real number, not a bool, finite and >= 0; elementwise for an array.
    """
    if isinstance(value, np.ndarray):
        return np.isfinite(value) & (value >= 0)
    return finite_number(value) and value >= 0


class EnergyProfile:
    """Hourly producible green energy for one site, Wh, one full year."""

    def __init__(self, site, wh):
        wh = np.asarray(wh, dtype=np.float64)
        if wh.shape != (HOURS_PER_YEAR,):
            raise ValidationError("wh", f"profile must have {HOURS_PER_YEAR} hours, got {wh.shape}")
        if not valid_energy(wh).all():
            raise ValidationError("wh", "profile values must be finite and non-negative")
        self.site = site
        self.wh = wh

    def __repr__(self):
        return f"EnergyProfile({self.site!r}, peak={self.wh.max():.1f} Wh)"


def pv_output(ghi_whm2, dry_bulb_c, panel=None):
    """Energy (Wh) one panel produces in each hour of the given weather.

    Takes scalars or equal-length arrays.  Cell temperature is air
    temperature plus irradiance heating; output is linearly derated per
    degree above the reference temperature and never goes negative.
    """
    if panel is None:
        panel = PanelConfig()
    cell_temp = dry_bulb_c + panel.irradiance_heating * ghi_whm2
    derate = 1.0 - panel.temp_coeff_per_c * (cell_temp - panel.reference_temp_c)
    wh = ghi_whm2 * panel.area_m2 * panel.efficiency * derate
    return np.where(wh > 0.0, wh, 0.0)


def _read_year(path, fields, exact=False):
    """Read one year of named float columns from a CSV.

    `fields` maps each field of the returned structured array to its
    header name; with `exact` the header must be exactly those names.
    Blank lines are skipped.  A row whose width differs from the header's
    or whose field is non-numeric raises ParseError naming its line, and so
    does a record `csv` cannot split (a lone `"` opens a quoted field that
    can run past `csv`'s field size limit), naming the line it starts on.
    numpy's C reader takes the rows if it reads every field of them as a
    number; otherwise they are re-read with `float()`'s rules.
    """
    columns = list(fields.values())
    with open(path, newline="", encoding="utf-8") as fh:
        head = csv.reader(fh)
        header = [h.strip() for h in _first_record(path, head) or []]
        if any(c not in header for c in columns) or (exact and header != columns):
            raise ParseError(f"{path}: expected columns {columns}, header has {header}")
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    index = [header.index(c) for c in columns]
    try:
        if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):  # numpy strips them as whitespace, float() does not
            raise ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: "input contained no data"
            values = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        if values.shape[1] != len(header):
            raise ValueError
        values = values[:, index]
    except ValueError:  # re-read row by row, stopping at the first bad row
        reader = csv.reader(io.StringIO(text, newline=""))
        rows, start = [], 1  # `start`: the line the next record starts on
        try:
            for row in reader:
                if row:
                    rows.append((reader.line_num, row))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(f"{path}:{start + head.line_num}: {exc}") from None
        values = []
        for line, row in rows:
            try:
                if len(row) != len(header):
                    raise ValueError
                values.append([float(row[i]) for i in index])
            except ValueError:
                line += head.line_num
                raise ParseError(f"{path}:{line}: expected {len(header)} numeric fields, got {row}") from None
        values = np.array(values, dtype=np.float64).reshape(-1, len(index))
    table = np.empty(len(values), dtype=[(field, np.float64) for field in fields])
    for j, field in enumerate(fields):
        table[field] = values[:, j]
    if len(table) != HOURS_PER_YEAR:
        raise ParseError(f"{path}: expected {HOURS_PER_YEAR} data rows, got {len(table)}")
    return table


def _first_record(path, reader):
    """The header record of a CSV, or None for an empty file.  The first read
    decodes a whole buffer, so bytes that are not UTF-8 in a short file fail here."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _row_error(path, n, problem):
    """ParseError for the `n`-th data row, naming the file line it ends on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        line = next(islice((reader.line_num for row in reader if row), n, None))
    return ParseError(f"{path}:{line}: {problem}")


def parse_nsrdb_csv(path, temp_column="dry_bulb_c", ghi_column="ghi_whm2"):
    """Read one year of hourly weather from a CSV with named columns.

    Returns a structured array with fields `ghi_whm2` and `dry_bulb_c`,
    one row per hour.
    """
    weather = _read_year(path, {"ghi_whm2": ghi_column, "dry_bulb_c": temp_column})
    ghi, temp = weather["ghi_whm2"], weather["dry_bulb_c"]
    bad = ~(valid_energy(ghi) & np.isfinite(temp))
    if bad.any():
        n = int(bad.argmax())
        finite = math.isfinite(ghi[n]) and math.isfinite(temp[n])
        raise _row_error(path, n, f"negative GHI {float(ghi[n])}" if finite else "non-finite weather value")
    return weather


def build_profile(weather, panel=None, site=""):
    """Convert parsed weather into an hourly energy profile."""
    return EnergyProfile(site=site, wh=pv_output(weather["ghi_whm2"], weather["dry_bulb_c"], panel))


def synth_profile(shape, peak_wh):
    """Synthetic year profile.

    Shapes: `zero` (always 0), `constant` (always peak_wh), `sinusoid`
    (half-rectified daily sine, zero at 06:00/18:00, peak_wh at noon).
    """
    if shape not in SYNTH_SHAPES:
        raise ValidationError("shape", f"must be one of {SYNTH_SHAPES}")
    if not valid_energy(peak_wh):
        raise ValidationError("peak_wh", "must be a finite number >= 0")
    if shape == "zero":
        wh = np.zeros(HOURS_PER_YEAR)
    elif shape == "constant":
        wh = np.full(HOURS_PER_YEAR, float(peak_wh))
    else:
        hour_of_day = np.arange(HOURS_PER_YEAR) % 24
        wh = peak_wh * np.maximum(0.0, np.sin(np.pi * (hour_of_day - 6) / 12.0))
    return EnergyProfile(site=f"synth_{shape}", wh=wh)


def load_profile_csv(path, site=""):
    """Read a precomputed profile: header `wh`, 8760 numeric rows."""
    wh = _read_year(path, {"wh": "wh"}, exact=True)["wh"]
    bad = ~valid_energy(wh)
    if bad.any():
        n = int(bad.argmax())
        raise _row_error(path, n, f"profile value {float(wh[n])} is not finite and non-negative")
    return EnergyProfile(site=site, wh=wh)


def profile_csv_text(profile):
    """Serialize a profile in the `wh` CSV format with stable formatting."""
    lines = ["wh"]
    lines += ["%.6f" % v for v in profile.wh]
    return "\n".join(lines) + "\n"


def profile_csv_header_kind(path):
    """Peek at a CSV header: 'profile' for wh files, 'weather' otherwise."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = _first_record(path, csv.reader(fh))
    if header is None:
        raise ParseError(f"{path}: empty file")
    return "profile" if [h.strip() for h in header] == ["wh"] else "weather"
