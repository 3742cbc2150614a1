import csv
import glob
import warnings
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.cli import main
from grasp.datafiles import data_path
from grasp.energy import (
    HOURS_PER_YEAR,
    EnergyProfile,
    _read_year,
    _row_error,
    build_profile,
    load_profile_csv,
    parse_nsrdb_csv,
    profile_csv_header_kind,
    profile_csv_text,
    pv_output,
    synth_profile,
    valid_energy,
)
from grasp.errors import ParseError, ValidationError
from grasp.model import PanelConfig


def test_pv_output_at_reference_cell_temp():
    # cell temp = -5 + 0.03 * 1000 = 25 C, exactly the reference: no derate
    assert pv_output(1000.0, -5.0) == 200.0


def test_pv_output_hot_derate():
    # cell temp 65 C, 40 above reference: derate 1 - 0.005 * 40 = 0.8
    assert pv_output(1000.0, 35.0) == pytest.approx(160.0)


def test_pv_output_floors_at_zero():
    assert pv_output(0.0, 20.0) == 0.0
    assert pv_output(500.0, 500.0) == 0.0  # absurd heat, clamped


def test_pv_output_panel_override():
    panel = PanelConfig(area_m2=2.0, efficiency=0.1, temp_coeff_per_c=0.0)
    assert pv_output(800.0, 10.0, panel) == pytest.approx(160.0)


def test_profile_validation():
    with pytest.raises(ValidationError):
        EnergyProfile("x", np.zeros(100))
    bad = np.zeros(HOURS_PER_YEAR)
    bad[7] = -1.0
    with pytest.raises(ValidationError):
        EnergyProfile("x", bad)
    bad[7] = np.nan
    with pytest.raises(ValidationError):
        EnergyProfile("x", bad)


def test_synth_shapes():
    zero = synth_profile("zero", 50.0)
    assert zero.wh.sum() == 0.0
    const = synth_profile("constant", 50.0)
    assert np.all(const.wh == 50.0)
    sin = synth_profile("sinusoid", 120.0)
    assert sin.wh[6] == 0.0
    assert sin.wh[12] == pytest.approx(120.0)
    assert sin.wh[20] == 0.0  # night is rectified away
    assert np.all(sin.wh >= 0.0)
    with pytest.raises(ValidationError):
        synth_profile("sawtooth", 1.0)
    with pytest.raises(ValidationError):
        synth_profile("constant", -1.0)


def weather_csv(tmp_path, rows, header="hour,dry_bulb_c,ghi_whm2"):
    p = tmp_path / "site.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(p)


def full_year_rows():
    return ["%d,%g,%g" % (h, 10.0 + (h % 24), 100.0 * ((h % 24) == 12)) for h in range(HOURS_PER_YEAR)]


def test_parse_weather_round_trip(tmp_path):
    path = weather_csv(tmp_path, full_year_rows())
    weather = parse_nsrdb_csv(path)
    assert len(weather) == HOURS_PER_YEAR
    assert weather["ghi_whm2"][12] == 100.0
    assert weather["dry_bulb_c"][12] == 22.0
    profile = build_profile(weather, site="roundtrip")
    assert profile.wh[12] == pytest.approx(pv_output(100.0, 22.0))
    assert profile.wh[13] == 0.0


def test_parse_weather_missing_column(tmp_path):
    path = weather_csv(tmp_path, full_year_rows(), header="hour,temp,ghi_whm2")
    with pytest.raises(ParseError, match="dry_bulb_c"):
        parse_nsrdb_csv(path)


def test_parse_weather_bad_value_points_at_line(tmp_path):
    rows = full_year_rows()
    rows[2] = "2,oops,50"
    with pytest.raises(ParseError, match=":4:"):
        parse_nsrdb_csv(weather_csv(tmp_path, rows))


def test_parse_weather_line_counts_blank_lines(tmp_path):
    rows = full_year_rows()
    rows[5] = "5,oops,50"
    rows.insert(3, "")
    # header, three rows, the blank line, two rows: the bad row is line 8
    with pytest.raises(ParseError, match=":8:"):
        parse_nsrdb_csv(weather_csv(tmp_path, rows))


def test_parse_weather_negative_ghi(tmp_path):
    rows = full_year_rows()
    rows[0] = "0,5,-1"
    with pytest.raises(ParseError, match="negative"):
        parse_nsrdb_csv(weather_csv(tmp_path, rows))


def test_parse_weather_row_count(tmp_path):
    with pytest.raises(ParseError, match="8760"):
        parse_nsrdb_csv(weather_csv(tmp_path, full_year_rows()[:100]))


def test_profile_csv_round_trip(tmp_path):
    profile = synth_profile("sinusoid", 75.0)
    p = tmp_path / "profile.csv"
    p.write_text(profile_csv_text(profile))
    again = load_profile_csv(str(p), site="again")
    assert np.allclose(again.wh, profile.wh, atol=5e-7)
    assert profile_csv_header_kind(str(p)) == "profile"


def test_profile_csv_rejects(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("watts\n1\n")
    with pytest.raises(ParseError):
        load_profile_csv(str(p))
    assert profile_csv_header_kind(str(p)) == "weather"
    p.write_text("wh\n" + "1\n" * 12)
    with pytest.raises(ParseError, match="8760"):
        load_profile_csv(str(p))
    p.write_text("wh\n" + "1\n" * (HOURS_PER_YEAR - 1) + "-3\n")
    with pytest.raises(ParseError):
        load_profile_csv(str(p))


def test_profile_csv_names_line_of_bad_value(tmp_path):
    p = tmp_path / "bad.csv"
    for bad in ("nan", "-0.5", "inf"):
        p.write_text("wh\n" + "1\n" * 40 + bad + "\n" + "1\n" * (HOURS_PER_YEAR - 41))
        with pytest.raises(ParseError, match=":42: profile value"):
            load_profile_csv(str(p))


def test_valid_energy():
    for ok in (0, 0.0, 3, 2.5, np.float64(7.0), np.int64(2)):
        assert valid_energy(ok)
    for bad in (True, False, -1, -0.5, float("nan"), float("inf"), "3", None, [1.0]):
        assert not valid_energy(bad)
    assert valid_energy(np.array([0.0, 1.0, -1.0, np.nan, np.inf])).tolist() == [True, True, False, False, False]


def _scalar_pv(ghi, temp, panel):
    # the per-hour panel model in plain Python floats
    cell_temp = temp + panel.irradiance_heating * ghi
    derate = 1.0 - panel.temp_coeff_per_c * (cell_temp - panel.reference_temp_c)
    return max(0.0, ghi * panel.area_m2 * panel.efficiency * derate)


@pytest.mark.parametrize("path", sorted(glob.glob(data_path("sites", "*.csv"))))
def test_array_pv_output_matches_scalar(path):
    weather = parse_nsrdb_csv(path)
    ghi, temp = weather["ghi_whm2"], weather["dry_bulb_c"]
    for panel in (PanelConfig(), PanelConfig(area_m2=1.7, temp_coeff_per_c=0.2, reference_temp_c=-10.0)):
        per_hour = [(g, t) for g, t in zip(ghi.tolist(), temp.tolist())]
        oracle = np.array([_scalar_pv(g, t, panel) for g, t in per_hour])
        scalar = np.array([pv_output(g, t, panel) for g, t in per_hour])
        array = pv_output(ghi, temp, panel)
        assert array.tobytes() == oracle.tobytes() == scalar.tobytes()
    assert build_profile(weather).wh.tobytes() == pv_output(ghi, temp).tobytes()


WEATHER_BAD = {
    "temp": ["oops", "", "nan", "inf", "-inf", "1e999"],
    "ghi": ["oops", "", "nan", "inf", "1e999", "-1", "-0.25", "-3e-9"],
}
PROFILE_BAD = ["oops", '""', "nan", "inf", "-inf", "-1", "-1e-12", "1,2", "1,"]


@st.composite
def mutated_csv(draw):
    """A full-year weather or profile CSV with one bad row and some blank lines."""
    kind = draw(st.sampled_from(["weather", "profile"]))
    row = draw(st.integers(0, HOURS_PER_YEAR - 1))
    if kind == "weather":
        lines = full_year_rows()
        column = draw(st.sampled_from(["temp", "ghi", "short"]))
        if column == "short":
            lines[row] = "%d,5" % row
        else:
            token = draw(st.sampled_from(WEATHER_BAD[column]))
            temp, ghi = (token, "5") if column == "temp" else ("5", token)
            lines[row] = "%d,%s,%s" % (row, temp, ghi)
        header = "hour,dry_bulb_c,ghi_whm2"
    else:
        lines = ["%.6f" % (h % 7) for h in range(HOURS_PER_YEAR)]
        lines[row] = draw(st.sampled_from(PROFILE_BAD))
        header = "wh"
    blanks = draw(st.lists(st.integers(0, row), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    return kind, header + "\n" + "\n".join(lines) + "\n", 2 + row + len(blanks)


@settings(max_examples=60, deadline=None)
@given(case=mutated_csv())
def test_bad_row_names_its_line(tmp_path_factory, case):
    kind, text, line = case
    path = tmp_path_factory.mktemp("mutated") / "site.csv"
    path.write_text(text)
    read = parse_nsrdb_csv if kind == "weather" else load_profile_csv
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert "%s:%d:" % (path, line) in str(err.value)


def test_bundled_sites_frozen(site_profiles):
    # regression pins on the shipped data; drift means the files changed
    assert [p.site for p in site_profiles][:2] == ["01_elmira_corning_regional", "02_watertown"]
    assert len(site_profiles) == 9
    first = site_profiles[0]
    assert first.wh.sum() == pytest.approx(223119.987275, abs=1e-3)
    assert first.wh.max() == pytest.approx(157.837157, abs=1e-5)
    total = sum(p.wh.sum() for p in site_profiles)
    assert total == pytest.approx(2444152.023240, abs=1e-2)
    for p in site_profiles:
        assert p.wh.min() == 0.0  # every site has dark hours
        assert p.wh.max() > 50.0


def _read_year_oracle(path, fields, exact=False):
    """The reader numpy's C reader replaced: `csv.reader` and `float()`
    column-wise, then a second pass to find the first bad row.  A record
    `csv` cannot split is a ParseError naming the line it starts on."""
    columns = list(fields.values())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            header = [h.strip() for h in next(reader, [])]
            if any(c not in header for c in columns) or (exact and header != columns):
                raise ParseError(f"{path}: expected columns {columns}, header has {header}")
            rows = []
            start = reader.line_num + 1
            for row in reader:
                if row:
                    rows.append(row)
                start = reader.line_num + 1
        except csv.Error as err:
            raise ParseError(f"{path}:{start}: {err}") from None
    getters = [itemgetter(header.index(c)) for c in columns]
    table = np.empty(len(rows), dtype=[(field, np.float64) for field in fields])
    try:
        if any(len(row) != len(header) for row in rows):
            raise ValueError
        for field, get in zip(fields, getters):
            table[field] = list(map(float, map(get, rows)))
    except ValueError:
        for n, row in enumerate(rows):
            try:
                if len(row) != len(header):
                    raise ValueError
                for get in getters:
                    float(get(row))
            except ValueError:
                raise _row_error(path, n, f"expected {len(header)} numeric fields, got {row}") from None
    if len(table) != HOURS_PER_YEAR:
        raise ParseError(f"{path}: expected {HOURS_PER_YEAR} data rows, got {len(table)}")
    return table


READS = {
    "weather": ("hour,dry_bulb_c,ghi_whm2", {"ghi_whm2": "ghi_whm2", "dry_bulb_c": "dry_bulb_c"}, False),
    "profile": ("wh", {"wh": "wh"}, True),
}


def read_both(path, kind):
    """The table bytes or ParseError text of the reader and of its oracle."""
    _, fields, exact = READS[kind]
    out = []
    for read in (_read_year, _read_year_oracle):
        try:
            out.append(read(str(path), fields, exact).tobytes())
        except ParseError as err:
            out.append(str(err))
    return out


def year_rows(kind):
    if kind == "weather":
        return [row.split(",") for row in full_year_rows()]
    return [["%.6f" % (h % 7)] for h in range(HOURS_PER_YEAR)]


def write_year(tmp_path, kind, rows, end="\n"):
    path = tmp_path / ("%s.csv" % kind)
    lines = [READS[kind][0]] + [",".join(row) for row in rows]
    path.write_text(end.join(lines) + end, newline="")
    return path


# pieces of field tokens: float() and numpy's reader differ on quotes,
# underscores, non-ASCII digits and the separators \x1c-\x1f
PIECES = ["0", "1", "7", "-", "+", ".", "e", "_", '"', "#", " ", "\t", "nan", "inf", "Infinity", "1e999",
          "0x10", "\u0661\u0662", "\uff11\uff12", "", "\x1c", "\x1f", "\xa0"]
TOKENS = st.lists(st.sampled_from(PIECES), max_size=3).map("".join)


@st.composite
def year_changes(draw):
    """Changes to a full-year weather or `wh` file, kept small so a failing
    example prints the changes, not the file."""
    kind = draw(st.sampled_from(sorted(READS)))
    width = 3 if kind == "weather" else 1
    edits = draw(st.lists(
        st.tuples(st.integers(0, HOURS_PER_YEAR - 1), st.sampled_from(["field", "extra", "missing"]),
                  st.integers(0, width - 1), TOKENS),
        max_size=4,
    ))
    lines = draw(st.lists(st.tuples(st.integers(0, HOURS_PER_YEAR), st.sampled_from(["", " ", "\t", " \t "])),
                          max_size=3))
    changes = dict(
        dated=kind == "weather" and draw(st.booleans()),  # a non-numeric hour column
        edits=edits,
        extra_row=draw(st.booleans()),
        lines=lines,
    )
    return kind, draw(st.sampled_from(["\n", "\r\n", "\r"])), changes


def changed_year(kind, dated, edits, extra_row, lines):
    rows = year_rows(kind)
    if dated:
        for row in rows:
            row[0] = "2001-%s" % row[0]
    for at, change, column, token in edits:
        row = rows[at]
        if change == "field" and row:
            row[min(column, len(row) - 1)] = token
        elif change == "extra":
            row.append(token)
        elif row:
            row.pop()
    if extra_row:
        rows.append(list(rows[-1]))  # an 8761st row
    for at, line in lines:
        rows.insert(at, [line])
    return rows


@settings(max_examples=80, deadline=None)
@given(case=year_changes())
def test_reader_equals_column_wise_oracle(tmp_path_factory, case):
    kind, end, changes = case
    path = write_year(tmp_path_factory.mktemp("year"), kind, changed_year(kind, **changes), end)
    fast, oracle = read_both(path, kind)
    assert fast == oracle


@pytest.mark.parametrize("kind", sorted(READS))
def test_reader_names_the_line_a_lone_quote_opens(tmp_path, kind):
    """The quoted field runs past `csv`'s field size limit: a ParseError
    naming the line the record starts on, not a `csv.Error`."""
    rows = year_rows(kind)
    rows[5][0] = '"' + "0" * csv.field_size_limit()
    path = write_year(tmp_path, kind, rows)
    fast, oracle = read_both(path, kind)
    assert fast == oracle
    assert fast.startswith("%s:7: " % path) and "field limit" in fast


# inputs numpy's reader refuses and float() reads: (kind, column, field, token, value)
FALLBACK_READS = {
    "quoted": ("profile", 0, "wh", '"2.5"', 2.5),
    "underscore": ("profile", 0, "wh", "1_0.5", 10.5),
    "arabic-indic digits": ("weather", 1, "dry_bulb_c", "\u0661\u0662", 12.0),
    "fullwidth digits": ("weather", 2, "ghi_whm2", "\uff11\uff12", 12.0),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_READS))
def test_reader_falls_back_to_float_rules(tmp_path, name):
    kind, column, field, token, value = FALLBACK_READS[name]
    rows = year_rows(kind)
    rows[5][column] = token
    path = write_year(tmp_path, kind, rows)
    fast, oracle = read_both(path, kind)
    assert fast == oracle
    assert _read_year(str(path), *READS[kind][1:])[field][5] == value


def test_reader_takes_a_non_numeric_unread_column(tmp_path):
    rows = year_rows("weather")
    numeric = write_year(tmp_path, "weather", rows)
    fields = READS["weather"][1]
    expected = _read_year(str(numeric), fields).tobytes()
    for row in rows:
        row[0] = "2001-%s" % row[0]
    path = write_year(tmp_path, "weather", rows)
    assert read_both(path, "weather") == [expected, expected]


@pytest.mark.parametrize(
    "line, problem",
    [
        ("5,14.5,0,", "trailing comma"),
        ("5,14.5\x1c,0", "a separator numpy's reader strips as whitespace"),
        ("  ", "whitespace-only line"),
    ],
)
def test_reader_rejects_what_float_rejects(tmp_path, line, problem):
    rows = year_rows("weather")
    rows[5] = line.split(",")
    path = write_year(tmp_path, "weather", rows)
    fast, oracle = read_both(path, "weather")
    assert fast == oracle
    assert fast.startswith("%s:7: expected 3 numeric fields" % path), problem


@pytest.mark.parametrize("kind", sorted(READS))
@pytest.mark.parametrize("body", ["", "\n\n", "\r\n\r\n"])
def test_header_only_file_fails_cleanly(tmp_path, kind, body):
    path = tmp_path / ("%s.csv" % kind)
    path.write_text(READS[kind][0] + "\n" + body, newline="")
    read = parse_nsrdb_csv if kind == "weather" else load_profile_csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="expected 8760 data rows, got 0"):
            read(str(path))
        fast, oracle = read_both(path, kind)
        assert fast == oracle
    assert caught == []


@pytest.mark.parametrize("kind", sorted(READS))
def test_validate_header_only_file_exits_1_without_warning(tmp_path, capsys, kind):
    path = tmp_path / ("%s.csv" % kind)
    path.write_text(READS[kind][0] + "\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--energy", str(path)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: %s: expected 8760 data rows, got 0\n" % path


def test_reader_rejects_rows_all_wider_than_the_header(tmp_path):
    path = write_year(tmp_path, "weather", [row + ["0"] for row in year_rows("weather")])
    fast, oracle = read_both(path, "weather")
    assert fast == oracle
    assert fast.startswith("%s:2: expected 3 numeric fields" % path)
