import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.datafiles import data_path
from grasp.energy import (
    HOURS_PER_YEAR,
    EnergyProfile,
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
