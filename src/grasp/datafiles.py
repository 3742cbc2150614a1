"""Bundled data files and energy-directory loading."""

import glob
import os

from .energy import build_profile, load_profile_csv, parse_nsrdb_csv, profile_csv_header_kind
from .errors import ValidationError
from .model import ControllerConfig


def data_path(*parts):
    """Absolute path of a bundled data file."""
    return os.path.join(os.path.dirname(__file__), "data", *parts)


def load_site_csv(path, config):
    """Load one site CSV into a profile named after the file's stem.

    A single `wh` column is a direct profile; anything else is weather run
    through the configured panel model.
    """
    site = os.path.splitext(os.path.basename(path))[0]
    if profile_csv_header_kind(path) == "profile":
        return load_profile_csv(path, site=site)
    weather = parse_nsrdb_csv(path, temp_column=config.nsrdb_temp_column, ghi_column=config.nsrdb_ghi_column)
    return build_profile(weather, panel=config.panel, site=site)


def load_profiles_dir(path, config=None):
    """Load every site CSV in a directory, sorted by file name.

    The two file kinds of `load_site_csv` can be mixed.  The sorted file
    order defines the data-center order.
    """
    if config is None:
        config = ControllerConfig()
    if not os.path.isdir(path):
        raise FileNotFoundError(f"energy directory not found: {path!r}")
    files = sorted(glob.glob(os.path.join(path, "*.csv")))
    if not files:
        raise ValidationError("energy_dir", f"no *.csv files in {path!r}")
    return [load_site_csv(f, config) for f in files]
