"""The committed studies keep running as the package changes."""

import csv
import importlib.util
import os
import sys

STUDIES = os.path.join(os.path.dirname(__file__), "..", "studies")


def load_study(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"study_{name}", os.path.join(STUDIES, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_readings_study_writes_one_row_per_reading(tmp_path, monkeypatch):
    readings = load_study("readings", monkeypatch)
    out = tmp_path / "readings.csv"
    # h_on=local brings its baseline, the default reading: 2 readings
    assert readings.main(["--out", str(out), "--seeds", "1", "--rounds", "3",
                          "--hidden", "8", "--readings", "h_on=local",
                          "--processes", "1"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == readings.COLUMNS
    assert [row[0] for row in rows[1:]] == ["fed_ncl default", "h_on=local"]
