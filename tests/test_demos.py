"""Run the demo scripts in-process, so an API change that breaks one
fails the suite.  Demo 05 is left out: it anneals for about 1.4 s, and
test_anneal_golden_output already pins the API it uses."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_constructions_and_profiles",
                                  "02_bound_curves",
                                  "03_blowup_optimizer",
                                  "04_flag_certificates"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
