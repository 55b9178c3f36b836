"""The README's examples still run: the library quickstart and the example
experiment config, through the library and through `gen-data`."""
import json
import re
from pathlib import Path

import numpy as np

from qelmkit import ExperimentConfig, Pipeline, cli, elevator, harness

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language: str) -> str:
    """The one fenced block of `language` in the README."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block, found {len(blocks)}"
    return blocks[0]


def test_quickstart_runs_and_its_pipeline_reloads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(readme_block("python"), "README.md", "exec"), namespace)
    row = namespace["train"].feature_matrix()[0]
    want = namespace["pipeline"].predict(row)
    assert np.isfinite(want)
    # the README promises bit-identical predictions after a reload
    assert Pipeline.load(tmp_path / "pipeline.json").predict(row) == want


def test_example_config_builds():
    doc = json.loads(readme_block("json"))
    config = ExperimentConfig(**doc)
    assert config.datasets == doc["datasets"]
    assert config.feature_sets == doc["feature_sets"]
    assert config.combinations == doc["combinations"]


def test_example_config_gen_data_reads_back_exactly(tmp_path, monkeypatch):
    # the reader's checks run on real generator output, and lose nothing of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(readme_block("json"))
    assert cli.main(["gen-data", "--config", "config.json"]) == 0
    doc = json.loads(readme_block("json"))
    days = harness.generate_days(doc["datasets"]["generate"])
    written = sorted(p.name for p in (tmp_path / doc["output_dir"]).glob("*.csv"))
    assert written == sorted(f"{day.label}.csv" for day in days)
    for day in days:
        loaded = elevator.read_dataset_csv(tmp_path / doc["output_dir"] / f"{day.label}.csv")
        assert loaded.label == day.label
        for column in ("starts", "features", "awt", "empty"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(day, column))
