"""The README's examples still run: the library quickstart and the example
experiment config."""
import json
import re
from pathlib import Path

import numpy as np

from qelmkit import ExperimentConfig, Pipeline

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
