import pytest

from acouz import harness


def _content_hash(config, workers, out_dir):
    cfg = harness.ExperimentConfig.from_dict({**config, "workers": workers})
    manifest = harness.run(cfg, str(out_dir))
    assert manifest.passed, manifest.assertions
    return manifest.content_hash()


@pytest.mark.parametrize("config", [
    {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
     "params": {"n_samples": 4, "rspec": {"c": 1.0, "s": 0.3}}},
    {"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
     "params": {"impedance": {"kind": "constant"}}},
], ids=["monte_carlo", "acoustic_spectrum"])
def test_same_config_same_checksums(config, tmp_path):
    hashes = {_content_hash(config, workers, tmp_path / f"{workers}_{rep}")
              for workers in (1, 2) for rep in range(2)}
    assert len(hashes) == 1
