"""Serialize round-trips across every MiBench program (satellite of D18).

The serving registry trusts :mod:`repro.serialize` to be lossless: a
published model must deserialize to the *same* content fingerprint the
publisher recorded, for every real trained model shape -- all ten
MiBench programs, with and without quality gating. The fingerprint is
the same canonical SHA-256 :mod:`repro.cache` uses, so "round-trips
losslessly" and "content addressing works" are one assertion.

Also pins the integrity check itself: saved metadata carries a config
fingerprint that :func:`load_model` verifies, refusing tampered
artifacts while still loading legacy files that predate the field.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import Scale, build_detector
from repro.programs.mibench import BENCHMARKS
from repro.serialize import (
    config_fingerprint,
    load_model,
    load_trace,
    save_model,
    save_trace,
)
from repro.serve.registry import model_fingerprint

TINY = Scale(train_runs=2, clean_runs=1, injected_runs=1, group_sizes=(8, 16))

_DETECTORS = {}


def detector_for(name):
    if name not in _DETECTORS:
        _DETECTORS[name] = build_detector(BENCHMARKS[name](), TINY, source="em")
    return _DETECTORS[name]


def _rewrite_meta(path, mutate):
    """Round-trip the npz with its JSON metadata block mutated."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    mutate(meta)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, meta=json.dumps(meta), **arrays)


class TestModelRoundTrip:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_program_round_trips_to_same_fingerprint(
        self, tmp_path, name
    ):
        model = detector_for(name).model
        path = tmp_path / f"{name}.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert model_fingerprint(loaded) == model_fingerprint(model)
        assert loaded.config == model.config
        assert set(loaded.profiles) == set(model.profiles)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_quality_gated_config_round_trips(self, tmp_path, name):
        model = detector_for(name).model.with_quality_gating(True)
        path = tmp_path / f"{name}-gated.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config.quality_gating is True
        assert loaded.config == model.config
        assert model_fingerprint(loaded) == model_fingerprint(model)
        # Gating flips the config fingerprint: the registry cannot
        # confuse a gated and an ungated publish of the same training.
        assert config_fingerprint(loaded.config) != config_fingerprint(
            detector_for(name).model.config
        )

    def test_tampered_config_fingerprint_is_refused(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(detector_for("bitcount").model, path)

        def tamper(meta):
            meta["config_fingerprint"] = "0" * 64

        _rewrite_meta(path, tamper)
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            load_model(path)

    def test_tampered_config_field_is_refused(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(detector_for("bitcount").model, path)

        def tamper(meta):
            # The stored fingerprint no longer matches the edited config.
            meta["config"]["alpha"] = meta["config"]["alpha"] / 2

        _rewrite_meta(path, tamper)
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            load_model(path)

    def test_file_without_fingerprint_is_refused(self, tmp_path):
        # save_model always records the fingerprint, so a file without
        # one was stripped: with its config edited too, it would load a
        # different detector unchecked.
        path = tmp_path / "stripped.npz"
        save_model(detector_for("bitcount").model, path)

        def strip(meta):
            assert "config_fingerprint" in meta
            del meta["config_fingerprint"]
            meta["config"]["alpha"] = 0.5

        _rewrite_meta(path, strip)
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            load_model(path)

    @pytest.mark.parametrize("tamper", [
        lambda meta: meta.pop("config"),
        lambda meta: meta.pop("regions"),
        lambda meta: meta.pop("energy_reference"),
        lambda meta: meta["config"].update(bogus=1),
        lambda meta: meta.update(regions=5),
        lambda meta: meta["regions"].append(dict(meta["regions"][0])),
    ], ids=[
        "no-config", "no-regions", "no-energy-reference",
        "unknown-config-key", "regions-not-a-list", "region-without-array",
    ])
    def test_malformed_metadata_is_a_configuration_error(
        self, tmp_path, tamper
    ):
        path = tmp_path / "model.npz"
        save_model(detector_for("bitcount").model, path)
        _rewrite_meta(path, tamper)
        with pytest.raises(ConfigurationError, match="malformed model metadata"):
            load_model(path)

    def test_saved_metadata_records_the_config_fingerprint(self, tmp_path):
        model = detector_for("bitcount").model
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["config_fingerprint"] == config_fingerprint(model.config)


class TestTraceRoundTrip:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_program_capture_round_trips_bit_exact(
        self, tmp_path, name
    ):
        detector = detector_for(name)
        trace = detector.source.capture(seed=TINY.monitor_seed(0))
        path = tmp_path / f"{name}.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.iq.samples, trace.iq.samples)
        assert loaded.iq.sample_rate == trace.iq.sample_rate
        assert loaded.iq.t0 == trace.iq.t0
        assert loaded.timeline == trace.timeline
        assert loaded.injected_spans == trace.injected_spans
        assert loaded.fault_spans == trace.fault_spans
