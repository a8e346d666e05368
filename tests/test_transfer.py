"""repro.transfer: device variants, calibration, derived registry entries.

The load-bearing assertions of the train-once/deploy-many design
(DESIGN.md D23):

- calibration recovers a pure clock scale exactly and kills the false
  alarms a drifted variant induces, from one short *unlabeled* capture;
- the warp preserves the per-dim invariants the exact-integer K-S
  kernel depends on (monotone order, NaN masks, observed target values);
- derived models publish as ``name@N+cal:LABEL`` registry entries whose
  lineage is verified on load -- tampered or orphaned derivations are
  refused with typed errors, and a served session names its derivation.

That a served derivation replays bit-identically to the scalar oracle
is the equivalence suite's ``cal`` case (``tests/test_equivalence.py``).
"""

import dataclasses
import json

import numpy as np
import pytest
from conftest import shared_calibration
from conftest import shared_tiny_detector as detector_for
from conftest import tiny_scale

from repro.cache import fingerprint as cache_fingerprint
from repro.core.detector import TrainedDetector
from repro.core.model import CalibrationInfo
from repro.errors import ConfigurationError, RegistryError, TrainingError
from repro.serve import ModelRegistry, ServerConfig, serve_in_thread
from repro.serve.client import EddieClient
from repro.serve.registry import model_fingerprint
from repro.transfer import DeviceVariant, calibrate_model

TINY = tiny_scale()


@pytest.fixture(scope="module")
def base():
    return detector_for("sha")


@pytest.fixture(scope="module")
def variant():
    """The drifted device variant: clock x1.02, a 16 KiB L1."""
    return shared_calibration()[0]


@pytest.fixture(scope="module")
def variant_scenario():
    return shared_calibration()[1]


@pytest.fixture(scope="module")
def calibration_capture():
    """One short unlabeled capture of the target device."""
    return shared_calibration()[2]


@pytest.fixture(scope="module")
def calibrated():
    return shared_calibration()[3]


# -- the perturbation model ---------------------------------------------------


class TestDeviceVariant:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="clock_scale"):
            DeviceVariant(clock_scale=0.0)
        with pytest.raises(ConfigurationError, match="gain"):
            DeviceVariant(gain=-1.0)
        with pytest.raises(ConfigurationError, match="l1_kib"):
            DeviceVariant(l1_kib=0)

    def test_identity_changes_nothing(self, base):
        identity = DeviceVariant(name="same")
        assert identity.is_identity and not identity.is_drifted
        scenario = identity.apply(base.source)
        assert scenario.simulator.core == base.source.simulator.core
        assert scenario.receiver == base.source.receiver
        assert scenario.channel == base.source.channel

    def test_drift_semantics(self):
        assert DeviceVariant(clock_scale=1.01).is_drifted
        assert DeviceVariant(lo_drift_hz_per_s=5.0).is_drifted
        assert not DeviceVariant(gain=0.5, l1_kib=16).is_drifted

    def test_apply_perturbs_the_physics(self, base, variant_scenario):
        base_core = base.source.simulator.core
        core = variant_scenario.simulator.core
        assert core.clock_hz == pytest.approx(base_core.clock_hz * 1.02)
        assert core.sample_rate == pytest.approx(
            base_core.sample_rate * 1.02
        )
        assert core.mem.l1.size == 16 * 1024
        assert core.name == f"{base_core.name}+bench"
        # Knobs left at their defaults stay untouched.
        assert variant_scenario.receiver == base.source.receiver
        assert variant_scenario.channel == base.source.channel

    def test_apply_does_not_carry_injections(self, base, variant):
        from repro.programs.mibench import INJECTION_LOOPS
        from repro.programs.workloads import injection_mix

        base.source.simulator.set_loop_injection(
            INJECTION_LOOPS["sha"], injection_mix(4, 4), 1.0
        )
        try:
            scenario = variant.apply(base.source)
            assert not scenario.simulator.engine.loop_injections
        finally:
            base.source.simulator.clear_injections()

    def test_describe_names_every_knob(self):
        text = DeviceVariant(
            name="site7", clock_scale=1.05, gain=0.5, l1_kib=16,
            snr_db_delta=-3.0,
        ).describe()
        assert "site7" in text
        assert "clock x1.05" in text
        assert "gain x0.5" in text
        assert "L1 16 KiB" in text
        assert "SNR -3 dB" in text
        assert DeviceVariant(name="x").describe() == "x: identity"


# -- the calibration pipeline -------------------------------------------------


class TestCalibration:
    def test_recovers_exact_clock_scale(self, calibrated):
        # Peak frequencies are bin-quantized off the sample rate, so a
        # pure clock scale is recoverable to float precision.
        assert calibrated.report.freq_scale == pytest.approx(
            1.02, rel=1e-9
        )
        assert calibrated.report.windows > 0
        assert calibrated.report.snapped_fraction > 0.9

    def test_derivation_provenance(self, base, variant, calibrated):
        model = calibrated.model
        assert model.is_derived
        assert base.model.calibration is None  # original untouched
        cal = model.calibration
        assert cal.base_fingerprint == cache_fingerprint(
            "eddie-model", base.model
        )
        assert cal.variant == variant.describe()
        assert cal.windows == calibrated.report.windows

    def test_sample_rate_follows_target_exactly(
        self, calibrated, calibration_capture
    ):
        # The streaming engine refuses rate mismatches with *strict*
        # equality, so the derived model must carry the target capture's
        # exact rate, not base_rate * scale (an ulp off).
        assert (
            calibrated.model.sample_rate
            == calibration_capture.iq.sample_rate
        )

    def test_warp_is_monotone_and_mask_preserving(self, base, calibrated):
        for name, profile in base.model.profiles.items():
            warped = calibrated.model.profiles[name].reference
            assert warped.shape == profile.reference.shape
            assert np.array_equal(
                np.isnan(warped), np.isnan(profile.reference)
            )
            for dim in profile.test_dims:
                col = profile.reference[:, dim]
                mask = ~np.isnan(col)
                order = np.argsort(col[mask], kind="stable")
                mapped = warped[:, dim][mask][order]
                assert np.all(np.diff(mapped) >= 0)

    def test_calibration_kills_drift_false_alarms(
        self, base, calibrated, variant_scenario
    ):
        seed = TINY.monitor_seed(0) + 9
        uncal = TrainedDetector(base.model, variant_scenario).monitor(
            seed=seed
        )
        cal = TrainedDetector(calibrated.model, variant_scenario).monitor(
            seed=seed
        )
        assert uncal.metrics.n_reports > 0  # drift floods the base model
        assert cal.metrics.n_reports == 0

    def test_refuses_second_order_calibration(
        self, calibrated, calibration_capture
    ):
        with pytest.raises(TrainingError, match="already a derivation"):
            calibrate_model(calibrated.model, calibration_capture)

    def test_refuses_empty_capture(self, base, calibration_capture):
        silence = dataclasses.replace(
            calibration_capture.iq,
            samples=np.zeros(4096, dtype=np.complex128),
        )
        with pytest.raises(TrainingError, match="no spectral lines"):
            calibrate_model(base.model, silence)


class TestCalibrationInfo:
    def test_dict_round_trip(self):
        info = CalibrationInfo(
            base_fingerprint="ab" * 32, method="scale-snap-qmap",
            variant="site7", freq_scale=1.02, windows=128,
            snapped_fraction=0.97,
        )
        assert CalibrationInfo.from_dict(info.to_dict()) == info

    def test_rejects_unknown_fields_and_bad_values(self):
        info = CalibrationInfo(base_fingerprint="ab" * 32)
        raw = dict(info.to_dict(), smuggled=1)
        with pytest.raises(ConfigurationError, match="unknown fields"):
            CalibrationInfo.from_dict(raw)
        with pytest.raises(ConfigurationError):
            CalibrationInfo(base_fingerprint="")
        with pytest.raises(ConfigurationError):
            CalibrationInfo(base_fingerprint="ab" * 32, freq_scale=0.0)
        with pytest.raises(ConfigurationError):
            CalibrationInfo(
                base_fingerprint="ab" * 32, snapped_fraction=1.5
            )


# -- registry-native derivations ----------------------------------------------


@pytest.fixture()
def registry(tmp_path, base, calibrated):
    """A fresh registry holding the base model and its derivation."""
    reg = ModelRegistry(tmp_path / "registry", cache_size=0)
    base_entry = reg.publish(base.model)
    derived_entry = reg.publish_derived(calibrated.model, base_entry)
    return reg, base_entry, derived_entry


class TestDerivedRegistry:
    def test_publish_derived_round_trip(self, registry, calibrated):
        reg, base_entry, derived = registry
        label = model_fingerprint(calibrated.model)[:12]
        assert derived.spec == f"sha@1+cal:{label}"
        assert derived.is_derived
        assert derived.base_fingerprint == base_entry.fingerprint
        for spec in (
            derived.spec,
            f"sha@1+cal:{label[:6]}",  # prefix resolution
            f"sha+cal:{label}",  # latest base version
            f"fp:{derived.fingerprint[:12]}",
        ):
            model, entry = reg.load(spec)
            assert entry.spec == derived.spec
            assert model.is_derived

    def test_latest_never_resolves_to_a_derivation(self, registry):
        reg, base_entry, _ = registry
        assert not reg.resolve("sha@latest").is_derived
        assert not reg.resolve("sha").is_derived
        specs = [e.spec for e in reg.list_entries()]
        assert specs[0] == base_entry.spec  # base sorts first

    def test_publish_refuses_calibrated_model(self, registry, calibrated):
        reg, _, _ = registry
        with pytest.raises(RegistryError, match="publish_derived"):
            reg.publish(calibrated.model)

    def test_publish_derived_refuses_bad_lineage(
        self, registry, base, calibrated
    ):
        reg, base_entry, derived = registry
        with pytest.raises(RegistryError, match="needs a calibrated"):
            reg.publish_derived(base.model, base_entry)
        with pytest.raises(RegistryError, match="immutable"):
            reg.publish_derived(calibrated.model, base_entry)
        with pytest.raises(RegistryError, match="cannot derive"):
            reg.publish_derived(calibrated.model, derived)
        other = reg.publish(detector_for("bitcount").model)
        with pytest.raises(RegistryError, match="calibrated from"):
            reg.publish_derived(calibrated.model, other)

    def test_tampered_sidecar_refused(self, registry):
        reg, _, derived = registry
        sidecar = derived.path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["base_fingerprint"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="tampered") as excinfo:
            reg.load(derived.spec)
        assert excinfo.value.code == "model_corrupt"

    def test_swapped_artifact_refused(self, registry, base):
        # Replace the derivation's artifact with the (uncalibrated)
        # base artifact: the content fingerprint no longer matches.
        reg, base_entry, derived = registry
        derived.path.write_bytes(base_entry.path.read_bytes())
        with pytest.raises(RegistryError, match="fingerprint") as excinfo:
            reg.load(derived.spec)
        assert excinfo.value.code == "model_corrupt"

    def test_orphaned_derivation_refused(self, registry):
        reg, base_entry, derived = registry
        base_entry.path.unlink()
        base_entry.path.with_suffix(".json").unlink()
        with pytest.raises(RegistryError, match="orphaned"):
            reg.load(derived.spec)


# -- serving derivations ------------------------------------------------------


class TestServedDerivation:
    def test_served_session_names_its_derivation(
        self, tmp_path, base, calibrated
    ):
        # Replaying a derivation bit-identically is the equivalence
        # suite's ``cal`` case; here the spec shows in the OPEN ack and
        # in the STATS session listing.
        reg = ModelRegistry(tmp_path / "registry")
        base_entry = reg.publish(base.model)
        derived = reg.publish_derived(calibrated.model, base_entry)
        with serve_in_thread(reg, ServerConfig(max_sessions=4)) as handle:
            host, port = handle.address
            with EddieClient(host, port) as client:
                ack = client.open(derived.spec)
                assert ack["model"]["spec"] == derived.spec
                stats = client.stats()
                specs = [s["model"] for s in stats["sessions"]]
                assert derived.spec in specs
                client.close()
