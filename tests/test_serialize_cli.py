"""Tests for model persistence (repro.serialize) and the CLI (repro.cli)."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.model import EddieConfig, EddieModel, RegionProfile
from repro.errors import ConfigurationError
from repro.serialize import load_model, save_model


def tiny_model() -> EddieModel:
    ref_a = np.full((30, 4), np.nan)
    ref_a[:, 0] = 1000.0
    ref_b = np.full((25, 4), np.nan)
    ref_b[:, 0] = 2000.0
    ref_b[:10, 1] = 4000.0
    cfg = EddieConfig(max_peaks=4, group_sizes=(8, 16))
    return EddieModel(
        program_name="tiny",
        config=cfg,
        profiles={
            "loop:A": RegionProfile("loop:A", ref_a, 1, 8),
            "loop:B": RegionProfile("loop:B", ref_b, 2, 16),
        },
        successors={"loop:A": ["loop:B"], "loop:B": []},
        initial_regions=["loop:A"],
        sample_rate=5e6,
    )


class TestSerialize:
    def test_round_trip(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.program_name == "tiny"
        assert loaded.sample_rate == 5e6
        assert loaded.config == model.config
        assert set(loaded.profiles) == {"loop:A", "loop:B"}
        for name in model.profiles:
            original = model.profiles[name]
            restored = loaded.profiles[name]
            assert restored.num_peaks == original.num_peaks
            assert restored.group_size == original.group_size
            np.testing.assert_array_equal(
                restored.reference, original.reference
            )
        assert loaded.successors == model.successors
        assert loaded.initial_regions == model.initial_regions

    def test_round_trip_monitoring_equivalence(self, tmp_path):
        """A loaded model must monitor identically to the original."""
        from repro.core.monitor import Monitor

        model = tiny_model()
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)

        rng = np.random.default_rng(0)
        peaks = np.full((60, 4), np.nan)
        peaks[:30, 0] = 1000.0
        peaks[30:, 0] = 1500.0  # anomalous half
        times = np.arange(60) * model.hop_duration
        a = Monitor(model).run_peaks(peaks, times)
        b = Monitor(loaded).run_peaks(peaks, times)
        assert [r.time for r in a.reports] == [r.time for r in b.reports]
        assert a.tracked == b.tracked

    def test_rejects_non_model_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ConfigurationError):
            load_model(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "model.npz"
        save_model(tiny_model(), path)
        assert path.exists()


class TestTraceSerialize:
    def make_trace(self):
        from repro.arch.config import CoreConfig
        from repro.em.scenario import EmScenario
        from repro.programs.workloads import injection_mix, sharp_loop_program

        scenario = EmScenario.build(
            sharp_loop_program(trips=2000),
            core=CoreConfig.iot_inorder(clock_hz=1e8),
        )
        scenario.simulator.set_loop_injection("L", injection_mix(2, 0), 1.0)
        return scenario.capture(seed=0)

    def test_round_trip(self, tmp_path):
        from repro.serialize import load_trace, save_trace

        trace = self.make_trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.iq.samples, trace.iq.samples)
        assert loaded.iq.sample_rate == trace.iq.sample_rate
        assert loaded.injected_spans == [tuple(s) for s in trace.injected_spans]
        assert loaded.instr_count == trace.instr_count
        assert loaded.injected_instr_count == trace.injected_instr_count
        assert loaded.inputs == trace.inputs
        assert [iv.region for iv in loaded.timeline] == [
            iv.region for iv in trace.timeline
        ]

    def test_rejects_model_file_as_trace(self, tmp_path):
        from repro.serialize import load_trace, save_model

        path = tmp_path / "model.npz"
        save_model(tiny_model(), path)
        with pytest.raises(ConfigurationError):
            load_trace(path)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bitcount" in out
        assert "table1" in out

    def test_train_and_monitor(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        assert cli_main(
            ["train", "sha", "-o", model_path, "--runs", "3", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "trained sha" in out

        assert cli_main(
            ["monitor", "sha", model_path, "--runs", "1", "--seed", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "run 0:" in out

    def test_train_with_frontend_json(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha_fe.npz")
        assert cli_main([
            "train", "sha", "-o", model_path, "--runs", "2",
            "--frontend", '[{"type": "fir_gate", "cutoff": 0.5}]',
        ]) == 0
        out = capsys.readouterr().out
        assert "frontend: fir_gate" in out
        loaded = load_model(model_path)
        assert len(loaded.config.frontend) == 1
        assert loaded.config.frontend[0].stage_type == "fir_gate"

    def test_train_frontend_flags_are_exclusive_and_validated(self, tmp_path):
        model_path = str(tmp_path / "nope.npz")
        assert cli_main([
            "train", "sha", "-o", model_path, "--runs", "2",
            "--denoise", "--frontend", "[]",
        ]) != 0
        assert cli_main([
            "train", "sha", "-o", model_path, "--runs", "2",
            "--frontend", '[{"type": "no_such_stage"}]',
        ]) != 0
        assert cli_main([
            "train", "sha", "-o", model_path, "--runs", "2",
            "--frontend", "not json",
        ]) != 0

    def test_stream_sessions_use_distinct_seeds(self, tmp_path, capsys):
        """Each fleet session must stream its own seed block.

        Regression: the session source genexpr used to close over the
        loop's ``base`` variable, so every session lazily streamed the
        *last* session's seeds and all lines came out identical.
        """
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "2"])
        capsys.readouterr()
        assert cli_main(
            ["stream", "sha", model_path, "--sessions", "2",
             "--chunk-samples", "4096"]
        ) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("dev-")]
        assert len(lines) == 2
        suffixes = {ln.split(": ", 1)[1] for ln in lines}
        assert len(suffixes) == 2, f"sessions streamed the same seed: {out}"

    def test_monitor_with_injection_detects(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "4"])
        capsys.readouterr()
        assert cli_main(
            ["monitor", "sha", model_path, "--runs", "1", "--inject-loop"]
        ) == 0
        out = capsys.readouterr().out
        assert "detected=True" in out

    def test_experiment_fig1(self, capsys):
        assert cli_main(["experiment", "fig1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Fclock" in out

    def test_capture_and_monitor_trace(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "4"])
        prefix = str(tmp_path / "t_")
        assert cli_main(
            ["capture", "sha", "-o", prefix, "--runs", "1", "--seed", "42",
             "--inject-loop"]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["monitor-trace", model_path, f"{prefix}42.npz"]
        ) == 0
        out = capsys.readouterr().out
        assert "detected=True" in out

    def test_benchmark_mismatch_warns(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "3"])
        capsys.readouterr()
        cli_main(["monitor", "stringsearch", model_path, "--runs", "1"])
        err = capsys.readouterr().err
        assert "warning" in err


class TestFaultPersistence:
    def make_faulty_trace(self):
        from repro.arch.config import CoreConfig
        from repro.em.faults import standard_fault_mix
        from repro.em.scenario import EmScenario
        from repro.programs.workloads import sharp_loop_program

        scenario = EmScenario.build(
            sharp_loop_program(trips=2000),
            core=CoreConfig.iot_inorder(clock_hz=1e8),
            faults=standard_fault_mix(3000.0, 3000.0),
        )
        return scenario.capture(seed=3)

    def test_trace_round_trip_keeps_fault_spans(self, tmp_path):
        from repro.serialize import load_trace, save_trace

        trace = self.make_faulty_trace()
        assert trace.fault_spans  # the mix actually fired
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.fault_spans == trace.fault_spans
        np.testing.assert_array_equal(loaded.iq.samples, trace.iq.samples)

    def test_old_trace_without_fault_spans_loads(self, tmp_path):
        """Traces written before the fault layer default to an empty log."""
        import json

        from repro.serialize import load_trace, save_trace

        trace = self.make_faulty_trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            iq = data["iq"]
        del meta["fault_spans"]
        np.savez_compressed(path, meta=json.dumps(meta), iq=iq)
        loaded = load_trace(path)
        assert loaded.fault_spans == []

    def test_model_round_trip_keeps_quality_config(self, tmp_path):
        from repro.serialize import load_model, save_model

        model = tiny_model()
        model = model.with_quality_gating(True)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config.quality_gating
        assert loaded.config == model.config

    def test_model_round_trip_keeps_the_energy_reference(self, tmp_path):
        model = EddieModel(
            "tiny", tiny_model().config, tiny_model().profiles,
            {}, ["loop:A"], 5e6, energy_reference=(1.25, 0.1),
        ).with_quality_gating(True)
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert load_model(path).energy_reference == (1.25, 0.1)

    def test_earlier_model_format_is_refused(self, tmp_path):
        """A version-1 file predates the trained energy reference; it is
        refused, not loaded with the energy rule silently off."""
        import json

        path = tmp_path / "model.npz"
        save_model(tiny_model(), path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["format_version"] = 1
        del meta["energy_reference"]
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ConfigurationError, match="format version 1"):
            load_model(path)


class TestCalibrationPersistence:
    """Derived-model (calibration) blocks in the .npz format.

    The transfer layer (DESIGN.md D23) added an optional ``calibration``
    section to model files. Pre-transfer files must keep loading as base
    models, and a present block is tamper-evident: its digest binds the
    provenance fields to the config fingerprint.
    """

    def calibrated_model(self):
        import numpy as np

        from repro.core.model import CalibrationInfo

        base = tiny_model()
        references = {
            name: np.where(
                np.isnan(profile.reference),
                profile.reference,
                profile.reference * 1.02,
            )
            for name, profile in base.profiles.items()
        }
        info = CalibrationInfo(
            base_fingerprint="abcdef123456",
            variant="clock 1.02x",
            freq_scale=1.02,
            windows=64,
            snapped_fraction=0.95,
        )
        return base.with_calibrated_references(references, info)

    def test_legacy_model_without_calibration_loads(self, tmp_path):
        """Files written before the transfer layer load as base models."""
        path = tmp_path / "legacy.npz"
        save_model(tiny_model(), path)
        loaded = load_model(path)
        assert loaded.calibration is None
        assert not loaded.is_derived

    def test_calibration_block_round_trips(self, tmp_path):
        model = self.calibrated_model()
        path = tmp_path / "derived.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.is_derived
        assert loaded.calibration == model.calibration
        np.testing.assert_array_equal(
            loaded.profiles["loop:A"].reference,
            model.profiles["loop:A"].reference,
        )

    def rewrite_meta(self, path, mutate):
        """Re-save ``path`` with its meta JSON altered by ``mutate``."""
        import json

        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {
                name: data[name] for name in data.files if name != "meta"
            }
        mutate(meta)
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)

    def test_tampered_calibration_provenance_refused(self, tmp_path):
        """Editing provenance fields after save trips the digest check."""
        path = tmp_path / "derived.npz"
        save_model(self.calibrated_model(), path)

        def swap_base(meta):
            meta["calibration"]["info"]["base_fingerprint"] = "f" * 12

        self.rewrite_meta(path, swap_base)
        with pytest.raises(ConfigurationError, match="integrity"):
            load_model(path)

    def test_tampered_calibration_digest_refused(self, tmp_path):
        path = tmp_path / "derived.npz"
        save_model(self.calibrated_model(), path)

        def zero_digest(meta):
            meta["calibration"]["digest"] = "0" * 64

        self.rewrite_meta(path, zero_digest)
        with pytest.raises(ConfigurationError, match="integrity"):
            load_model(path)

    def test_malformed_calibration_block_refused(self, tmp_path):
        path = tmp_path / "derived.npz"
        save_model(self.calibrated_model(), path)
        self.rewrite_meta(
            path, lambda meta: meta.__setitem__("calibration", {"x": 1})
        )
        with pytest.raises(ConfigurationError, match="malformed"):
            load_model(path)


class TestCliCalibrate:
    def test_calibrate_file_mode(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "3"])
        prefix = str(tmp_path / "c_")
        cli_main(["capture", "sha", "-o", prefix, "--runs", "1",
                  "--seed", "7"])
        capsys.readouterr()
        out_path = str(tmp_path / "sha_cal.npz")
        assert cli_main([
            "calibrate", model_path, "--capture", f"{prefix}7.npz",
            "-o", out_path, "--variant", "same device",
        ]) == 0
        out = capsys.readouterr().out
        assert "freq scale" in out
        assert "saved derived model" in out
        loaded = load_model(out_path)
        assert loaded.is_derived
        assert loaded.calibration.variant == "same device"

    def test_calibrate_requires_destination(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "2"])
        capsys.readouterr()
        assert cli_main(
            ["calibrate", model_path, "--capture", "whatever.npz"]
        ) == 2
        err = capsys.readouterr().err
        assert "nowhere to put" in err


class TestCliFaults:
    def test_monitor_with_faults_and_gating(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "3"])
        capsys.readouterr()
        assert cli_main(
            ["monitor", "sha", model_path, "--runs", "1",
             "--faults", "mixed", "--fault-rate", "500",
             "--quality-gating"]
        ) == 0
        out = capsys.readouterr().out
        assert "unscorable" in out

    def test_faults_require_em_source(self, tmp_path, capsys):
        model_path = str(tmp_path / "sha.npz")
        cli_main(["train", "sha", "-o", model_path, "--runs", "3",
                  "--source", "power"])
        capsys.readouterr()
        assert cli_main(
            ["monitor", "sha", model_path, "--runs", "1",
             "--source", "power", "--faults", "drops"]
        ) != 0

    def test_capture_with_faults_saves_spans(self, tmp_path, capsys):
        from repro.serialize import load_trace

        prefix = str(tmp_path / "t_")
        assert cli_main(
            ["capture", "sha", "-o", prefix, "--runs", "1", "--seed", "9",
             "--faults", "full", "--fault-rate", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault" in out
        trace = load_trace(f"{prefix}9.npz")
        assert trace.fault_spans
