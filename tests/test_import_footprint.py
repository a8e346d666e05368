"""scipy stays off the detection path (DESIGN.md D29).

scipy is an analysis dependency (the ANOVA, the U-test, the Fig. 2
mixture fit) and a test oracle, not a runtime one: importing it costs a
monitor process about a second and ~65 MB before it scores a window.
This guard runs the detection path in a fresh interpreter with scipy
blocked (``sys.modules["scipy"] = None``) and every import statement
watched, so an import that is attempted and then swallowed fails the
test too:

- import every public package and resolve every lazy ``repro`` export;
- train a tiny detector behind a ``FirGateStage`` + ``SvdDenoiser``
  chain, score a capture in batch, stream it in chunks through a fleet
  session, and capture it through the receiver's decimation filter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import builtins
    import sys

    sys.modules["scipy"] = None
    attempts = []
    _import = builtins.__import__

    def watched(name, *args, **kwargs):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
        return _import(name, *args, **kwargs)

    builtins.__import__ = watched

    import repro
    import repro.cli
    import repro.core
    import repro.dsp
    import repro.em
    import repro.experiments
    import repro.serve
    import repro.stream
    import repro.transfer

    for name in repro.__all__:
        getattr(repro, name)

    from repro.core.model import EddieConfig
    from repro.core.monitor import Monitor
    from repro.dsp import FirGateStage, SvdDenoiser
    from repro.em.receiver import Receiver
    from repro.experiments.runner import Scale, build_detector
    from repro.programs.mibench import BENCHMARKS
    from repro.stream import FleetScheduler

    scale = Scale(train_runs=2, clean_runs=1, injected_runs=1,
                  group_sizes=(8, 16))
    config = EddieConfig(frontend=(
        FirGateStage(cutoff=0.5),
        SvdDenoiser(block_samples=2048, hankel_window=32, rank=8),
    ))
    detector = build_detector(
        BENCHMARKS["bitcount"](), scale, source="em", config=config
    )
    iq = detector.source.capture(seed=scale.monitor_seed(0)).iq
    batch = Monitor(detector.model).run_signal(iq)

    fleet = FleetScheduler()
    fleet.add_session("s", detector.model, t0=iq.t0)
    for chunk in iq.iter_chunks(4096):
        fleet.feed("s", chunk)
    summary = fleet.close_session("s")
    assert summary.windows == len(batch.times) > 0

    decimated = Receiver(decimation=4).capture(iq)
    assert len(decimated.samples) == -(-len(iq.samples) // 4)

    assert not attempts, f"scipy imports attempted: {sorted(set(attempts))}"
    loaded = sorted(m for m in sys.modules
                    if m.startswith("scipy") and sys.modules[m] is not None)
    assert not loaded, f"scipy modules loaded: {loaded}"
    print("no scipy")
    """
)


def test_detection_path_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # A configured artifact cache could serve the model and skip
    # training, which this test must run.
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("no scipy")
