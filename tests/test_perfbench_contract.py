"""The names and shapes the benchmark in `perfbench/` relies on.

The benchmark's tracer rebinds sharc functions by name and reads counters off
their arguments, and its scoring ladder builds a `GalleryIndex` from
`IndexEntry` objects. A change that drops or reshapes one of those would
otherwise show only in `perfbench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

from sharc import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CONFIG = """
[dataset]
num_ids = 3
tracklets_per_id = 2
frames_per_tracklet = 6
height = 8
width = 8

[model]
bins = 2
channels = 8
motion_channels = 6
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_session_counts_every_layer(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG + f"\n[paths]\ndata_dir = {tmp_path / 'data'}\n")
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        codes = [
            tracer.run_root(cli.main, [command, "--config", str(cfg_path)])
            for command in ("synth", "enroll", "query", "evaluate", "ablate-gamma")
        ]
    finally:
        tracer.uninstall()
    assert codes == [0] * 5
    assert tracer.nesting_problems() == []
    for counter in ("matcher.pairs_scored", "gallery.tracklet_embeddings.calls", "shape.embed.useful"):
        assert tracer.counts[counter] > 0, counter


def test_scoring_ladder_runs():
    ladder = _load("ladder")
    assert set(ladder._one_pass(64, 1)) == set(ladder.FUNCTIONS)
