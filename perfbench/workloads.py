"""Benchmark workloads: generated sharc configs per workload and seed.

Every workload times the same seven commands, because every run reports
every end-to-end metric. The dataset shape and the thread count decide which
layer does most of the work. A workload's own commands are synth, enroll,
query and evaluate; it runs the three sweep commands on a side dataset: the
same shape with fewer subjects, made once per run, so that they do not crowd
its own commands out of the run. The workload seed
goes into the generated configs and nowhere else, so the program sees only
its config files.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMANDS = ("synth", "enroll", "query", "evaluate", "ablate-gamma", "ablate-alpha", "train-toy")
SIDE_COMMANDS = ("ablate-gamma", "ablate-alpha", "train-toy")
MAIN_CONFIG, SIDE_CONFIG = "run.cfg", "side.cfg"
MAIN_DATA, SIDE_DATA = "data", "side"

DATA_DIRS = (MAIN_DATA, SIDE_DATA)

DEFAULT_SEED = 1
HELD_OUT_SEED = 20231015

# noise levels of the acceptance suite's PERF_CLI_CFG
_NOISE = {"sil_flip_rate": 0.05, "keypoint_jitter": 0.05, "appearance_shift": 0.3}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: dict
    threads: int
    side_ids: int  # subjects of the side dataset the sweep commands run on

    def config_text(self, seed: int, data_dir: str, num_ids: int | None = None) -> str:
        dataset = {**self.dataset, **_NOISE, "seed": seed}
        if num_ids is not None:
            dataset["num_ids"] = num_ids
        lines = ["[dataset]"] + [f"{k} = {v}" for k, v in dataset.items()]
        lines += ["", "[paths]", f"data_dir = {data_dir}", ""]
        return "\n".join(lines)

    def configs(self, seed: int) -> dict[str, str]:
        """Config file name -> its text."""
        return {MAIN_CONFIG: self.config_text(seed, MAIN_DATA),
                SIDE_CONFIG: self.config_text(seed, SIDE_DATA, self.side_ids)}

    @staticmethod
    def config_for(command: str) -> str:
        return SIDE_CONFIG if command in SIDE_COMMANDS else MAIN_CONFIG


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed_heavy",
            dataset={"num_ids": 16, "tracklets_per_id": 4, "frames_per_tracklet": 48,
                     "clothing_variants": 2, "height": 32, "width": 32},
            threads=2,
            side_ids=2,
        ),
        Workload(
            name="wide_gallery",
            dataset={"num_ids": 300, "tracklets_per_id": 2, "frames_per_tracklet": 4,
                     "clothing_variants": 2, "height": 16, "width": 16},
            threads=1,
            side_ids=16,
        ),
    )
}
