"""The benchmark's workloads as cfrank config overrides.

Every run passes `seed=` derived from the benchmark seed; nothing else about
the inputs changes between seeds. Each full-size workload has a tiny variant
with the same shape of work, used by the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BEHAVIORS_SAMPLE = "tests/data/behaviors_sample.tsv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    synthetic: bool = True
    tiny_overrides: dict = field(default_factory=dict)

    def settings(self, root, tiny=False) -> dict:
        """Resolved overrides; the behaviors path is made absolute under root."""
        values = dict(self.overrides)
        if tiny:
            values.update(self.tiny_overrides)
        if not self.synthetic:
            values["dataset.path"] = f"{root}/{BEHAVIORS_SAMPLE}"
        return values


# Shrinks any workload to a run of a second or two.
_TINY = {
    "synth.n_users": 40,
    "synth.n_items": 30,
    "synth.d": 6,
    "synth.lists_per_user": 5,
    "simulator.d_r": 8,
    "simulator.d_s": 8,
    "simulator.epochs": 1,
    "posterior.epochs": 3,
    "target.d": 8,
    "target.epochs": 2,
    "intervention.rounds": 1,
    "intervention.actions": 1,
    "intervention.pretrain_episodes": 2,
    "intervention.pretrain_steps": 4,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-default",
            why=(
                "default 600x300 synthetic data with bpr-mf and fewer epochs: "
                "simulator training and the ELBO posterior take most of the time"
            ),
            overrides={
                "simulator.epochs": 3,
                "posterior.epochs": 20,
                "intervention.pretrain_episodes": 10,
            },
            tiny_overrides=_TINY,
        ),
        Workload(
            name="mind-sample",
            why=(
                "bundled behaviors sample: real-format parsing, padded variable-"
                "length lists, more items than users"
            ),
            overrides={
                "dataset.kind": "behaviors",
                "simulator.epochs": 8,
                "posterior.epochs": 50,
            },
            synthetic=False,
            tiny_overrides={
                **{k: v for k, v in _TINY.items() if not k.startswith("synth.")},
                "dataset.max_users": 30,
            },
        ),
        Workload(
            name="synth-wide-intervene",
            why=(
                "200x2000 synthetic data, neumf, pointwise, coldness buckets: "
                "intervention, rankers, evaluation and checkpoints dominate"
            ),
            overrides={
                "synth.n_users": 200,
                "synth.n_items": 2000,
                "synth.lists_per_user": 10,
                "simulator.epochs": 3,
                "posterior.epochs": 10,
                "intervention.rounds": 4,
                "intervention.actions": 6,
                "intervention.pretrain_episodes": 60,
                "target.kind": "neumf",
                "target.objective": "pointwise",
                "target.epochs": 20,
                "eval.coldness": True,
            },
            tiny_overrides={**_TINY, "eval.cold_low": 1, "eval.cold_high": 3},
        ),
    )
}
