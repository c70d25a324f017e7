"""What ``repro sync|chaos|attack|variants`` print and export, pinned.

One tiny invocation per sweep command, run through ``main(argv)``: the
sha256 of its stdout and of every file its ``--export`` writes.  Paths
differ from checkout to checkout, so stdout is hashed with the export
directory, the examples directory and the scratch directory replaced by
placeholders.  A change to the CLI or to ``repro.core.condition_sweep``
that claims not to move what a user sees must leave these literals
alone; a change that does move a line says which, and why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: A light flood, so the attack runs stay about a second a campaign.
_FLOOD = (
    '{"attackers": [{"kind": "addr_flooder", "count": 2, '
    '"flood_volume": 300, "flood_interval": 60.0}]}'
)

_WORLD = ["--nodes", "10", "--hours", "0.2", "--workers", "1"]
_ATTACK = [
    "attack", "--plan", "{tmp}/flood.json", "--counts", "0,2",
    "--seeds", "1", *_WORLD,
]

#: argv (``{examples}`` / ``{tmp}`` filled in) -> (stdout, {file: sha256}).
RUNS = {
    "sync": (
        ["sync", "--faults", "{examples}/faultplan_partition.json",
         "--seed", "3", "--seeds", "2", *_WORLD],
        "6caa5491e85cae278cb4617190d6bac747f148888833f6c124b24c7e7531317c",
        {
            "sync_kde_2019.csv":
                "f0e5330bfe01336177b942e7f506777888b9f7bb166ecf7c003741395a4e9042",
            "sync_kde_2020.csv":
                "2939f74031743fefac875f5be6fe65267323beab028ac1b6ff52e187127485ca",
            "sync_samples_2019.csv":
                "201a725c26270460020c59104aebc715898bb542ec52113f75473658000d4e95",
            "sync_samples_2020.csv":
                "7edab046bb113d3008ad3bd00de866fcf38587e3598ff71114e86ceaf4056089",
        },
    ),
    "chaos": (
        ["chaos", "--faults", "{examples}/faultplan_chaos.json",
         "--intensities", "0,1", "--seeds", "1", *_WORLD],
        "fcc278116f9d543ab88c11869f3bd9aa29208048b2bae9005291718e41009905",
        {
            "chaos_degradation.json":
                "42b3f5f53a89ce2cf57423e43d8e50f7a2aad32cf7cd9f98c0d32795834249d4",
            "sync_samples_intensity_0.0.csv":
                "477786475ca7d52777afabe83270a49558fcf46fb02c7e942509763b3ee3d398",
            "sync_samples_intensity_1.0.csv":
                "b0a2835108cefe20e732047b57fc16c5099ca01f35d12c0164e00d94c7760d7f",
        },
    ),
    "attack": (
        _ATTACK,
        "aee1d64034ed1f6de1ce3c7e6f5d6cff317d853fdcdcb03829fb0f30e52b35ef",
        {
            "attack_degradation.json":
                "ebb7277c4a20c1bf9ea750c9c836c3ebc644771f483fdba85ccbf55ef19e124f",
            "sync_samples_attackers_0.csv":
                "7b8c06ac411c087b83b97ef7d885b7a6f062b2fb1f45b4dfda6ddba6278920b1",
            "sync_samples_attackers_2.csv":
                "333607688a9692ff80e5863cc8955d238f93b060e456e6499dc9150248aff156",
        },
    ),
    "attack-mitigations": (
        _ATTACK + ["--mitigations"],
        "957a817d9eeff18234be27657cf9bb3763491e0df46fba4ac10acaca9bf55c26",
        {
            "attack_degradation.json":
                "ebb7277c4a20c1bf9ea750c9c836c3ebc644771f483fdba85ccbf55ef19e124f",
            "sync_samples_attackers_0.csv":
                "7b8c06ac411c087b83b97ef7d885b7a6f062b2fb1f45b4dfda6ddba6278920b1",
            "sync_samples_attackers_2.csv":
                "333607688a9692ff80e5863cc8955d238f93b060e456e6499dc9150248aff156",
        },
    ),
    "variants": (
        ["variants", "--variants", "baseline,improved", "--churn", "2,6",
         "--faults", "{examples}/faultplan_chaos.json", "--seeds", "1",
         *_WORLD],
        "9b2eaa5c039427cb982cbbe8f991596b1f8a223c2fca364222182b17fa7a882f",
        {
            "sync_samples_baseline_churn2_none.csv":
                "c662a15a7948d9b5da531760e9b115aa9e1f78182fbfc7553e208db40827df4c",
            "sync_samples_baseline_churn2_plan1-crash-delay-drop-duplicate-partition-reset.csv":
                "3234279e4ff90d970d4261e9cf72f5b249bc0a184042c905f4fcf53ad5351721",
            "sync_samples_baseline_churn6_none.csv":
                "e120ddb82aaa4c747b9988a8b5e2a9d760e5852fe6ceb58a473255d24cb9a14c",
            "sync_samples_baseline_churn6_plan1-crash-delay-drop-duplicate-partition-reset.csv":
                "e120ddb82aaa4c747b9988a8b5e2a9d760e5852fe6ceb58a473255d24cb9a14c",
            "sync_samples_tried-only-17d-block-prio_churn2_none.csv":
                "77c42120495c991fbd9d27f8d167a250b86e1962d0065bc628f93582c32f81d3",
            "sync_samples_tried-only-17d-block-prio_churn2_plan1-crash-delay-drop-duplicate-partition-reset.csv":
                "f9e8d05d595562caaf158d30057be25375773f95ddcdfe56121698147fc0397c",
            "sync_samples_tried-only-17d-block-prio_churn6_none.csv":
                "9b5d86fd9cb18052bd37ffbab860f18ee30d08ef19d0df50e91e8891484d7199",
            "sync_samples_tried-only-17d-block-prio_churn6_plan1-crash-delay-drop-duplicate-partition-reset.csv":
                "9b5d86fd9cb18052bd37ffbab860f18ee30d08ef19d0df50e91e8891484d7199",
            "variant_retention.json":
                "3cb5ae41fc009b990efb0361d38a076be9f08ccbe441cea9993b833853882987",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_and_exports_did_not_move(name, tmp_path, capsys):
    argv, stdout, files = RUNS[name]
    (tmp_path / "flood.json").write_text(_FLOOD)
    export = tmp_path / "export"
    argv = [
        arg.format(examples=EXAMPLES, tmp=tmp_path) for arg in argv
    ] + ["--export", str(export)]
    assert main(argv) == 0
    out = (
        capsys.readouterr().out
        .replace(str(export), "<export>")
        .replace(str(EXAMPLES), "<examples>")
        .replace(str(tmp_path), "<tmp>")
    )
    print(out)  # shown on failure
    written = {
        path.name: _sha256(path.read_bytes())
        for path in sorted(export.iterdir())
    }
    assert (_sha256(out.encode()), written) == (stdout, files)
