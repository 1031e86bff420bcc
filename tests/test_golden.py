"""Golden outputs: sha256 digests of the files ``mipmot simulate`` writes
and of the KITTI result files of ``mipmot track``.

Each tracking case simulates a template and seed with ``mipmot simulate``, tracks
it with ``mipmot track --config`` and hashes the result file, so the
digests pin the tracker's output through the public file formats and
the JSON config keys. A refactor keeps every digest; a change that moves
an output on purpose updates the digest and says which outputs changed
and why.
"""

import hashlib
import json

import pytest

from mipmot.cli import main

TEMPLATES = ("clean", "crossing", "clutter")
SEEDS = (0, 1, 2)

NON_DEFAULT = {
    "theta_hit": 1,
    "confidence_smoothing": 0.5,
    "ha_gate": 0.3,
    "kalman_p0_diag": [2.0, 2.0, 1.0, 0.2, 0.2, 0.2, 0.3, 5.0, 5.0, 1.0],
    "kalman_r_diag": [0.3, 0.3, 0.6, 0.1, 0.1, 0.1, 0.2],
    "kalman_q_scale": 0.05,
}

CONFIGS = {
    "mip": {},
    "hungarian": {"associator": "hungarian"},
    # the affinity ablations of acceptance criterion 6
    "app": {"beta_over_alpha": 0.0},
    "dis": {"beta_over_alpha": float("inf"), "use_iou": False},
    "iou": {"beta_over_alpha": float("inf"), "use_dis": False},
    "non-default": NON_DEFAULT,
    "non-default-hungarian": {**NON_DEFAULT, "associator": "hungarian"},
}

GOLDEN = {
    ("clean", 0, "mip"): "4babdadb05639eaeee51b95d2498660b72cd7a7c0154b64574f3332b6dd8d85f",
    ("clean", 0, "hungarian"): "4babdadb05639eaeee51b95d2498660b72cd7a7c0154b64574f3332b6dd8d85f",
    ("clean", 1, "mip"): "3bf3da2a99e7e7f6e99176f97b3540b3f0d3601e865b704adcc1fba4ddeaffbb",
    ("clean", 1, "hungarian"): "3bf3da2a99e7e7f6e99176f97b3540b3f0d3601e865b704adcc1fba4ddeaffbb",
    ("clean", 2, "mip"): "a4ed982c526e12820345e9bcd577bbed0914bcbabafd2c5bf7cef3155b1a18e7",
    ("clean", 2, "hungarian"): "a4ed982c526e12820345e9bcd577bbed0914bcbabafd2c5bf7cef3155b1a18e7",
    ("crossing", 0, "mip"): "d61d8b5ac086b5b9371cae63bcc37c7ce8713ca9c0b797399aeb76e3e048bc5d",
    ("crossing", 0, "hungarian"): "d61d8b5ac086b5b9371cae63bcc37c7ce8713ca9c0b797399aeb76e3e048bc5d",
    ("crossing", 1, "mip"): "032297f31541f9c6503dbea64d413ee432fd0467e32e142544de080ef16d84cc",
    ("crossing", 1, "hungarian"): "032297f31541f9c6503dbea64d413ee432fd0467e32e142544de080ef16d84cc",
    ("crossing", 2, "mip"): "791168296812ce1d3f419ea9c37b62d346a4bcb762bb85627b68260e9f5127a5",
    ("crossing", 2, "hungarian"): "791168296812ce1d3f419ea9c37b62d346a4bcb762bb85627b68260e9f5127a5",
    ("clutter", 0, "mip"): "eff885a68b019b406765f2ca496483bb1cb299a1d1e01aca6777362db0a76685",
    ("clutter", 0, "hungarian"): "857724e654a800a571fed6ef90442c70c42a6d1725bac67ec5c767c221b97ba8",
    ("clutter", 1, "mip"): "2344cee8857b3e2f3261db9b0df87b8821980106b3ef1c7cfcb17b9cd76abeaf",
    ("clutter", 1, "hungarian"): "3ace865fb7e8541fde19837709ae3be59318d245868771f8fb79fddd842dd9db",
    ("clutter", 2, "mip"): "89acd2e4232f9ef297f6706e23ecc86f766abcdad65192f67122aa977860bba0",
    ("clutter", 2, "hungarian"): "b191c1033d2dad2a2974743c5e5ebdf517e90aadbcde20d7326854cecc975795",
    ("crossing", 0, "app"): "de8887fb927ad2ec9cd4b9ddcb55b8dc3055a5d6ace0d83405179eb68d8826cb",
    ("crossing", 0, "dis"): "d61d8b5ac086b5b9371cae63bcc37c7ce8713ca9c0b797399aeb76e3e048bc5d",
    ("crossing", 0, "iou"): "d61d8b5ac086b5b9371cae63bcc37c7ce8713ca9c0b797399aeb76e3e048bc5d",
    ("crossing", 0, "non-default"): "5e354c25de93f4a3b7173d4536d6c54132af080251db9ce0478ce08ed8d3daab",
    ("crossing", 0, "non-default-hungarian"): "5e354c25de93f4a3b7173d4536d6c54132af080251db9ce0478ce08ed8d3daab",
    ("clutter", 0, "non-default"): "3a8599d46ce648751d7bc8a0fcf2d180ddc8b10274adf3bd548a2105299c3106",
    ("clutter", 0, "non-default-hungarian"): "f1769d710c429b09908bc785f11bb9230a1f4018b9c75a97a470ae1176a3b0f8",
}


# (template, file suffix) -> sha256 of that file at seed 0: the detection
# writer and the KITTI label writer, byte for byte.
SIMULATE_GOLDEN = {
    ("clean", "dets"): "c5cfbb4433f19561dbd204347d0733b1356c2d8fcc70b9b45e58b407527355a1",
    ("clean", "labels"): "a6a1f1ebf8c33878fb0cb146bd70af6145d1c881744a98e603cc1e30344199fb",
    ("crossing", "dets"): "b9aef46dedbec86d8ce448e883310f6dd2f3db16cfb2dafe196439da06c340e1",
    ("crossing", "labels"): "cd3ac80e50b2aba8c7e61837a5c7d96df29fa9bfb40ed664193c505c99fa5639",
    ("clutter", "dets"): "dc3c6f1b894ab4d333ef9ba53da64dacc8453877475c37c755416e2523b9891f",
    ("clutter", "labels"): "4ee20ae0fe55c8346b55999a8e9510b3cc073e866e945eb4a5fdc5266aa57907",
}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for template in TEMPLATES:
        for seed in SEEDS:
            argv = [
                "simulate", "--template", template, "--seed", str(seed),
                "--output-dir", str(root / f"{template}-{seed}"), "--name", "seq",
            ]
            assert main(argv) == 0
    return root


def result_digest(scenarios, tmp_path, template, seed, config) -> str:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[config]))
    out_dir = tmp_path / "out"
    argv = [
        "track", "--config", str(cfg_path),
        "--input-dir", str(scenarios / f"{template}-{seed}"), "--output-dir", str(out_dir),
    ]
    assert main(argv) == 0
    return hashlib.sha256((out_dir / "seq.txt").read_bytes()).hexdigest()


@pytest.mark.parametrize("template, seed, config", sorted(GOLDEN))
def test_result_digest(scenarios, tmp_path, capsys, template, seed, config):
    digest = result_digest(scenarios, tmp_path, template, seed, config)
    capsys.readouterr()
    assert digest == GOLDEN[template, seed, config]


@pytest.mark.parametrize("template, suffix", sorted(SIMULATE_GOLDEN))
def test_simulate_digest(scenarios, template, suffix):
    data = (scenarios / f"{template}-0" / f"seq.{suffix}.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SIMULATE_GOLDEN[template, suffix]
