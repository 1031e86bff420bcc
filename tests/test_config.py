import dataclasses
import json
import math

import pytest

from mipmot.config import TrackerConfig
from mipmot.simgen import ObjectSpec, ScenarioConfig

# Every real-valued field of the types the shared field checker checks.
REAL_FIELDS = [
    (cls, f.name)
    for cls in (TrackerConfig, ScenarioConfig, ObjectSpec)
    for f in dataclasses.fields(cls)
    if f.type in ("float", "Optional[float]")
]


class TestValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta_cls", 1.5),
            ("theta_cls", "0.9"),
            ("theta_cls", math.nan),
            ("theta_hit", -1),
            ("theta_hit", 1.0),
            ("theta_miss", "2"),
            ("theta_miss", True),
            ("default_start_prob", -0.1),
            ("default_end_prob", 2.0),
            ("beta_over_alpha", -1.0),
            ("use_dis", 1),
            ("w_cls", 0.0),
            ("w_aff", math.inf),
            ("w_se", None),
            ("associator", "greedy"),
            ("ha_gate", math.inf),
            ("ha_gate", "0.3"),
            ("confidence_smoothing", 1.0),
            ("eval_iou_threshold", 1.2),
            ("object_type", "Big Car"),
            ("object_type", ""),
            ("kalman_p0_diag", [1.0] * 9),
            ("kalman_p0_diag", [1.0] * 9 + [-1.0]),
            ("kalman_p0_diag", "1111111111"),
            ("kalman_r_diag", [0.5] * 6 + [0.0]),
            ("kalman_r_diag", [0.5] * 6 + [math.nan]),
            ("kalman_q_scale", -0.01),
            # integers too large for a float
            ("w_cls", 10**400),
            ("beta_over_alpha", 10**400),
            ("ha_gate", 10**400),
            ("kalman_q_scale", 10**400),
            ("kalman_r_diag", [10**400] + [0.5] * 6),
        ],
    )
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrackerConfig(**{key: value})

    @pytest.mark.parametrize("cls, key", REAL_FIELDS)
    def test_int_too_large_for_float_names_key(self, cls, key):
        required = dict(x=0, y=0, vx=0, vy=0) if cls is ObjectSpec else {}
        with pytest.raises(ValueError, match=f"^{key} must be "):
            cls(**{**required, key: 10**400})

    def test_motion_needs_a_term(self):
        with pytest.raises(ValueError, match="use_dis"):
            TrackerConfig(use_dis=False, use_iou=False)

    def test_ints_become_floats(self):
        cfg = TrackerConfig(w_cls=100, beta_over_alpha=10, kalman_r_diag=[1] * 7)
        assert cfg == TrackerConfig(kalman_r_diag=[1.0] * 7)
        assert isinstance(cfg.w_cls, float) and isinstance(cfg.kalman_r_diag[0], float)

    def test_motion_only_ratio(self):
        assert TrackerConfig(beta_over_alpha=math.inf).beta_over_alpha == math.inf

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrackerConfig().theta_cls = 0.5


class TestDictAndOverride:
    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="theta_clss"):
            TrackerConfig.from_dict({"theta_clss": 0.9})

    def test_override_none_is_a_value(self):
        cfg = TrackerConfig(ha_gate=0.3)
        assert cfg.override(ha_gate=None).ha_gate is None
        with pytest.raises(ValueError, match="theta_cls"):
            cfg.override(theta_cls=None)

    def test_override_checks_keys_and_values(self):
        with pytest.raises(ValueError, match="w_clss"):
            TrackerConfig().override(w_clss=1.0)
        with pytest.raises(ValueError, match="w_cls"):
            TrackerConfig().override(w_cls=-1.0)

    def test_saved_file_holds_every_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        TrackerConfig().save(path)
        data = json.loads(path.read_text())
        assert set(data) == {f.name for f in dataclasses.fields(TrackerConfig)}
        assert len(data) == 19
        assert TrackerConfig.from_dict(data) == TrackerConfig()
