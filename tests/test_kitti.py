"""KITTI label and calibration I/O tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d.kitti import (
    FieldCountError,
    KittiLabel,
    MissingP2Error,
    NumericParseError,
    box3d_to_label,
    camera_to_calib,
    format_label,
    label_to_box3d,
    parse_calib,
    parse_labels,
    to_camera_model,
    write_calib,
    write_result_file,
)

LABEL_LINE = (
    "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
)


def test_parse_single_label():
    labels = parse_labels(LABEL_LINE + "\n")
    assert len(labels) == 1
    lb = labels[0]
    assert lb.type == "Car"
    assert lb.occluded == 0
    assert lb.alpha == pytest.approx(-1.58)
    assert lb.bbox == pytest.approx((587.01, 173.33, 614.12, 200.12))
    assert lb.dimensions == pytest.approx((1.65, 1.67, 3.64))
    assert lb.location == pytest.approx((-0.65, 1.71, 46.70))
    assert lb.rotation_y == pytest.approx(-1.59)
    assert lb.score is None
    assert lb.bbox_height == pytest.approx(200.12 - 173.33)


def test_parse_label_with_score():
    labels = parse_labels(LABEL_LINE + " 0.87\n")
    assert labels[0].score == pytest.approx(0.87)


def test_parse_dontcare():
    text = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
    labels = parse_labels(text)
    assert labels[0].is_dontcare


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FieldCountError) as e:
        parse_labels(LABEL_LINE + "\nCar 1 2\n")
    assert e.value.line_no == 2
    with pytest.raises(NumericParseError) as e:
        parse_labels(LABEL_LINE.replace("-1.58", "abc"))
    assert e.value.line_no == 1
    assert e.value.token == "abc"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("field", [1, 2, 14, 15])
def test_parse_labels_rejects_non_finite_fields(field, token):
    fields = (LABEL_LINE + " 0.87").split()
    fields[field] = token
    with pytest.raises(NumericParseError, match="labels.txt, line 2: expected a finite number") as e:
        parse_labels(LABEL_LINE + "\n" + " ".join(fields) + "\n", "labels.txt")
    assert e.value.line_no == 2
    assert e.value.token == token


def test_format_label_two_decimals():
    lb = parse_labels(LABEL_LINE)[0]
    assert format_label(lb) == LABEL_LINE
    assert format_label(parse_labels(LABEL_LINE + " 0.87")[0]) == LABEL_LINE + " 0.87"


def test_write_result_file():
    labels = parse_labels(LABEL_LINE + " 0.50\n" + LABEL_LINE + " 0.25\n")
    text = write_result_file(labels)
    assert text.endswith("\n")
    assert parse_labels(text) == labels


def _random_label(rng):
    return KittiLabel(
        type=rng.choice(["Car", "Pedestrian", "Cyclist", "Van"]),
        truncated=round(float(rng.uniform(0, 1)), 2),
        occluded=int(rng.integers(0, 4)),
        alpha=round(float(rng.uniform(-np.pi, np.pi)), 2),
        bbox=tuple(round(float(v), 2) for v in rng.uniform(0, 1200, 4)),
        dimensions=tuple(round(float(v), 2) for v in rng.uniform(0.5, 5, 3)),
        location=tuple(round(float(v), 2) for v in rng.uniform(-40, 80, 3)),
        rotation_y=round(float(rng.uniform(-np.pi, np.pi)), 2),
        score=round(float(rng.uniform(0, 1)), 2) if rng.random() < 0.5 else None,
    )


def test_label_roundtrip_random():
    rng = np.random.default_rng(0)
    labels = [_random_label(rng) for _ in range(200)]
    assert parse_labels(write_result_file(labels)) == labels


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parse_labels_fuzz_never_crashes(text):
    try:
        parse_labels(text)
    except (FieldCountError, NumericParseError):
        pass


def test_calib_roundtrip():
    p2 = np.array(
        [
            [721.5377, 0.0, 609.5593, 44.85728],
            [0.0, 721.5377, 172.854, 0.2163791],
            [0.0, 0.0, 1.0, 0.002745884],
        ]
    )
    from rtm3d.kitti import KittiCalib

    calib = parse_calib(write_calib(KittiCalib(p2=p2)))
    np.testing.assert_allclose(calib.p2, p2, rtol=1e-12)


def test_parse_calib_requires_p2():
    with pytest.raises(MissingP2Error):
        parse_calib("P0: " + " ".join(["0.0"] * 12) + "\n")


def test_parse_calib_ignores_other_lines():
    text = (
        "P0: " + " ".join(["1.0"] * 12) + "\n"
        "P2: 700 0 600 7 0 710 180 0.1 0 0 1 0.001\n"
        "Tr_velo_to_cam: " + " ".join(["0.0"] * 12) + "\n"
    )
    calib = parse_calib(text)
    assert calib.p2[0, 0] == 700.0


def test_to_camera_model_inverts_camera_to_calib():
    from rtm3d.geometry import CameraModel

    cam = CameraModel(fx=721.5377, fy=721.5377, cx=609.5593, cy=172.854,
                      t_cam=np.array([0.0621, 0.0003, 0.0027]))
    back = to_camera_model(camera_to_calib(cam))
    assert back.fx == pytest.approx(cam.fx)
    assert back.fy == pytest.approx(cam.fy)
    assert back.cx == pytest.approx(cam.cx)
    assert back.cy == pytest.approx(cam.cy)
    np.testing.assert_allclose(back.t_cam, cam.t_cam, atol=1e-9)


def test_to_camera_model_projection_matches_matrix():
    p2 = np.array(
        [
            [721.5377, 0.0, 609.5593, 44.85728],
            [0.0, 721.5377, 172.854, 0.2163791],
            [0.0, 0.0, 1.0, 0.002745884],
        ]
    )
    from rtm3d.geometry import project
    from rtm3d.kitti import KittiCalib

    cam = to_camera_model(KittiCalib(p2=p2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = np.array([rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(5, 60)])
        homo = p2 @ np.append(p, 1.0)
        np.testing.assert_allclose(project(cam, p), homo[:2] / homo[2], atol=1e-9)


def test_label_box_conversion():
    lb = parse_labels(LABEL_LINE)[0]
    box = label_to_box3d(lb)
    # KITTI stores h, w, l and the bottom-center location.
    np.testing.assert_allclose(box.dims, [1.65, 1.67, 3.64])
    np.testing.assert_allclose(box.t, [-0.65, 1.71, 46.70])
    assert box.yaw == pytest.approx(-1.59)
    back = box3d_to_label(box, category="Car", alpha=lb.alpha, bbox=lb.bbox)
    assert format_label(back) == LABEL_LINE
