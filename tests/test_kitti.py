"""KITTI label and calibration I/O tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d.geometry import CameraModel, SolveInputs
from rtm3d.kitti import (
    FieldCountError,
    InputError,
    KittiLabel,
    LabelTable,
    MissingP2Error,
    NumericParseError,
    camera_to_calib,
    car_lines,
    format_label,
    keypoint_boxes,
    label_to_box3d,
    parse_calib,
    parse_labels,
    parse_solve_inputs,
    priors_lines,
    sidecar_lines,
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


def test_of_labels_is_the_inverse_of_label():
    rng = np.random.default_rng(1)
    frames = {"a.txt": [_random_label(rng) for _ in range(4)], "b.txt": [], "c.txt": [_random_label(rng)]}
    table = LabelTable.of_labels(frames)
    labels = [table.label(row) for row in range(len(table.frame))]
    assert labels == frames["a.txt"] + frames["c.txt"]
    assert [lb.origin for lb in labels] == [f"a.txt, line {k}" for k in range(1, 5)] + ["c.txt, line 1"]
    # Each row is written as format_label writes its label, and reads back as it.
    assert table.lines() == [format_label(lb) + "\n" for lb in labels]
    assert parse_labels("".join(table.lines())) == labels


def test_table_boxes_are_the_boxes_of_its_labels():
    # Yaws beyond pi are wrapped once, as Box3D wraps them, bit for bit.
    rng = np.random.default_rng(2)
    labels = [replace(_random_label(rng), rotation_y=float(v)) for v in rng.uniform(-20.0, 20.0, 50)]
    boxes = [label_to_box3d(lb) for lb in labels]
    want = np.array([(*b.dims, *b.t, b.yaw) for b in boxes])
    assert LabelTable.of_labels({"labels": labels}).boxes().tobytes() == want.tobytes()


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


@pytest.mark.parametrize(
    "p2, t",
    [
        # Each value finite, but the offset ((p03 - cx tz) / fx, (p13 - cy tz) / fy, tz) overflows:
        # tz = 1e308; cx = 1e308 with tz = 10; fx = 5e-324 with p03 = 1.
        ("700 0 600 0 0 710 180 0 0 0 1 1e308", "(-inf, -inf, 1e+308)"),
        ("700 0 1e308 0 0 710 180 0 0 0 1 10", "(-inf, -2.535211267605634, 10.0)"),
        ("5e-324 0 600 1 0 710 180 0 0 0 1 0", "(inf, 0.0, 0.0)"),
    ],
)
def test_parse_calib_rejects_a_p2_whose_camera_offset_overflows(p2, t):
    # Such a P2 gave an infinite camera, and every object of its frame failed
    # with a non-finite cost; it is malformed input, named by file and line,
    # and computing the offset warns of no overflow.
    with pytest.raises(InputError) as e:
        parse_calib("P0: " + " ".join(["1.0"] * 12) + f"\nP2: {p2}\n", "calib.txt")
    assert str(e.value) == f"calib.txt, line 2: P2 camera offset t = {t} must be finite"


def test_to_camera_model_inverts_camera_to_calib():
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
    from rtm3d.geometry import project_points
    from rtm3d.kitti import KittiCalib

    cam = to_camera_model(KittiCalib(p2=p2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = np.array([rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(5, 60)])
        homo = p2 @ np.append(p, 1.0)
        np.testing.assert_allclose(project_points(cam, p)[0], homo[:2] / homo[2], atol=1e-9)


def test_label_box_conversion():
    lb = parse_labels(LABEL_LINE)[0]
    box = label_to_box3d(lb)
    # KITTI stores h, w, l and the bottom-center location.
    np.testing.assert_allclose(box.dims, [1.65, 1.67, 3.64])
    np.testing.assert_allclose(box.t, [-0.65, 1.71, 46.70])
    assert box.yaw == pytest.approx(-1.59)
    # car_lines writes the box back as the same line, alpha recomputed from yaw and position.
    assert car_lines(box.dims[None], box.t[None], [box.yaw], [lb.bbox]) == [LABEL_LINE + "\n"]


@pytest.mark.parametrize("field", [8, 9, 10, 11, 12, 13])
def test_label_to_box3d_bounds_dimensions_and_location(field):
    # A box is at most 1e100 m across and from the camera, so that no product
    # of three of its coordinates overflows.  Dimensions must also be positive.
    for value in ("1e100", "-1e100") if field > 10 else ("1e100",):
        fields = LABEL_LINE.split()
        fields[field] = value
        label_to_box3d(parse_labels(" ".join(fields), "labels.txt")[0])
    fields[field] = "1.000001e100"
    with pytest.raises(InputError, match=r"^labels.txt, line 1: box dimensions and location must lie within 1e\+100 m"):
        label_to_box3d(parse_labels(" ".join(fields), "labels.txt")[0])


@pytest.mark.parametrize("n", [0, 6])
def test_solve_inputs_round_trip_through_priors_and_sidecar(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, 1200.0, size=(n, 9, 2))
    conf = rng.uniform(0.05, 1.0, size=(n, 9))
    visible = rng.uniform(size=(n, 9)) > 0.3
    d_hat, theta_hat, z_hat = rng.uniform(0.5, 5.0, size=(n, 3)), rng.uniform(-3.1, 3.1, n), rng.uniform(5.0, 60.0, n)
    text = ("".join(priors_lines(d_hat, theta_hat, z_hat, keypoint_boxes(pts, visible))),
            "".join(sidecar_lines(pts, conf, visible)))
    cam = CameraModel(fx=700.0, fy=710.0, cx=600.0, cy=170.0, t_cam=np.array([0.06, 0.0, 0.003]))
    back = parse_solve_inputs(*text, cam)
    assert isinstance(back, SolveInputs)
    # Dropped keypoints keep their position and read back invisible, with confidence 0;
    # every object gets the frame's camera row.
    cams = np.tile([700.0, 710.0, 600.0, 170.0, 0.06, 0.0, 0.003], (n, 1))
    for got, want in zip(back, (pts, np.where(visible, conf, 0.0), visible, d_hat, theta_hat, z_hat, cams),
                         strict=True):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


@pytest.mark.parametrize("field, prior", [(8, "dimension"), (10, "dimension"), (13, "depth")])
@pytest.mark.parametrize("value", ["0", "-2.5"])
def test_parse_solve_inputs_names_the_object_whose_prior_is_not_positive(field, prior, value):
    fields = "Car 0 0 0 0 0 0 0 1.5 1.6 3.9 0 0 10 0".split()
    good = " ".join(fields)
    fields[field] = value
    sidecar = ("1 2 1 " * 9 + "\n") * 3
    with pytest.raises(InputError) as e:
        parse_solve_inputs(f"{good}\n{' '.join(fields)}\n{good}\n", sidecar, CameraModel(700.0, 700.0, 600.0, 170.0),
                           "kp.txt", "priors.txt")
    assert str(e.value) == f"priors.txt, object 1: {prior} prior must be positive"
