"""Subcommand behavior: worked values, exit codes, config echo, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detbox
from detbox import BoundingBox, PredictionGrid, ScaleConfig, decode_grid, nms
from detbox.cli import EffectiveConfig, build_parser, main
from detbox.gradcheck import FD_STEPS
from detbox.infer import detections_from_jsonl, detections_to_jsonl
from detbox.losses import LOSS_KINDS

from conftest import COCO_FIXTURE
from test_infer import M, detection_sets, empty_grid, plant, reference_nms


@pytest.fixture
def worked_scene(tmp_path):
    """One image holding the hand-checked 40x20 box at (100, 60)."""
    doc = {
        "images": [{"id": 1, "width": 640, "height": 480}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [80, 50, 40, 20]}
        ],
        "categories": [{"id": 1}],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def assert_image_size_rejected(argv, capsys, tmp_path):
    """image_size sizes synthetic scenes only, whether it comes from the flag
    or the config file; scene files carry their own."""
    cfg = tmp_path / "size.json"
    cfg.write_text(json.dumps({"image_size": "641x641"}))
    for extra in (["--image-size", "320"], ["--config", str(cfg)]):
        assert main(argv + extra) == 2
        assert "comes from the scene file" in capsys.readouterr().err


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


class TestEncode:
    def test_worked_example_row(self, worked_scene, tmp_path):
        out = tmp_path / "targets.csv"
        code = main(["encode", "--scene", str(worked_scene), "--mode", "center",
                     "--output", str(out)])
        assert code == 0
        config, header, rows = read_csv(out)
        assert header == ["scene", "object", "class", "scale",
                          "cell_x", "cell_y", "l", "t", "r", "b"]
        assert rows[0] == ["1", "0", "1", "0", "12", "7", "3", "1.75", "3", "1.75"]
        assert len(rows) == 3

    def test_aug_mode_emits_at_least_center_rows(self, tmp_path):
        out_c = tmp_path / "c.csv"
        out_a = tmp_path / "a.csv"
        main(["encode", "--scene", str(COCO_FIXTURE), "--mode", "center",
              "--output", str(out_c)])
        main(["encode", "--scene", str(COCO_FIXTURE), "--mode", "aug_center",
              "--output", str(out_a)])
        _, _, rows_c = read_csv(out_c)
        _, _, rows_a = read_csv(out_a)
        assert len(rows_c) == 3 * 57
        assert len(rows_a) >= len(rows_c)

    def test_invalid_scene_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["encode", "--scene", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["encode", "--scene", "/nonexistent/x.json"]) == 2

    def test_image_size_flag_rejected(self, capsys, tmp_path):
        assert_image_size_rejected(["encode", "--scene", str(COCO_FIXTURE)], capsys, tmp_path)


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "gc.json"
        code = main(["gradcheck", "--samples", "100", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["worst_rel_err"] < 1e-5
        assert doc["config"]["seed"] == 3

    def test_zero_samples_is_an_error(self, capsys):
        assert main(["gradcheck", "--samples", "0"]) == 2
        assert "samples" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gradcheck", "--samples", "50", "--seed", "5", "--output", str(a)])
        main(["gradcheck", "--samples", "50", "--seed", "5", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_rho_exits_2(self, capsys):
        for kind in ("sdiou", "mse"):   # rho is checked for every kind, not only where it is read
            assert main(["gradcheck", "--loss", kind, "--rho", "-1", "--samples", "20"]) == 2
            assert "rho must be >= 0, got -1.0" in capsys.readouterr().err

    def test_impossible_tolerance_fails_with_1(self, tmp_path):
        code = main(["gradcheck", "--samples", "20", "--tolerance", "1e-18",
                     "--output", str(tmp_path / "gc.json")])
        assert code == 1

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_every_kind_passes_at_default_flags(self, tmp_path, kind):
        out = tmp_path / "gc.json"
        assert main(["gradcheck", "--loss", kind, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples"] == 1000
        assert doc["config"]["fd_step"] == FD_STEPS[kind]

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_one_flipped_gradient_sign_still_fails(self, tmp_path, monkeypatch, kind):
        original = detbox.gradcheck.regression_loss_grad

        def flipped(pred, truth, loss_kind, rho):
            loss, grad = original(pred, truth, loss_kind, rho)
            return loss, grad * np.array([1.0, 1.0, -1.0, 1.0])

        monkeypatch.setattr(detbox.gradcheck, "regression_loss_grad", flipped)
        assert main(["gradcheck", "--loss", kind, "--samples", "50",
                     "--output", str(tmp_path / "gc.json")]) == 1

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_nan_gradient_fails(self, tmp_path, monkeypatch, kind):
        original = detbox.gradcheck.regression_loss_grad

        def nan_grad(pred, truth, loss_kind, rho):
            loss, grad = original(pred, truth, loss_kind, rho)
            return loss, np.full_like(grad, np.nan)

        monkeypatch.setattr(detbox.gradcheck, "regression_loss_grad", nan_grad)
        out = tmp_path / "gc.json"
        assert main(["gradcheck", "--loss", kind, "--samples", "20", "--output", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        assert doc["worst_rel_err_distance"] == "inf"

    @pytest.mark.parametrize("step", ["0", "nan", "inf"])
    def test_degenerate_fd_step_exits_2(self, capsys, step):
        assert main(["gradcheck", "--samples", "5", "--fd-step", step]) == 2
        assert "fd step must be finite and nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--tolerance", "-1"], "tolerance must be finite and > 0, got -1.0"),
        (["--tolerance", "0"], "tolerance must be finite and > 0, got 0.0"),
        # 0.1 rejects every draw; 0.01 leaves no box width to draw
        (["--gains", "0.1,0.1,0.1"], "at gains (0.1, 0.1, 0.1)"),
        (["--gains", "0.01,0.01,0.01"], "at gains (0.01, 0.01, 0.01)"),
        # no box side fits between 0.2 strides and the image side less 2 px
        (["--strides", "2", "--gains", "2", "--image-size", "2x2"],
         "image size 2x2 is too small to draw a box at stride 2: each side needs at least 2.4 px"),
        (["--strides", "1", "--gains", "2", "--image-size", "1x1"],
         "image size 1x1 is too small to draw a box at stride 1: each side needs at least 2.2 px"),
    ], ids=["tolerance-negative", "tolerance-zero", "gains-0.1", "gains-0.01", "image-2x2",
            "image-1x1"])
    def test_unusable_setting_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "gc.json"
        assert main(["gradcheck", "--samples", "5", *flags, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_small_image_passes(self, tmp_path):
        # 96 pixels cannot hold the 6-stride boxes drawn on larger images
        out = tmp_path / "gc.json"
        assert main(["gradcheck", "--image-size", "96", "--samples", "200",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["image_w"] == 96


@pytest.mark.parametrize("argv, message", [
    (["fit", "--lr", "nan", "--steps", "3"], "learning_rate must be finite and > 0"),
    (["compare-losses", "--lr", "inf", "--scenes", "1", "--steps", "3"],
     "learning_rate must be finite and > 0"),
    (["fit", "--rho", "nan", "--steps", "3"], "rho must be >= 0"),
    (["gradcheck", "--rho", "nan", "--samples", "5"], "rho must be >= 0"),
    (["fit", "--loss", "giou", "--rho", "inf", "--steps", "3"], "rho must be >= 0"),
    (["fit", "--loss", "ciou", "--rho", "nan", "--steps", "3"], "rho must be >= 0"),
    (["gradcheck", "--loss", "mse", "--rho", "nan", "--samples", "5"], "rho must be >= 0"),
    (["compare-losses", "--losses", "giou,mse", "--rho", "inf", "--scenes", "1", "--steps", "3"],
     "rho must be >= 0"),
    (["detect", "--grid", "GRID", "--conf-threshold", "nan"], "conf_threshold must be finite"),
    (["detect", "--grid", "GRID", "--nms-threshold", "nan"], "nms_threshold must be finite"),
    (["detect", "--grid", "GRID", "--nms-threshold", "inf"], "nms_threshold must be finite"),
    (["nms", "--detections", "DETS", "--conf-threshold", "nan"], "conf_threshold must be finite"),
    (["nms", "--detections", "DETS", "--nms-threshold", "nan"], "nms_threshold must be finite"),
    (["nms", "--detections", "DETS", "--nms-threshold", "inf"], "nms_threshold must be finite"),
    (["gradcheck", "--tolerance", "nan", "--samples", "5"],
     "tolerance must be finite and > 0, got nan"),
    (["gradcheck", "--tolerance", "inf", "--samples", "5"],
     "tolerance must be finite and > 0, got inf"),
], ids=["fit-lr-nan", "compare-losses-lr-inf", "fit-rho-nan", "gradcheck-rho-nan",
        "fit-giou-rho-inf", "fit-ciou-rho-nan", "gradcheck-mse-rho-nan",
        "compare-losses-giou-mse-rho-inf",
        "detect-conf-nan", "detect-nms-nan", "detect-nms-inf",
        "nms-conf-nan", "nms-nms-nan", "nms-nms-inf",
        "gradcheck-tolerance-nan", "gradcheck-tolerance-inf"])
def test_non_finite_setting_exits_2(argv, message, tmp_path, capsys):
    # a NaN or infinite step never converges, and a NaN or infinite rho is no
    # verdict on the gradients, whether the kind reads it or not; a NaN confidence
    # threshold keeps nothing and a NaN or infinite IoU threshold suppresses
    # nothing, and a NaN gradcheck tolerance fails every check and an infinite
    # one none, on inputs that are valid otherwise
    dets = tmp_path / "dets.jsonl"
    dets.write_text(_det_line(0, 0, 10, 10, 0.9, 1) + "\n")
    files = {"GRID": str(_detect_grid(tmp_path)[0]), "DETS": str(dets)}
    out = tmp_path / "out"
    assert main([files.get(a, a) for a in argv] + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["nms", "--detections", "MISSING"], "cannot read detections"),
    (["nms", "--detections", "REVERSED"], "bad detection on line 1: corners out of order"),
    (["gradcheck", "--samples", "5", "--config", "MISSING"], "No such file or directory"),
    (["gradcheck", "--samples", "5", "--config", "NOT_JSON"], "Expecting property name"),
    (["gradcheck", "--samples", "5", "--config", "LIST"], "expected a JSON object"),
    (["gradcheck", "--samples", "5", "--config", "NO_STRIDES"],
     "at least one stride is required"),
    (["gradcheck", "--samples", "5", "--strides", "0,8"], "strides must be positive"),
    (["fit", "--objects", "-1", "--steps", "1"], "n_objects must be >= 0, got -1"),
    (["fit", "--image-size", "96", "--size-max", "100", "--steps", "1"],
     "size_max must be smaller than the image"),
], ids=["nms-missing-file", "nms-x2-below-x1", "config-missing-file", "config-not-json",
        "config-list", "config-no-strides", "zero-stride", "negative-objects",
        "size-max-above-image"])
def test_input_that_fails_a_check_exits_2(argv, message, tmp_path, capsys):
    files = {"MISSING": tmp_path / "missing", "REVERSED": tmp_path / "reversed.jsonl",
             "NOT_JSON": tmp_path / "not.json", "LIST": tmp_path / "list.json",
             "NO_STRIDES": tmp_path / "no_strides.json"}
    files["REVERSED"].write_text(_det_line(10, 0, 5, 10, 0.9, 1) + "\n")
    files["NOT_JSON"].write_text("{strides: 8}")
    files["LIST"].write_text("[8, 16]")
    files["NO_STRIDES"].write_text(json.dumps({"strides": []}))
    out = tmp_path / "out"
    assert main([str(files.get(a, a)) for a in argv] + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.err.startswith(f"detbox {argv[0]}: error:") and captured.out == ""
    assert not out.exists()


class TestFit:
    def test_default_single_object_converges(self, tmp_path):
        out = tmp_path / "fit.json"
        trace = tmp_path / "trace.csv"
        code = main(["fit", "--seed", "4", "--output", str(out),
                     "--trace", str(trace)])
        assert code == 0
        doc = json.loads(out.read_text())
        report = doc["reports"][0]
        assert report["final_iou"][0] > 0.99
        assert report["success_rate"] == 1.0
        config, header, rows = read_csv(trace)
        assert header[:3] == ["scene", "step", "loss"]
        assert len(rows) == 501

    def test_unknown_loss_lists_valid_set(self, capsys):
        assert main(["fit", "--loss", "hinge"]) == 2

    def test_negative_rho_exits_2(self, capsys):
        for kind in ("sdiou", "giou"):   # rho is checked for every kind, not only where it is read
            assert main(["fit", "--loss", kind, "--rho", "-1", "--steps", "3"]) == 2
            assert "rho must be >= 0, got -1.0" in capsys.readouterr().err

    def test_scale_flags_reach_the_harness(self, tmp_path):
        # a single-stride pyramid leaves at most 3 positive cells per object
        out = tmp_path / "fit.json"
        code = main(["fit", "--strides", "8", "--gains", "2", "--steps", "50",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["strides"] == [8]
        assert doc["reports"][0]["n_records"] <= 3

    def test_negative_class_id_exits_2_with_multitask(self, worked_scene, tmp_path, capsys):
        doc = json.loads(worked_scene.read_text())
        doc["annotations"][0]["category_id"] = doc["categories"][0]["id"] = -1
        worked_scene.write_text(json.dumps(doc))
        out = tmp_path / "fit.json"
        argv = ["fit", "--scene", str(worked_scene), "--steps", "2", "--output", str(out)]
        assert main(argv + ["--multitask"]) == 2
        err = capsys.readouterr().err
        assert err == "detbox fit: error: multitask class ids must be >= 0, got -1\n"
        assert not out.exists()
        assert main(argv) == 0   # a plain fit reads no class

    def test_coco_scene_input(self, worked_scene, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--scene", str(worked_scene), "--steps", "120",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["scene"] == "1"
        assert doc["reports"][0]["final_iou"][0] > 0.9

    def test_image_size_flag_rejected_with_scene(self, worked_scene, capsys, tmp_path):
        assert_image_size_rejected(
            ["fit", "--scene", str(worked_scene), "--steps", "1"], capsys, tmp_path
        )


class TestCompareLosses:
    def test_table_has_one_row_per_kind(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["compare-losses", "--scenes", "2", "--steps", "80",
                     "--losses", "mse,giou,ciou,sdiou", "--output", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert [r[0] for r in rows] == ["mse", "giou", "ciou", "sdiou"]

    def test_unknown_loss_exits_2(self, capsys):
        assert main(["compare-losses", "--losses", "sdiou,l2"]) == 2
        err = capsys.readouterr().err
        assert "valid" in err and "giou" in err

    def test_image_size_flag_rejected_with_scene(self, worked_scene, capsys, tmp_path):
        assert_image_size_rejected(
            ["compare-losses", "--scene", str(worked_scene), "--steps", "1"], capsys, tmp_path
        )


class TestAssignStats:
    def test_center_mode_counts(self, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["assign-stats", "--scene", str(COCO_FIXTURE),
                     "--mode", "center", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["positives"]["min"] == 3
        assert doc["positives"]["median"] == 3.0
        assert doc["positives"]["max"] == 3
        assert doc["skipped"]["total"] == 6
        assert doc["n_annotations"] == 63

    def test_thresholds_change_survivors(self, tmp_path):
        out_full = tmp_path / "full.json"
        out_gated = tmp_path / "gated.json"
        main(["assign-stats", "--scene", str(COCO_FIXTURE), "--mode", "center",
              "--output", str(out_full)])
        main(["assign-stats", "--scene", str(COCO_FIXTURE), "--mode", "center",
              "--thresholds", "0,32,64,inf", "--output", str(out_gated)])
        full = json.loads(out_full.read_text())
        gated = json.loads(out_gated.read_text())
        assert gated["positives"]["total"] < full["positives"]["total"]
        assert gated["config"]["thresholds"] == [0, 32, 64, "inf"]

    def test_missing_path_exits_2(self):
        assert main(["assign-stats", "--scene", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("images", [[{"id": 1, "width": 640, "height": 480}], []])
    @pytest.mark.parametrize("command", [["assign-stats"], ["encode"], ["fit", "--steps", "2"],
                                         ["compare-losses", "--steps", "2"]])
    def test_wrong_threshold_count_exits_2_without_objects(self, tmp_path, capsys, command,
                                                           images):
        path, out = tmp_path / "scene.json", tmp_path / "out"
        path.write_text(json.dumps({"images": images, "annotations": [], "categories": []}))
        assert main([*command, "--scene", str(path), "--thresholds", "0,inf",
                     "--output", str(out)]) == 2
        assert "need 4 thresholds for 3 scales, got 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["assign-stats"], ["encode"], ["fit", "--steps", "2"],
                                         ["compare-losses", "--steps", "2"]])
    def test_nan_threshold_exits_2(self, tmp_path, capsys, command):
        # the bracket [0, nan] would drop nothing
        out = tmp_path / "out"
        assert main([*command, "--scene", str(COCO_FIXTURE), "--thresholds", "0,nan,64,inf",
                     "--output", str(out)]) == 2
        assert "scale thresholds must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gain", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["assign-stats", "--scene", "COCO"], ["encode", "--scene", "COCO"],
        ["fit", "--scene", "COCO", "--steps", "2"], ["gradcheck", "--samples", "20"],
        ["detect", "--grid", "GRID"]])
    def test_a_gain_that_is_not_finite_exits_2(self, tmp_path, capsys, command, gain):
        # unchecked, a NaN gain drops every scale-0 record and fails a gradcheck
        files = {"COCO": str(COCO_FIXTURE), "GRID": str(_detect_grid(tmp_path)[0])}
        out = tmp_path / "out"
        assert main([files.get(a, a) for a in command] + ["--gains", f"{gain},4,16",
                                                           "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"gains must be finite and > 0, got ({gain}, 4.0, 16.0)" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("field, value, where", [
        *(("y", v, "bbox of annotation for image 1") for v in (None, "a", True, "10")),
        ("width", "abc", "image 1"), ("width", None, "image 1"),
        ("height", True, "image 1"), ("height", "10", "image 1"),
    ])
    def test_value_that_is_not_a_json_number_exits_2(self, worked_scene, capsys, field, value,
                                                      where):
        doc = json.loads(worked_scene.read_text())
        if field == "y":   # the bbox entry
            doc["annotations"][0]["bbox"][1] = value
        else:
            doc["images"][0][field] = value
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert f"{worked_scene}: field '{field}' in {where} is not a number: {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["assign-stats"], ["encode"], ["audit"],
                                      ["fit", "--steps", "1"]], ids=lambda a: a[0])
    def test_fractional_image_size_exits_2(self, worked_scene, capsys, argv):
        # the center test reads the true width, so a center at x = 640.2 is inside
        # it; the pyramid has no fractional size to truncate it to
        doc = json.loads(worked_scene.read_text())
        doc["images"][0]["width"] = 640.5
        doc["annotations"].append({"id": 2, "image_id": 1, "category_id": 1,
                                   "bbox": [630.2, 50, 20, 20]})
        worked_scene.write_text(json.dumps(doc))
        assert main([*argv, "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert f"detbox {argv[0]}: error: image size must be whole numbers, got 640.5x480\n" == err

    @pytest.mark.parametrize("section, field, value", [
        ("images", "id", [1]), ("annotations", "image_id", [1]),
        ("categories", "id", {"a": 1}), ("annotations", "category_id", {"a": 1}),
    ])
    def test_id_that_is_a_list_or_object_exits_2(self, worked_scene, capsys, section, field,
                                                 value):
        doc = json.loads(worked_scene.read_text())
        doc[section][0][field] = value
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}' in " in err and f"is not an id: {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("width", -64), ("height", 0)])
    def test_non_positive_image_size_exits_2(self, worked_scene, capsys, field, value):
        # not a center_outside skip of every annotation on the image
        doc = json.loads(worked_scene.read_text())
        doc["images"][0][field] = value
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        size = "-64x480" if field == "width" else "640x0"
        assert f"image size must be positive, got {size}" in err and "Traceback" not in err

    def test_image_ids_of_both_types(self, worked_scene, capsys, tmp_path):
        doc = json.loads(worked_scene.read_text())
        doc["images"] += [{"id": "a", "width": 640, "height": 480}]
        worked_scene.write_text(json.dumps(doc))
        out = tmp_path / "stats.json"
        assert main(["assign-stats", "--scene", str(worked_scene), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n_scenes"] == 2

    @pytest.mark.parametrize("section, field, value", [
        ("images", "id", True), ("images", "id", 1.0), ("annotations", "image_id", 1.0),
    ])
    def test_image_id_that_would_alias_an_integer_exits_2(self, worked_scene, capsys, section,
                                                           field, value):
        doc = json.loads(worked_scene.read_text())
        doc[section][0][field] = value
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}' in " in err and f"is not an id: {value!r}" in err
        assert "Traceback" not in err

    def test_duplicate_image_id_exits_2(self, worked_scene, capsys):
        doc = json.loads(worked_scene.read_text())
        doc["images"] *= 2
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert "duplicate image id 1" in err and "Traceback" not in err

    def test_image_ids_that_print_the_same_exit_2(self, worked_scene, capsys):
        doc = json.loads(worked_scene.read_text())
        doc["images"] += [{**doc["images"][0], "id": "1"}]
        worked_scene.write_text(json.dumps(doc))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert "duplicate image id '1': image id 1 reads the same" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new, message", [
        ('"images": [', '"images": null, "_": [', "field 'images' in document is not a list: None"),
        ('"annotations": [', '"annotations": 3, "_": [',
         "field 'annotations' in document is not a list: 3"),
        ('"width": 640', '"width": 1e400', "field 'width' in image 1 is not finite: inf"),
        ('"categories": [{"id": 1}]', '"categories": [{"id": 1.5}]',
         "field 'id' in category is not an id: 1.5"),
        ('"category_id": 1', '"category_id": 1.0',
         "field 'category_id' in annotation for image 1 is not an id: 1.0"),
        ('"category_id": 1', '"category_id": 1, "iscrowd": [1]',
         "field 'iscrowd' in annotation for image 1 is not a number: [1]"),
    ], ids=["images-null", "annotations-3", "width-1e400", "category-1.5", "category_id-1.0",
            "iscrowd-list"])
    def test_field_of_the_wrong_json_type_exits_2(self, worked_scene, capsys, old, new,
                                                  message):
        # each once raised a TypeError or OverflowError, or was read as another value
        text = worked_scene.read_text()
        assert old in text
        worked_scene.write_text(text.replace(old, new))
        assert main(["assign-stats", "--scene", str(worked_scene)]) == 2
        err = capsys.readouterr().err
        assert f"{worked_scene}: {message}" in err and "Traceback" not in err

    def test_image_size_flag_rejected(self, capsys, tmp_path):
        assert_image_size_rejected(["assign-stats", "--scene", str(COCO_FIXTURE)], capsys,
                                   tmp_path)


class TestAudit:
    def test_reports_engineered_collision(self, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["audit", "--scene", str(COCO_FIXTURE), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        details = doc["collisions"]["details"]
        assert {"scene": "1", "scale": 2, "cell": [3, 3], "objects": [4, 5]} in details

    def test_image_size_flag_rejected(self, capsys, tmp_path):
        assert_image_size_rejected(["audit", "--scene", str(COCO_FIXTURE)], capsys, tmp_path)

    @pytest.mark.parametrize("command", ["assign-stats", "audit"])
    def test_sliver_box_is_in_no_collision(self, tmp_path, command):
        # the second box's corners round to x1 == x2 == 105: it has no area,
        # so it overlaps nothing, though its center shares the first's cells
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                                "bbox": [100, 100, 20, 20]},
                               {"id": 2, "image_id": 1, "category_id": 1,
                                "bbox": [105, 105, 1e-14, 10]}],
               "categories": [{"id": 1}]}
        scene, out = tmp_path / "sliver.json", tmp_path / "out.json"
        scene.write_text(json.dumps(doc))
        assert main([command, "--scene", str(scene), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["collisions"]["details"] == []


def test_scene_files_size_their_own_pyramids(tmp_path):
    """Strides that divide every scene's size but not the synthetic 640x640."""
    doc = {
        "images": [{"id": 1, "width": 480, "height": 480}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [200, 210, 90, 70]}
        ],
        "categories": [{"id": 1}],
    }
    scene = tmp_path / "scene480.json"
    scene.write_text(json.dumps(doc))
    flags = ["--scene", str(scene), "--strides", "8,16,48", "--gains", "2,4,16",
             "--output", str(tmp_path / "out")]
    for command in (["encode"], ["assign-stats"], ["audit"], ["fit", "--steps", "2"]):
        assert main(command + flags) == 0, command


def _det_line(x1, y1, x2, y2, score, class_id, scale=0):
    return (f'{{"x1":{x1},"y1":{y1},"x2":{x2},"y2":{y2},'
            f'"score":{score},"class":{class_id},"scale":{scale}}}')


# one of each JSON kind, and numbers at and past every edge a setting or field checks
_CONFIG_VALUES = [None, True, "a", [1], {}, math.nan, math.inf, -1, 1e30, 0, 1.5, -0.0, []]


def _jsonl_accepts(field, value):
    """Whether ``detections_from_jsonl``'s docstring rules accept ``value`` in
    ``field`` of ``_det_line(0, 0, 10, 10, 0.9, 1)``."""
    if type(value) not in (int, float) or not math.isfinite(value):
        return False
    if field in ("x1", "y1"):   # corners in order
        return value <= 10
    if field in ("x2", "y2"):
        return value >= 0
    if field in ("class", "scale"):   # whole, within int64, a class at least 0
        return value == int(value) and -2**63 <= value < 2**63 and (
            field == "scale" or value >= 0)
    return True


# a COCO document holding a shared-cell collision and a second image
_COCO_DOC = {
    "images": [{"id": 1, "width": 640, "height": 480}, {"id": 2, "width": 320, "height": 320}],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [80, 80, 40, 40], "iscrowd": 0},
        {"id": 2, "image_id": 1, "category_id": 2, "bbox": [82, 80, 40, 40]},
        {"id": 3, "image_id": 2, "category_id": 2, "bbox": [10, 20, 30, 5]},
    ],
    "categories": [{"id": 1}, {"id": 2}],
}
# every field, as a key path into _COCO_DOC; "pair" puts one value into both
# the first category's id and the first annotation's category_id
_COCO_FIELDS = [
    ("images",), ("images", 0), ("images", 0, "id"), ("images", 0, "width"),
    ("images", 0, "height"), ("annotations",), ("annotations", 0), ("annotations", 0, "id"),
    ("annotations", 0, "image_id"), ("annotations", 0, "category_id"),
    ("annotations", 0, "bbox"), *(("annotations", 0, "bbox", k) for k in range(4)),
    ("annotations", 0, "iscrowd"), ("categories",), ("categories", 0), ("categories", 0, "id"),
    "pair",
]
_MISSING = object()   # the field left out


@st.composite
def coco_documents(draw, field):
    """``_COCO_DOC`` with ``field`` set to a drawn value: one of the config
    values, 10**30 and +-10**400 as JSON integers too, or left out."""
    value = draw(st.sampled_from([*_CONFIG_VALUES, 10**30, 10**400, -10**400, _MISSING]))
    doc = json.loads(json.dumps(_COCO_DOC))
    paths = [("categories", 0, "id"), ("annotations", 0, "category_id")] if field == "pair" \
        else [field]
    for path in paths:
        if len(path) == 1 and value is _MISSING:
            del doc[path[0]]
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


class TestCocoFuzz:
    @settings(max_examples=20)
    @pytest.mark.parametrize("field", _COCO_FIELDS, ids=str)
    @pytest.mark.parametrize("argv", [["assign-stats"], ["audit"], ["encode"],
                                      ["fit", "--steps", "1"]], ids=lambda a: a[0])
    @given(data=st.data())
    def test_any_value_in_any_field_exits_0_or_2(self, tmp_path_factory, argv, field, data):
        doc = data.draw(coco_documents(field))
        scene = tmp_path_factory.mktemp("coco") / "scene.json"
        scene.write_text(json.dumps(doc))
        out = scene.with_name("out.json")
        command = argv[0]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--scene", str(scene), "--output", str(out)])
        assert code in (0, 2)
        assert out.exists() == (code == 0)
        if code == 2:
            assert err.getvalue().startswith(f"detbox {command}: error: ")
            return
        # every annotation converts or is counted as a skip
        if command == "assign-stats":
            stats = json.loads(out.read_text())
            assert stats["n_objects"] + stats["skipped"]["total"] == stats["n_annotations"]
        else:
            loaded = detbox.load_coco(scene)
            assert loaded.n_converted + loaded.skipped.total == loaded.n_annotations


@pytest.mark.parametrize("argv", [["encode"], ["assign-stats"], ["audit"],
                                  ["fit", "--steps", "1"], ["compare-losses", "--steps", "1"]],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("category", [2**70, 2**63, -2**63 - 1])
def test_category_id_outside_int64_exits_2(worked_scene, capsys, tmp_path, argv, category):
    # a valid JSON integer once gave an OverflowError traceback at the int64 class column
    doc = json.loads(worked_scene.read_text())
    doc["annotations"][0]["category_id"] = doc["categories"][0]["id"] = category
    worked_scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--scene", str(worked_scene), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (f"detbox {argv[0]}: error: {worked_scene}: category id "
                                       f"{category} does not fit in 64 bits\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["assign-stats"], ["audit"], ["encode"], ["fit", "--steps", "1"]],
                         ids=lambda a: a[0])
def test_image_size_integer_too_large_for_a_float_exits_2(worked_scene, capsys, tmp_path, argv):
    # a JSON integer past the float range once gave an OverflowError traceback
    doc = json.loads(worked_scene.read_text())
    doc["images"][0]["width"] = 10**400
    worked_scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--scene", str(worked_scene), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"detbox {argv[0]}: error: {worked_scene}: field 'width' in image ")
    assert "is not finite: 1000" in err and not out.exists()


@pytest.mark.parametrize("category", [2**63 - 1, -2**63])
def test_category_id_at_the_int64_limits_is_read(worked_scene, tmp_path, category):
    doc = json.loads(worked_scene.read_text())
    doc["annotations"][0]["category_id"] = doc["categories"][0]["id"] = category
    worked_scene.write_text(json.dumps(doc))
    out = tmp_path / "records.csv"
    assert main(["encode", "--scene", str(worked_scene), "--output", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert {row[header.index("class")] for row in rows} == {str(category)}


class TestNmsCommand:
    def test_duplicate_boxes_collapse(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(
            _det_line(0, 0, 10, 10, 0.9, 1) + "\n" +
            _det_line(0, 0, 10, 10, 0.8, 1) + "\n"
        )
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 0
        kept = detections_from_jsonl(out.read_text())
        assert len(kept) == 1
        assert kept[0].score == pytest.approx(0.9)

    def test_threshold_above_one_keeps_all(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(
            _det_line(0, 0, 10, 10, 0.9, 1) + "\n" +
            _det_line(1, 0, 11, 10, 0.8, 1) + "\n"
        )
        out = tmp_path / "kept.jsonl"
        main(["nms", "--detections", str(src), "--nms-threshold", "1.01",
              "--output", str(out)])
        assert len(detections_from_jsonl(out.read_text())) == 2

    def test_default_thresholds_echoed(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(_det_line(0, 0, 10, 10, 0.9, 1) + "\n")
        out = tmp_path / "kept.jsonl"
        main(["nms", "--detections", str(src), "--output", str(out)])
        header = out.read_text().splitlines()[0]
        config = json.loads(header[len("# config: "):])
        assert config["conf_threshold"] == 0.001
        assert config["nms_threshold"] == 0.6

    def test_confidence_prefilter(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(
            _det_line(0, 0, 10, 10, 0.9, 1) + "\n" +
            _det_line(50, 50, 60, 60, 0.0005, 2) + "\n"
        )
        out = tmp_path / "kept.jsonl"
        main(["nms", "--detections", str(src), "--output", str(out)])
        assert len(detections_from_jsonl(out.read_text())) == 1

    def test_zero_area_box_is_kept(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(
            _det_line(0, 0, 10, 10, 0.9, 1) + "\n" +
            _det_line(5, 0, 5, 10, 0.8, 1) + "\n"
        )
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 0
        assert len(detections_from_jsonl(out.read_text())) == 2

    def test_negative_class_exits_2(self, tmp_path, capsys):
        src = tmp_path / "dets.jsonl"
        src.write_text(_det_line(0, 0, 10, 10, 0.9, -1) + "\n")
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 2
        assert "bad detection on line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("class_id, scale", [(2.7, 0), (2, 1.9), (-0.5, 0)])
    def test_class_or_scale_that_is_not_whole_exits_2(self, tmp_path, capsys, class_id, scale):
        src = tmp_path / "dets.jsonl"
        src.write_text(_det_line(0, 0, 10, 10, 0.9, class_id, scale) + "\n")
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad detection on line 1" in err and "whole numbers" in err
        assert not out.exists()

    def test_integral_float_class_and_scale_read_as_ints(self, tmp_path):
        src = tmp_path / "dets.jsonl"
        src.write_text(_det_line(0, 0, 10, 10, 0.9, 2.0, 1.0) + "\n")
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 0
        (row,) = detections_from_jsonl(out.read_text())
        assert (row.class_id, row.scale_index) == (2, 1)
        assert '"class":2,"scale":1' in out.read_text().replace(" ", "")

    def test_decoded_nan_class_logit_round_trips(self, tmp_path):
        scale = ScaleConfig()
        levels = empty_grid(scale)
        plant(levels, scale, BoundingBox(241.5, 133.25, 58.0, 37.5), scale_index=1, class_id=2)
        cell = plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0)
        levels[0][cell[0], cell[1], 5] = np.nan
        src = tmp_path / "dets.jsonl"
        src.write_text(detections_to_jsonl(decode_grid(PredictionGrid(tuple(levels)), scale).detections))
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 0
        assert [d.class_id for d in detections_from_jsonl(out.read_text())] == [2]

    @pytest.mark.parametrize("bad", ['"x1":NaN', '"score":Infinity', '"y2":-Infinity',
                                     '"x1":"0","y1":"0","x2":"10","y2":"10"', '"score":true'])
    def test_field_that_is_not_a_finite_number_exits_2(self, tmp_path, capsys, bad):
        line = _det_line(0, 0, 10, 10, 0.9, 1)
        src = tmp_path / "dets.jsonl"
        src.write_text(line + "\n" + line[:-1] + "," + bad + "}\n")   # the last key wins
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad detection on line 2" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line, kind", [("[0, 0, 10, 10]", "list"), ('"det"', "str"),
                                            ("3.5", "float"), ("null", "NoneType")])
    def test_line_that_is_not_an_object_exits_2(self, tmp_path, capsys, line, kind):
        src = tmp_path / "dets.jsonl"
        src.write_text(line + "\n")
        out = tmp_path / "kept.jsonl"
        assert main(["nms", "--detections", str(src), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"detbox nms: error: bad detection on line 1: expected a JSON object, got {kind}\n")
        assert not out.exists()

    @settings(max_examples=40)
    @given(value=st.sampled_from(_CONFIG_VALUES))
    @pytest.mark.parametrize("field", ["x1", "y1", "x2", "y2", "score", "class", "scale"])
    def test_any_json_value_in_any_field_exits_0_or_2(self, tmp_path_factory, field, value):
        line = json.loads(_det_line(0, 0, 10, 10, 0.9, 1))
        line[field] = value
        src = tmp_path_factory.mktemp("nms") / "dets.jsonl"
        src.write_text(json.dumps(line) + "\n")
        out = src.with_name("kept.jsonl")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["nms", "--detections", str(src), "--output", str(out)])
        assert code == (0 if _jsonl_accepts(field, value) else 2)
        assert out.exists() == (code == 0)
        if code == 2:
            assert err.getvalue().startswith("detbox nms: error: bad detection on line 1: ")

    def test_reads_back_what_it_writes(self, tmp_path):
        path, _, _ = _detect_grid(tmp_path)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert main(["detect", "--grid", str(path), "--output", str(first)]) == 0
        assert main(["nms", "--detections", str(first), "--output", str(second)]) == 0
        body = first.read_text().splitlines()[1:]
        assert second.read_text().splitlines()[1:] == body and len(body) == 2

    @settings(max_examples=100)
    @given(dets=detection_sets(), conf=st.sampled_from([0.0, 0.3, 0.6]),
           threshold=st.sampled_from([0.0, 0.5, 1.01]))
    def test_equals_the_row_by_row_referee(self, tmp_path_factory, dets, conf, threshold):
        # the rows the file parses into, filtered one by one, then the referee
        text = detections_to_jsonl(dets)
        rows = [d for d in detections_from_jsonl(text) if d.score >= conf]
        want = detections_to_jsonl(reference_nms(rows, threshold))
        src = tmp_path_factory.mktemp("nms") / "dets.jsonl"
        src.write_text(text)
        out = src.with_name("kept.jsonl")
        assert main(["nms", "--detections", str(src), "--conf-threshold", str(conf),
                     "--nms-threshold", str(threshold), "--output", str(out)]) == 0
        assert out.read_text().split("\n", 1)[1] == want


def _detect_grid(tmp_path):
    """Two overlapping same-class boxes, one other class, one degenerate cell."""
    scale = ScaleConfig()
    levels = empty_grid(scale)
    box = BoundingBox(241.5, 133.25, 58.0, 37.5)
    plant(levels, scale, box, scale_index=1, class_id=2)
    plant(levels, scale, box, scale_index=2, objectness=5.0, class_id=2)
    plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0,
          objectness=4.0, class_id=1)
    levels[0][4, 4, :4] = -12.0
    levels[0][4, 4, 4] = 9.0
    path = tmp_path / "grid.npz"
    np.savez(path, *levels)
    return path, levels, scale


class TestDetectCommand:
    def test_output_equals_the_python_api(self, tmp_path, capsys):
        path, levels, scale = _detect_grid(tmp_path)
        out = tmp_path / "kept.jsonl"
        assert main(["detect", "--grid", str(path), "--nms-threshold", "0.5",
                     "--output", str(out)]) == 0
        decoded = decode_grid(PredictionGrid(tuple(levels)), scale, 0.001)
        kept = nms(decoded.detections, 0.5)
        echo = {"command": "detect", "conf_threshold": 0.001, "gains": [2.0, 4.0, 16.0],
                "grid": str(path), "image_h": 640, "image_w": 640, "nms_threshold": 0.5,
                "rho": 1.0, "seed": 0, "strides": [8, 16, 32]}
        header = "# config: " + json.dumps(echo, sort_keys=True) + "\n"
        assert out.read_text() == header + detections_to_jsonl(kept)
        assert [d.class_id for d in kept] == [2, 1]
        err = capsys.readouterr().err
        assert err == "detbox detect: cells_in=8400 dropped_degenerate=1 dets_out=3 kept=2\n"

    def test_conf_threshold_applies_to_objectness(self, tmp_path):
        path, _, _ = _detect_grid(tmp_path)
        out = tmp_path / "kept.jsonl"
        assert main(["detect", "--grid", str(path), "--conf-threshold", "0.99",
                     "--output", str(out)]) == 0
        assert [d.class_id for d in detections_from_jsonl(out.read_text())] == [2]

    @pytest.mark.parametrize("bad, message", [
        ("missing_key", "levels must be ['arr_0', 'arr_1', 'arr_2']"),
        ("level_count", "grid has 2 levels, scale config 3"),
        ("shape", "level 0 is (79, 80), expected (80, 80)"),
        ("not_npz", "not an np.savez archive"),   # numpy would read it as a pickle
        ("empty", "not an np.savez archive"),
        ("complex", "levels must be real"),
        ("npy", "not an np.savez archive"),
        ("flat", "levels must be 3-d"),
        ("channels", "levels disagree on channel count"),
        ("five_channels", "need at least 6 channels"),
        ("no_levels", "a grid needs at least one level, got none"),   # an archive of no arrays
        # a float cast would read each of these; '-10.0' parses and bools make detections
        ("string", "levels must hold integers or floats, got dtype <U"),
        ("datetime", "levels must hold integers or floats, got dtype datetime64[s]"),
        ("bool", "levels must hold integers or floats, got dtype bool"),
        ("void", "levels must hold integers or floats, got dtype |V8"),
        ("object", "level arr_1 is not a numeric array"),   # np.load refuses it unpickled
    ], ids=["missing_key", "level_count", "shape", "not_npz", "empty", "complex", "npy", "flat",
            "channels", "five_channels", "no_levels", "string", "datetime", "bool", "void",
            "object"])
    def test_bad_grid_exits_2(self, tmp_path, capsys, bad, message):
        _, levels, _ = _detect_grid(tmp_path)
        path = tmp_path / "bad.npz"
        if bad == "missing_key":
            np.savez(path, arr_0=levels[0], arr_1=levels[1], arr_3=levels[2])
        elif bad == "level_count":
            np.savez(path, *levels[:2])
        elif bad == "shape":
            np.savez(path, levels[0][:-1], *levels[1:])
        elif bad == "complex":   # a float cast would drop the imaginary part
            np.savez(path, levels[0], levels[1] + 1j, levels[2])
        elif bad == "npy":   # one level, saved on its own
            path = tmp_path / "bad.npy"
            np.save(path, levels[0])
        elif bad == "flat":
            np.savez(path, levels[0][..., 0], *levels[1:])
        elif bad == "channels":
            np.savez(path, levels[0], levels[1][..., :-1], levels[2])
        elif bad == "five_channels":
            np.savez(path, *(level[..., :5] for level in levels))
        elif bad == "no_levels":
            np.savez(path)
        elif bad in ("string", "datetime", "bool", "void", "object"):
            dtype = {"string": str, "datetime": "datetime64[s]", "bool": bool, "void": "V8",
                     "object": object}[bad]
            np.savez(path, levels[0], levels[1].astype(dtype), levels[2])
        elif bad == "empty":
            path.write_bytes(b"")
        else:
            path.write_text("not an archive")
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no ComplexWarning either
            assert main(["detect", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("detbox detect: error:") and "Traceback" not in err
        assert message in err and "allow_pickle" not in err
        assert ("levels must be real" in err) == (bad == "complex")


# what a level's dtype may become: numbers detect reads, and kinds it refuses
_GRID_DTYPES = ["<f8", ">f4", "f2", "<i8", "u1", "bool", "complex128", "<U8", "datetime64[s]",
                "timedelta64[s]", "V8", "object"]
_GRID_VALUES = [np.nan, np.inf, -np.inf, 1e308, -1e308]
_GRID_SHAPES = ["ndim2", "ndim4", "channels", "grid", "zero"]   # ndim, channels, grid size


@st.composite
def npz_grids(draw, fault):
    """The members of an ``np.savez`` archive: a valid grid for a 64x64 image
    at the default strides, with NaN, infinite and huge values drawn in, and
    then ``fault``, if any: a drawn level count or key name, or one level
    changed in the way of :data:`_GRID_SHAPES` or cast to the dtype named."""
    scale = ScaleConfig().for_image(64, 64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = [rng.normal(0.0, 4.0, (*scale.grid_size(i), 5 + M)) for i in range(3)]
    if fault == "count":
        levels.append(rng.normal(0.0, 4.0, (2, 2, 5 + M)))
        levels = levels[:draw(st.sampled_from([0, 1, 2, 4]))]
    for a in levels:
        for value, at in draw(st.lists(st.tuples(st.sampled_from(_GRID_VALUES), st.integers(0)),
                                       max_size=3)):
            a.flat[at % a.size] = value
        if draw(st.booleans()):   # one channel of every cell
            a[..., draw(st.integers(0, 4 + M))] = draw(st.sampled_from(_GRID_VALUES))
    k = draw(st.integers(0, max(len(levels) - 1, 0)))
    if fault == "ndim2":
        levels[k] = levels[k][..., 0]
    elif fault == "ndim4":
        levels[k] = levels[k][..., None]
    elif fault == "channels":
        levels[k] = levels[k][..., :draw(st.integers(0, 4 + M))]
    elif fault == "grid":   # a cell short, or the axes swapped on a non-square level
        levels[k] = levels[k][:-1] if draw(st.booleans()) else levels[k].swapaxes(0, 1)[:, :1]
    elif fault == "zero":
        levels[k] = levels[k][:0]
    elif fault in _GRID_DTYPES:
        with np.errstate(all="ignore"):
            levels[k] = levels[k].astype(fault)
    names = [f"arr_{i}" for i in range(len(levels))]
    if fault == "name":
        names[k] = draw(st.sampled_from(["arr_9", "arr_01", "x", "arr_0"]))
    return dict(zip(names, levels))


@settings(max_examples=15)
@pytest.mark.parametrize("fault", [None, "count", "name", *_GRID_SHAPES, *_GRID_DTYPES])
@given(data=st.data())
def test_any_npz_grid_exits_0_or_2(tmp_path_factory, fault, data):
    members = data.draw(npz_grids(fault))
    path = tmp_path_factory.mktemp("grid") / "grid.npz"
    np.savez(path, **members)
    out = path.with_name("kept.jsonl")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["detect", "--grid", str(path), "--image-size", "64x64",
                     "--output", str(out)])
    assert code in (0, 2)
    assert out.exists() == (code == 0)
    if code == 2:
        assert err.getvalue().startswith("detbox detect: error: ")
        assert "allow_pickle" not in err.getvalue()
    else:
        detections_from_jsonl(out.read_text())


def _tie_heavy_detections(path, n=400, seed=7):
    """Integer boxes (duplicates and zero areas common), scores and classes
    from small sets, some lines below the default confidence threshold."""
    rng = np.random.default_rng(seed)
    lines = ["# config: {}"]
    for _ in range(n):
        x1, y1, w, h = rng.integers(0, 12, 4).tolist()
        score = [0.25, 0.5, 1.0, 0.0005][rng.integers(4)]
        lines.append(_det_line(x1, y1, x1 + w % 8, y1 + h % 8, score, int(rng.integers(5)),
                               int(rng.integers(3))))
    path.write_text("\n".join(lines) + "\n")


def _tie_heavy_grid(path, seed=7):
    """A 128x128 pyramid whose logits come from small sets, so objectness and
    class scores tie exactly, with NaN logits and collapsed boxes."""
    rng = np.random.default_rng(seed)
    levels = []
    for n in (16, 8, 4):
        arr = np.empty((n, n, M + 5))
        arr[..., :4] = rng.choice([-12.0, -1.0, 0.0, 0.5, 1.5, np.nan], size=(n, n, 4),
                                  p=[0.05, 0.2, 0.3, 0.2, 0.2, 0.05])
        arr[..., 4] = rng.choice([-40.0, -3.0, 0.0, 2.0], size=(n, n))
        arr[..., 5:] = rng.choice([0.0, 1.0, 2.0, np.nan], size=(n, n, M),
                                  p=[0.4, 0.3, 0.28, 0.02])
        levels.append(arr)
    np.savez(path, *levels)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenBytes:
    """Output bytes pinned by hash, so that a change to the writer shows even
    where the other tests compare against ``detections_to_jsonl``."""

    def test_nms(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _tie_heavy_detections(tmp_path / "dets.jsonl")
        assert main(["nms", "--detections", "dets.jsonl", "--output", "a.jsonl"]) == 0
        assert main(["nms", "--detections", "dets.jsonl", "--nms-threshold", "0",
                     "--conf-threshold", "0.3", "--output", "b.jsonl"]) == 0
        assert _sha256("a.jsonl") == (
            "3ae68152ea365e0cb1562ca00ca01c5f89e93b7246a2dfa3ddc44583efc62979")
        assert _sha256("b.jsonl") == (
            "804285e9e2a54b7648012d5ee106fd9223af8f69cbd1754326d86a9a163d4b6c")

    def test_detect(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _tie_heavy_grid(tmp_path / "grid.npz")
        flags = ["detect", "--grid", "grid.npz", "--image-size", "128"]
        assert main(flags + ["--output", "a.jsonl"]) == 0
        assert main(flags + ["--nms-threshold", "0.2", "--output", "b.jsonl"]) == 0
        assert _sha256("a.jsonl") == (
            "94494fab10fb908b20cee3ed5159b33a3bd04dee1833dcc607b18f4970b32454")
        assert _sha256("b.jsonl") == (
            "4a3d5411c83487843d9f3f005e3c08c7e5040930059993825921ce9d668d47e4")
        assert capsys.readouterr().err == (
            "detbox detect: cells_in=336 dropped_degenerate=74 dets_out=192 kept=188\n"
            "detbox detect: cells_in=336 dropped_degenerate=74 dets_out=192 kept=114\n")

    # argv after the subcommand, then the sha256 of each file it writes; the
    # scene file goes by a relative name, since the config echo carries it
    @pytest.mark.parametrize("argv,digests", [
        (["encode", "--scene", "scene.json", "--output", "a.csv"],
         {"a.csv": "ff009413fe833da47ed650d1c46c73a0d84c729b770a3dbba8f78f67899b802b"}),
        (["assign-stats", "--scene", "scene.json", "--output", "a.json"],
         {"a.json": "6a9fd5b62a84474f7f412320b6ea0605267bff56ee277c79079d6766aa5298e9"}),
        (["assign-stats", "--scene", "scene.json", "--mode", "center", "--predictions", "4",
          "--output", "a.json"],
         {"a.json": "be3e255877816c9e0a924b6d48961685bc5cbe55578eb01f771738f3dc49c152"}),
        (["assign-stats", "--scene", "scene.json", "--thresholds", "0,64,128,inf",
          "--output", "a.json"],
         {"a.json": "f1a4393f39de3ec74335c13c8321bb7819bbbec811547636db80832ab930f118"}),
        (["audit", "--scene", "scene.json", "--output", "a.json"],
         {"a.json": "21302de632afae7ce0689b4b3ccc52b331caebda5b773c549cd624e6a2deaa85"}),
        (["fit", "--steps", "20", "--output", "a.json", "--trace", "a.csv"],
         {"a.json": "5208072a416ac07120fbb1ba82210933b140d58dde137c2aba5e2a777a2cae14",
          "a.csv": "c09517d0482910233f2e40de2d662dffb9345fad459a15bdd0ab4027af554a34"}),
        (["fit", "--steps", "20", "--multitask", "--output", "a.json", "--trace", "a.csv"],
         {"a.json": "bc8706694f9bab9156e51cd642c14cf5be1abd5046109c30d0495998543d92fb",
          "a.csv": "bc9e12e82dcda1877f30cd45ceeef2341dd639b7ba714406aa62155e40d93007"}),
        (["compare-losses", "--scenes", "3", "--steps", "20", "--output", "a.csv"],
         {"a.csv": "4dcbe214a94c9002c82718912c5ff7b2e984b2f076cb1b915c253a0c26c14fa3"}),
        (["gradcheck", "--samples", "50", "--loss", "sdiou", "--output", "a.json"],
         {"a.json": "ac9f0331f1ea04406439eb69137f2a7f37ec34cd906e1e7294dee4bc87a19b5a"}),
        (["gradcheck", "--samples", "50", "--loss", "ciou", "--output", "a.json"],
         {"a.json": "d741d36a9d690841b6cb025b5e42c1113fae5ef4e8ec14060750551ac36664f3"}),
    ], ids=["encode", "assign-stats", "assign-stats-center-4", "assign-stats-thresholds",
            "audit", "fit-trace", "fit-multitask", "compare-losses", "gradcheck-sdiou",
            "gradcheck-ciou"])
    def test_subcommand(self, tmp_path, monkeypatch, capsys, argv, digests):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scene.json").write_bytes(COCO_FIXTURE.read_bytes())
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert {name: _sha256(name) for name in digests} == digests


class TestNmsCommandMemory:
    @pytest.mark.parametrize("lines,class_id,every", [
        (100, 100_000, False), (10_000, 1_000_000, False), (10_000, 1_000_000, True)])
    def test_large_class_ids_in_bounded_memory(self, tmp_path, lines, class_id, every):
        rng = np.random.default_rng(0)
        corner = rng.uniform(0, 600, (lines, 2)).round(3)
        boxes = np.concatenate([corner, corner + rng.uniform(12, 320, (lines, 2)).round(3)], 1)
        score = rng.choice([0.25, 0.5, 0.75, 1.0], lines)
        classes = np.full(lines, 80) if every else rng.integers(80, size=lines)
        classes[lines // 2] = 80

        def write(path, classes):
            path.write_text("".join(_det_line(*b, s, c) + "\n" for b, s, c in zip(
                boxes.tolist(), score.tolist(), classes.tolist())))

        write(tmp_path / "small.jsonl", classes)
        write(tmp_path / "large.jsonl", np.where(classes == 80, class_id, classes))
        tracemalloc.start()
        try:
            assert main(["nms", "--detections", str(tmp_path / "large.jsonl"),
                         "--output", str(tmp_path / "large_kept.jsonl")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one-hot score vectors padded to the largest class would need gigabytes
        assert peak < 32 * 2**20
        # the class id's size changes nothing but the class field
        assert main(["nms", "--detections", str(tmp_path / "small.jsonl"),
                     "--output", str(tmp_path / "small_kept.jsonl")]) == 0
        small = (tmp_path / "small_kept.jsonl").read_text().splitlines()[1:]
        large = (tmp_path / "large_kept.jsonl").read_text().splitlines()[1:]
        assert [line.replace('"class":80,', f'"class":{class_id},') for line in small] == large


class TestConfigPrecedence:
    def test_file_overrides_builtin_and_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nms_threshold": 0.45, "seed": 9}))
        src = tmp_path / "dets.jsonl"
        src.write_text(_det_line(0, 0, 10, 10, 0.9, 1) + "\n")

        out = tmp_path / "a.jsonl"
        main(["nms", "--detections", str(src), "--config", str(cfg),
              "--output", str(out)])
        header = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert header["nms_threshold"] == 0.45
        assert header["seed"] == 9

        out2 = tmp_path / "b.jsonl"
        main(["nms", "--detections", str(src), "--config", str(cfg),
              "--nms-threshold", "0.7", "--output", str(out2)])
        header2 = json.loads(out2.read_text().splitlines()[0][len("# config: "):])
        assert header2["nms_threshold"] == 0.7

    @pytest.mark.parametrize("forms", [
        {"strides": "8,16", "gains": [2, 4], "image_size": "320x256"},
        {"strides": [8, 16], "gains": "2, 4", "image_size": [320, 256]},
    ])
    def test_every_key_reaches_the_fit_header(self, tmp_path, forms):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(forms, rho=0.5, conf_threshold=0.01,
                                       nms_threshold=0.5, seed=7)))
        out = tmp_path / "fit.json"

        def header(*flags):
            assert main(["fit", "--config", str(cfg), "--steps", "2", *flags,
                         "--output", str(out)]) == 0
            doc = json.loads(out.read_text())
            return doc["reports"][0]["scene"], {k: doc["config"][k] for k in (
                "strides", "gains", "image_w", "image_h", "rho", "conf_threshold",
                "nms_threshold", "seed")}

        assert header() == ("synthetic-7", {
            "strides": [8, 16], "gains": [2.0, 4.0], "image_w": 320, "image_h": 256,
            "rho": 0.5, "conf_threshold": 0.01, "nms_threshold": 0.5, "seed": 7,
        })
        assert header("--strides", "8", "--gains", "2", "--image-size", "160", "--rho", "2",
                      "--conf-threshold", "0.2", "--nms-threshold", "0.3", "--seed", "11") == (
            "synthetic-11", {
                "strides": [8], "gains": [2.0], "image_w": 160, "image_h": 160,
                "rho": 2.0, "conf_threshold": 0.2, "nms_threshold": 0.3, "seed": 11,
            })

    @pytest.mark.parametrize("key,value", [
        ("rho", [1]), ("strides", [[8]]),
        # a JSON boolean is not a number, not even inside a list
        ("strides", [True, 16, 32]), ("seed", True), ("rho", True), ("conf_threshold", True),
        ("gains", [True, 4, 16]), ("image_size", [640, False]),
        # a stride, an image side and a seed are whole numbers
        ("seed", math.inf), ("strides", [math.inf, 16, 32]), ("image_size", [math.inf, 480]),
        ("strides", [8.5, 16, 32]), ("image_size", [640.5, 480]), ("seed", 1.5),
    ])
    def test_wrong_json_type_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["gradcheck", "--samples", "5", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{key}: wrong type" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,cause", [
        ("strides", "a", "invalid literal for int() with base 10: 'a'"),
        ("image_size", [1], "not enough values to unpack"),
    ])
    def test_unreadable_config_value_names_the_file_and_key(self, tmp_path, capsys,
                                                           key, value, cause):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["gradcheck", "--samples", "2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config file {cfg}: {key}: cannot read {value!r}: {cause}" in err

    @pytest.mark.parametrize("flag,value,cause", [
        ("--strides", "a", "invalid literal for int() with base 10: 'a'"),
        ("--image-size", "1x2x3", "too many values to unpack"),
        ("--gains", "1,x,3", "could not convert string to float: 'x'"),
    ])
    def test_unreadable_flag_value_names_the_flag(self, tmp_path, capsys, flag, value, cause):
        # a flag wins over the config file, so the flag is named, not the file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strides": [8, 16, 32], "gains": [2, 4, 16]}))
        argv = ["gradcheck", "--samples", "2", "--config", str(cfg), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: cannot read {value!r}: {cause}" in err
        assert "config file" not in err

    def test_whole_floats_read_as_ints(self, tmp_path):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({"strides": [8.0, 16, 32], "image_size": 320.0, "seed": 2.0}))
        assert main(["gradcheck", "--samples", "2", "--config", str(cfg),
                     "--output", str(out)]) == 0
        echo = json.loads(out.read_text())["config"]
        assert (echo["strides"], echo["image_w"], echo["image_h"], echo["seed"]) == (
            [8, 16, 32], 320, 320, 2)

    @settings(max_examples=40)
    @given(value=st.sampled_from(_CONFIG_VALUES))
    @pytest.mark.parametrize("key", [s.name for s in fields(EffectiveConfig)])
    def test_any_json_value_exits_0_or_2_and_a_read_value_is_echoed(self, tmp_path_factory,
                                                                    key, value):
        cfg = tmp_path_factory.mktemp("config") / "cfg.json"
        out = cfg.with_name("out.json")
        cfg.write_text(json.dumps({key: value}))
        code = main(["gradcheck", "--samples", "2", "--config", str(cfg), "--output", str(out)])
        assert code in (0, 2)
        if code == 0:
            echo = json.loads(out.read_text())["config"]
            want = getattr(EffectiveConfig(), key) if value is None else value
            if key in ("strides", "gains", "image_size"):   # a list, or one number for all
                sides = 2 if key == "image_size" else 1
                want = list(want) if isinstance(want, (list, tuple)) else [want] * sides
            got = [echo["image_w"], echo["image_h"]] if key == "image_size" else echo[key]
            assert got == want


_COMMON_FLAGS = {"-h", "--help", "--strides", "--gains", "--image-size", "--rho",
                 "--conf-threshold", "--nms-threshold", "--seed", "--config", "--output"}
_CLI_SURFACE = {
    "encode": _COMMON_FLAGS | {"--scene", "--mode", "--thresholds", "--predictions"},
    "gradcheck": _COMMON_FLAGS | {"--samples", "--loss", "--tolerance", "--fd-step"},
    "fit": _COMMON_FLAGS | {"--scene", "--objects", "--size-min", "--size-max", "--steps",
                            "--lr", "--loss", "--mode", "--thresholds", "--multitask",
                            "--trace"},
    "compare-losses": _COMMON_FLAGS | {"--scene", "--scenes", "--objects", "--size-min",
                                       "--size-max", "--steps", "--lr", "--losses", "--mode",
                                       "--thresholds"},
    "assign-stats": _COMMON_FLAGS | {"--scene", "--mode", "--thresholds", "--predictions"},
    "audit": _COMMON_FLAGS | {"--scene"},
    "nms": _COMMON_FLAGS | {"--detections"},
    "detect": _COMMON_FLAGS | {"--grid"},
}
_REQUIRED = {"encode": {"--scene"}, "assign-stats": {"--scene"}, "audit": {"--scene"},
             "nms": {"--detections"}, "detect": {"--grid"}}


def test_cli_surface_is_pinned():
    """Every subcommand accepts exactly these options, and requires these."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings}
               for name, p in sub.choices.items()}
    required = {name: {o for a in p._actions if a.required for o in a.option_strings}
                for name, p in sub.choices.items()}
    assert options == _CLI_SURFACE
    assert required == {name: _REQUIRED.get(name, set()) for name in _CLI_SURFACE}


def test_module_entry_point(tmp_path):
    """The package runs as `python -m detbox`."""
    # the child imports the same detbox as this process, installed or not
    src = str(Path(detbox.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "detbox", "gradcheck", "--samples", "20"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert '"passed": true' in proc.stdout
