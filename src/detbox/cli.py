"""Command-line front end: every capability as a reproducible subcommand.

Output files are deterministic for a given flag set and seed: numbers are
printed with nine significant digits, writes are atomic (temp file plus
rename), and every file carries the effective configuration in its header
(a ``# config:`` comment line for CSV/JSONL, a ``"config"`` key for JSON).

Each setting of :class:`EffectiveConfig` comes from its flag, else from the
same key in an optional ``--config`` JSON object, else from the library's
default. ``strides`` and ``gains`` take a comma string or a list,
``image_size`` takes ``"WxH"``, ``"N"``, ``N`` or ``[w, h]``, in whole numbers.

``image_size`` sizes synthetic scenes only. With ``--scene`` every image's
size comes from the scene file, so an ``image_size`` from the flag or the
config file is an error, and each scene's pyramid is the configured strides
and gains sized by :meth:`ScaleConfig.for_image`. Exit codes: 0 on success,
1 when a check ran and failed, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import zipfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .assign import LOCATION_STRATEGIES, AssignMode, assign_scenes
from .codec import ScaleConfig
from .fit import FitConfig, SceneSpec, check_size_bounds, compare_losses, fit_scenes, generate_scene
from .gradcheck import run_gradcheck
from .infer import (
    DEFAULT_CONF_THRESHOLD,
    DEFAULT_NMS_THRESHOLD,
    PredictionGrid,
    decode_grid,
    detections_from_jsonl,
    detections_to_jsonl,
    nms,
)
from .ingest import CocoFormatError, dataset_stats, load_coco
from .losses import LOSS_KINDS

_SCALE = ScaleConfig()
_FIT = FitConfig()


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _json_ready(obj):
    """Round floats to nine significant digits; map inf/nan to strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return None
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _number(kind):
    """Parser for one ``kind`` value, int or float. A boolean is a wrong
    type, and so is a fraction for an int; 8.0 reads as 8."""

    def parse(value):
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)

    return parse


def _parse_list(kind):
    """Parser for a comma string, a list or one value of ``kind``."""

    def parse(value) -> tuple:
        if isinstance(value, str):
            value = value.replace(" ", "").split(",")
        return tuple(kind(v) for v in (value if isinstance(value, (list, tuple)) else [value]))

    return parse


def _parse_image_size(value) -> tuple[int, int]:
    if isinstance(value, (list, tuple)):
        w, h = value
    else:
        parts = value.lower().split("x") if isinstance(value, str) else [value]
        w, h = parts * 2 if len(parts) == 1 else parts
    return _number(int)(w), _number(int)(h)


def _setting(default, parse):
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class EffectiveConfig:
    """The settings every subcommand resolves, defaulting to the library's."""

    strides: tuple[int, ...] = _setting(_SCALE.strides, _parse_list(_number(int)))
    gains: tuple[float, ...] = _setting(_SCALE.gains, _parse_list(_number(float)))
    image_size: tuple[int, int] = _setting((_SCALE.image_w, _SCALE.image_h), _parse_image_size)
    rho: float = _setting(_FIT.rho, _number(float))
    conf_threshold: float = _setting(DEFAULT_CONF_THRESHOLD, _number(float))
    nms_threshold: float = _setting(DEFAULT_NMS_THRESHOLD, _number(float))
    seed: int = _setting(0, _number(int))

    def scale(self) -> ScaleConfig:
        """The strides and gains on a square that every stride divides.

        Every image, synthetic or from a scene file, is sized from it by
        :meth:`ScaleConfig.for_image`.
        """
        side = math.lcm(*self.strides)
        return ScaleConfig(self.strides, self.gains, side, side)

    def echo(self, **extra) -> dict:
        base = asdict(self)
        base["image_w"], base["image_h"] = base.pop("image_size")
        return _json_ready({**base, **extra})


def _resolve(args: argparse.Namespace) -> EffectiveConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config}: expected a JSON object")
    values = {}
    for setting in fields(EffectiveConfig):
        value, source = getattr(args, setting.name), "--" + setting.name.replace("_", "-")
        if value is None:
            value, source = file_cfg.get(setting.name), f"config file {args.config}: {setting.name}"
        if value is None:
            continue
        try:
            values[setting.name] = setting.metadata["parse"](value)
        except (TypeError, OverflowError) as exc:   # only a config file supplies non-strings
            raise ValueError(f"{source}: wrong type for {value!r}") from exc
        except ValueError as exc:
            raise ValueError(f"{source}: cannot read {value!r}: {exc}") from exc
    for name in ("conf_threshold", "nms_threshold"):
        if not math.isfinite(values.get(name, 0.0)):
            raise ValueError(f"{name} must be finite, got {values[name]}")
    if getattr(args, "scene", None) and "image_size" in values:
        raise ValueError("--image-size and the config file's image_size size synthetic scenes "
                         "only; with --scene every image's size comes from the scene file")
    return EffectiveConfig(**values)


def _config_line(echo: dict) -> str:
    """The ``# config:`` header line of a CSV or JSONL output."""
    return "# config: " + json.dumps(echo, sort_keys=True) + "\n"


def _csv_text(echo: dict, header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return _config_line(echo) + "\n".join(lines) + "\n"


def _json_text(echo: dict, payload: dict) -> str:
    doc = {"config": echo}
    doc.update(_json_ready(payload))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _mode_from_args(args) -> AssignMode:
    thresholds = None
    if args.thresholds:
        thresholds = _parse_list(float)(args.thresholds)
    return AssignMode(
        location_strategy=args.mode or "aug_center",
        scale_thresholds=thresholds,
        predictions_per_cell=getattr(args, "predictions", None) or 1,
    )


def _cmd_encode(args, cfg: EffectiveConfig) -> int:
    mode = _mode_from_args(args)
    scenes = load_coco(args.scene).scenes
    t, offsets = assign_scenes(scenes, cfg.scale(), mode)
    scene_of = np.searchsorted(offsets, t.object_id, side="right") - 1
    object_id = t.object_id - offsets[scene_of]   # numbered within its scene
    columns = (scene_of, object_id, t.class_id, t.scale_index, *t.cell.T, *t.target.T)
    ids = [scene.source_id for scene in scenes]
    rows = [[ids[i], *row] for i, *row in zip(*(c.tolist() for c in columns))]
    echo = cfg.echo(command="encode", mode=mode.location_strategy, scene=str(args.scene))
    header = ["scene", "object", "class", "scale", "cell_x", "cell_y", "l", "t", "r", "b"]
    _write_atomic(args.output, _csv_text(echo, header, rows))
    return 0


def _cmd_gradcheck(args, cfg: EffectiveConfig) -> int:
    result = run_gradcheck(
        kind=args.loss,
        samples=args.samples,
        seed=cfg.seed,
        scale=cfg.scale().for_image(*cfg.image_size),
        rho=cfg.rho,
        tolerance=args.tolerance,
        h=args.fd_step,
    )
    echo = cfg.echo(command="gradcheck", loss=args.loss, samples=args.samples,
                    tolerance=args.tolerance, fd_step=result.fd_step)
    payload = {
        "samples": result.n_samples,
        "worst_rel_err_distance": result.worst_rel_err_distance,
        "worst_rel_err_logit": result.worst_rel_err_logit,
        "worst_rel_err": result.worst_rel_err,
        "tolerance": result.tolerance,
        "passed": result.passed,
    }
    _write_atomic(args.output, _json_text(echo, payload))
    return 0 if result.passed else 1


def _scenes_from_args(args, cfg: EffectiveConfig, n_scenes: int):
    if args.scene:
        return load_coco(args.scene).scenes
    image_w, image_h = cfg.image_size
    spec = SceneSpec(
        image_w=image_w,
        image_h=image_h,
        n_objects=args.objects,
        size_min=args.size_min,
        size_max=args.size_max,
    )
    # sized here so that a size no stride divides is reported before any scene is fit
    check_size_bounds(spec, cfg.scale().for_image(image_w, image_h))
    return [generate_scene(spec, cfg.seed + i) for i in range(n_scenes)]


def _fit_config(args, cfg: EffectiveConfig, **extra) -> FitConfig:
    return FitConfig(steps=args.steps, learning_rate=args.lr, rho=cfg.rho,
                     mode=_mode_from_args(args), scale=cfg.scale(), **extra)


def _cmd_fit(args, cfg: EffectiveConfig) -> int:
    scenes = _scenes_from_args(args, cfg, n_scenes=1)
    fit_cfg = _fit_config(args, cfg, loss=args.loss, multitask=args.multitask)
    reports = fit_scenes(scenes, fit_cfg)[0]
    echo = cfg.echo(
        command="fit", loss=args.loss, steps=args.steps, learning_rate=args.lr,
        multitask=args.multitask,
    )
    payload = {
        "reports": [
            dict(report.summary_dict(), scene=scene.source_id)
            for scene, report in zip(scenes, reports)
        ]
    }
    _write_atomic(args.output, _json_text(echo, payload))
    if args.trace:
        header = ["scene", "step", "loss", "mean_iou", "min_iou", "max_iou"]
        rows = []
        for scene, report in zip(scenes, reports):
            for step in range(report.steps + 1):
                ious = [v for v in report.iou_trace[step] if not math.isnan(v)]
                stats = (sum(ious) / len(ious), min(ious), max(ious)) if ious else [math.nan] * 3
                rows.append([scene.source_id, step, float(report.loss_trace[step]),
                             *(float(v) for v in stats)])
        _write_atomic(args.trace, _csv_text(echo, header, rows))
    return 0


def _cmd_compare_losses(args, cfg: EffectiveConfig) -> int:
    kinds = _parse_list(str)(args.losses)
    scenes = _scenes_from_args(args, cfg, n_scenes=args.scenes)
    rows = compare_losses(scenes, _fit_config(args, cfg), kinds)
    echo = cfg.echo(
        command="compare-losses", losses=list(kinds), steps=args.steps,
        learning_rate=args.lr, scenes=len(scenes),
    )
    header = [
        "loss", "n_objects", "reached_iou90", "reached_iou99",
        "median_steps_to_iou90", "median_steps_to_iou99", "mean_final_iou",
    ]
    table = [[row[k] for k in header] for row in rows]
    _write_atomic(args.output, _csv_text(echo, header, table))
    return 0


def _cmd_assign_stats(args, cfg: EffectiveConfig) -> int:
    mode = _mode_from_args(args)
    result = load_coco(args.scene)
    stats = dataset_stats(result.scenes, cfg.scale(), mode)
    echo = cfg.echo(
        command="assign-stats",
        mode=mode.location_strategy,
        thresholds=list(mode.scale_thresholds) if mode.scale_thresholds else None,
        scene=str(args.scene),
    )
    payload = dict(
        stats,
        skipped=dict(asdict(result.skipped), total=result.skipped.total),
        n_annotations=result.n_annotations,
    )
    _write_atomic(args.output, _json_text(echo, payload))
    return 0


def _cmd_audit(args, cfg: EffectiveConfig) -> int:
    result = load_coco(args.scene)
    stats = dataset_stats(result.scenes, cfg.scale(), AssignMode(location_strategy="center"))
    echo = cfg.echo(command="audit", scene=str(args.scene))
    _write_atomic(args.output, _json_text(echo, {"collisions": stats["collisions"]}))
    return 0


def _cmd_nms(args, cfg: EffectiveConfig) -> int:
    try:
        text = Path(args.detections).read_text()
    except OSError as exc:
        raise CocoFormatError(f"cannot read detections {args.detections}: {exc}") from exc
    table = detections_from_jsonl(text)
    confident = table.select(table.score >= cfg.conf_threshold)
    kept = nms(confident, cfg.nms_threshold)
    echo = cfg.echo(command="nms", n_input=len(table), n_kept=len(kept))
    _write_atomic(args.output, _config_line(echo) + detections_to_jsonl(kept))
    return 0


def _cmd_detect(args, cfg: EffectiveConfig) -> int:
    with open(args.grid, "rb") as f:   # np.load reads a file without a zip header as a pickle
        if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ValueError(f"grid {args.grid}: not an np.savez archive")
    with np.load(args.grid) as archive:
        names = [f"arr_{i}" for i in range(len(archive.files))]
        if set(archive.files) != set(names):
            raise ValueError(f"grid {args.grid}: levels must be {names}, got {archive.files}")
        levels = []
        for name in names:   # np.load refuses an object array without allow_pickle
            try:
                levels.append(archive[name])
            except ValueError:
                raise ValueError(f"grid {args.grid}: level {name} is not a numeric array") from None
        grid = PredictionGrid(tuple(levels))
    decoded = decode_grid(grid, cfg.scale().for_image(*cfg.image_size), cfg.conf_threshold)
    kept = nms(decoded.detections, cfg.nms_threshold)
    print(f"detbox detect: cells_in={sum(a[..., 0].size for a in grid.levels)} "
          f"dropped_degenerate={decoded.dropped_degenerate} "
          f"dets_out={len(decoded.detections)} kept={len(kept)}", file=sys.stderr)
    echo = cfg.echo(command="detect", grid=str(args.grid))
    _write_atomic(args.output, _config_line(echo) + detections_to_jsonl(kept))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strides", help="comma-separated strides (default 8,16,32)")
    common.add_argument("--gains", help="comma-separated per-scale gains (default 2,4,16)")
    common.add_argument("--image-size", dest="image_size",
                        help="WxH of synthetic scenes (default 640x640)")
    common.add_argument("--rho", type=float, help="overlap/penalty trade-off (default 1)")
    common.add_argument("--conf-threshold", dest="conf_threshold", type=float,
                        help="confidence filter (default 0.001)")
    common.add_argument("--nms-threshold", dest="nms_threshold", type=float,
                        help="suppression IoU threshold (default 0.6)")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--config", help="JSON object of settings keyed like the flags "
                                         "(image_size, conf_threshold, ...)")
    common.add_argument("--output", help="output file (default stdout)")

    modes = argparse.ArgumentParser(add_help=False)
    modes.add_argument("--mode", choices=LOCATION_STRATEGIES)
    modes.add_argument("--thresholds", help="scale size gates, e.g. 0,32,64,inf")

    # encode and assign-stats
    assigning = argparse.ArgumentParser(add_help=False)
    assigning.add_argument("--scene", required=True, help="COCO-format annotation file")
    assigning.add_argument("--predictions", type=int, choices=(1, 4))

    # fit and compare-losses
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--scene", help="COCO-format scene file (default: synthetic)")
    fitting.add_argument("--objects", type=int, default=1)
    fitting.add_argument("--size-min", dest="size_min", type=float, default=SceneSpec().size_min)
    fitting.add_argument("--size-max", dest="size_max", type=float, default=SceneSpec().size_max)
    fitting.add_argument("--steps", type=int, default=_FIT.steps)
    fitting.add_argument("--lr", type=float, default=_FIT.learning_rate)

    parser = argparse.ArgumentParser(
        prog="detbox",
        description="corner-distance box coding, all-scale assignment, "
                    "distance-space IoU losses, and NMS utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[common, modes, assigning],
                       help="print per-object, per-scale regression targets")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--loss", choices=LOSS_KINDS, default="sdiou")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--fd-step", dest="fd_step", type=float,
                   help="central-difference step (default 1e-4 for iou and giou, "
                        "whose gradients get small enough for round-off to show, "
                        "else 1e-6)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("fit", parents=[common, modes, fitting],
                       help="gradient-descent fit of one scene's positive cells")
    p.add_argument("--loss", choices=LOSS_KINDS, default=_FIT.loss)
    p.add_argument("--multitask", action="store_true")
    p.add_argument("--trace", help="also write the per-step loss trace CSV here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare-losses", parents=[common, modes, fitting],
                       help="convergence table across loss kinds")
    p.add_argument("--scenes", type=int, default=10, help="synthetic scene count")
    p.add_argument("--losses", default="sdiou,mse,giou,ciou")
    p.set_defaults(func=_cmd_compare_losses)

    p = sub.add_parser("assign-stats", parents=[common, modes, assigning],
                       help="positives-per-object and collision statistics")
    p.set_defaults(func=_cmd_assign_stats)

    p = sub.add_parser("audit", parents=[common],
                       help="center-collision audit of a dataset")
    p.add_argument("--scene", required=True, help="COCO-format annotation file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("nms", parents=[common],
                       help="confidence-filter and suppress a detection file")
    p.add_argument("--detections", required=True, help="line-JSON detections")
    p.set_defaults(func=_cmd_nms)

    p = sub.add_parser("detect", parents=[common], help="decode a dense grid, then suppress")
    p.add_argument("--grid", required=True, help="np.savez file of the levels, in scale order")
    p.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, _resolve(args))
    except (ValueError, OSError, zipfile.BadZipFile) as exc:   # package errors are ValueErrors
        print(f"detbox {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
