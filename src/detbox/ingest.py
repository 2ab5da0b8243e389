"""COCO-format annotation ingestion into the shared scene representation.

Only geometry and category fields are read; pixels, segmentation masks,
and crowd regions are never loaded. Top-left (x, y, w, h) boxes convert to
center form. Annotations that cannot become valid scene objects are
skipped and counted by reason: width or height not positive (NaN too),
center not strictly inside the image, or crowd regions (never assigned).
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assign import AssignMode, _assign_scenes, _audit
from .codec import ScaleConfig
from .geom import BoundingBox

_NUMBER = {int, float}   # the types JSON numbers parse to; bool is not one
_IMAGE_ID = {int, str}   # a bool or float id would alias an int one: 1 == 1.0 == True
# what a field must be -> the types it may parse to, and the message's name for them
_KINDS = {"number": (_NUMBER, "a number"), "size": (_NUMBER, "a number"),   # size: finite too
          "list": ({list}, "a list"), "image_id": (_IMAGE_ID, "an id"),
          "category_id": ({int}, "an id")}


class CocoFormatError(ValueError):
    """Malformed annotation file; the message names the path and field."""


@dataclass(frozen=True)
class Scene:
    """One image's worth of ground truth: size plus (box, class) pairs."""

    image_w: float
    image_h: float
    objects: tuple[tuple[BoundingBox, int], ...]
    source_id: str = ""


@dataclass
class SkipCounts:
    nonpositive_size: int = 0
    center_outside: int = 0
    iscrowd: int = 0

    @property
    def total(self) -> int:
        return self.nonpositive_size + self.center_outside + self.iscrowd


@dataclass
class CocoLoadResult:
    scenes: list[Scene]
    skipped: SkipCounts = field(default_factory=SkipCounts)
    n_annotations: int = 0

    @property
    def n_converted(self) -> int:
        return sum(len(s.objects) for s in self.scenes)


def _float(value) -> float:
    """``float(value)``, reading an integer too large for a float as the infinity it spells."""
    try:
        return float(value)
    except OverflowError:   # 10**400 as JSON digits, where 1e400 parses to inf
        return math.inf if value > 0 else -math.inf


def _require(mapping, key, where: str, path, kind: str | None = None):
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise CocoFormatError(f"{path}: missing field {key!r} in {where}") from None
    if kind is not None and type(value) not in _KINDS[kind][0]:
        raise CocoFormatError(f"{path}: field {key!r} in {where} is not {_KINDS[kind][1]}: "
                              f"{value!r}")
    if kind == "size" and not math.isfinite(_float(value)):   # 1e400 parses to inf
        raise CocoFormatError(f"{path}: field {key!r} in {where} is not finite: {value!r}")
    return value


def load_coco(path) -> CocoLoadResult:
    """Load a COCO instances file; every annotation converts or is counted.

    Scenes come back ordered by image id, integer ids before string ids,
    one per listed image (empty object lists included). Raises
    :class:`CocoFormatError` for malformed JSON, missing fields, a section
    that is not a JSON list, image sizes that are not finite JSON numbers,
    bbox entries or ``iscrowd`` flags that are not JSON numbers, category
    ids that are not JSON integers, image ids that are not integers or
    strings, duplicate image ids (``1`` and ``"1"`` too, since both would
    label a scene ``"1"``), annotations referencing unknown images or
    categories, or, once all else passes, a category id outside int64.

    The cyclic garbage collector, if on, is paused for the load, whose
    new objects would set off collections that free nothing.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return _load_coco(Path(path))
    finally:
        if enabled:
            gc.enable()


def _load_coco(path: Path) -> CocoLoadResult:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CocoFormatError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CocoFormatError(f"{path}: invalid JSON: {exc}") from exc

    images, annotations, categories = (
        _require(doc, key, "document", path, "list")
        for key in ("images", "annotations", "categories"))

    category_ids = {_require(c, "id", "category", path, "category_id") for c in categories}
    sizes: dict[int | str, tuple[float, float]] = {}
    labels: dict[str, int | str] = {}   # each scene's source_id, so 1 and "1" collide
    for img in images:
        img_id = _require(img, "id", "image", path, "image_id")
        label = str(img_id)
        if label in labels:
            other = labels[label]
            same = "" if other == img_id else f": image id {other!r} reads the same"
            raise CocoFormatError(f"{path}: duplicate image id {img_id!r}{same}")
        labels[label] = img_id
        sizes[img_id] = tuple(float(_require(img, key, f"image {img_id}", path, "size"))
                              for key in ("width", "height"))

    objects: dict[int | str, list[tuple[BoundingBox, int]]] = {i: [] for i in sizes}
    skipped = SkipCounts()
    for ann in annotations:
        try:   # the common case by plain indexing
            img_id, cat, bbox = ann["image_id"], ann["category_id"], ann["bbox"]
            fast = (type(img_id) in _IMAGE_ID and img_id in sizes and type(cat) is int
                    and cat in category_ids and type(bbox) is list and len(bbox) == 4)
        except (KeyError, TypeError):
            fast = False
        if not fast:   # each check in turn, so the first fault is the one named
            img_id = _require(ann, "image_id", "annotation", path, "image_id")
            if img_id not in sizes:
                raise CocoFormatError(f"{path}: annotation references unknown image_id {img_id}")
            cat = _require(ann, "category_id", f"annotation for image {img_id}", path,
                           "category_id")
            if cat not in category_ids:
                raise CocoFormatError(f"{path}: annotation references undeclared category_id {cat}")
            bbox = _require(ann, "bbox", f"annotation for image {img_id}", path)
            if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
                raise CocoFormatError(f"{path}: bbox must be [x, y, w, h], got {bbox!r}")
        if not _NUMBER.issuperset(map(type, bbox)):   # name the first entry that is no number
            where = f"bbox of annotation for image {img_id}"
            bbox = [_require(dict(zip("xywh", bbox)), k, where, path, "number") for k in "xywh"]
        try:
            x, y, w, h = map(float, bbox)
        except OverflowError:   # the common case stays on the builtin
            x, y, w, h = map(_float, bbox)
        if type(crowd := ann.get("iscrowd", 0)) not in _NUMBER:
            _require(ann, "iscrowd", f"annotation for image {img_id}", path, "number")
        if crowd:
            skipped.iscrowd += 1
            continue
        if not (w > 0 and h > 0):   # NaN too
            skipped.nonpositive_size += 1
            continue
        cx, cy = x + w / 2, y + h / 2
        img_w, img_h = sizes[img_id]
        if not (0 < cx < img_w and 0 < cy < img_h):
            skipped.center_outside += 1
            continue
        objects[img_id].append((BoundingBox(cx, cy, w, h), cat))
    # last, so that the first fault is still the one named: class ids are int64 columns
    if wide := sorted(c for c in category_ids if not -2**63 <= c < 2**63):
        raise CocoFormatError(f"{path}: category id {wide[0]} does not fit in 64 bits")

    scenes = [
        Scene(
            image_w=sizes[img_id][0],
            image_h=sizes[img_id][1],
            objects=tuple(objects[img_id]),
            source_id=str(img_id),
        )
        for img_id in sorted(sizes, key=lambda i: (type(i) is str, i))
    ]
    return CocoLoadResult(scenes=scenes, skipped=skipped, n_annotations=len(annotations))


def dataset_stats(
    scenes: list[Scene],
    scale: ScaleConfig,
    mode: AssignMode = AssignMode(),
) -> dict:
    """Aggregate assignment counts and center-collision findings.

    Returns a JSON-ready report: scene/object totals, the min/median/max of
    positive samples per object, per-scale record counts, and per-scale
    collision totals with their (scene, cell, objects) details. The audit
    reads each object's center cells and corners from the assignment pass.
    """
    table, offsets, (cells, corners) = _assign_scenes(scenes, scale, mode)
    # objects filtered out at every scale still count as zero positives
    counts = np.bincount(table.object_id, minlength=offsets[-1]).tolist()
    collisions = {i: 0 for i in range(scale.num_scales)}
    details = []
    bounds = offsets.tolist()
    for scene, lo, hi in zip(scenes, bounds, bounds[1:]):
        # the audit of the pass's own center cells, at the strides every scene's pyramid shares
        for scale_index, hits in _audit(cells[lo:hi], corners[lo:hi]).items():
            collisions[scale_index] += len(hits)
            details += [{"scene": scene.source_id, "scale": scale_index, "cell": list(cell),
                         "objects": list(ids)} for cell, ids in hits]
    per_scale_records = np.bincount(table.scale_index, minlength=scale.num_scales).tolist()
    positives = {
        "min": min(counts, default=0),
        "median": float(statistics.median(counts)) if counts else 0.0,
        "max": max(counts, default=0),
        "total": sum(counts),
        "per_scale": {str(k): v for k, v in enumerate(per_scale_records)},
    }
    return {
        "n_scenes": len(scenes),
        "n_objects": len(counts),
        "positives": positives,
        "collisions": {
            "per_scale": {str(k): int(v) for k, v in collisions.items()},
            "total": int(sum(collisions.values())),
            "details": details,
        },
    }
