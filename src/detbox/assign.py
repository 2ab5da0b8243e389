"""Label assignment: map ground-truth objects to positive grid cells.

Every object becomes a positive sample at *every* scale. The default
strategy takes the cell containing the box center plus up to two
neighboring cells: the horizontal neighbor on whichever side of the cell's
vertical midline the center falls, and the vertical neighbor likewise. A
center exactly on a midline contributes no neighbor on that axis, and
neighbors outside the grid are skipped.

Which cells an object claims depends only on its center's sub-cell offset
and grid clipping, never on its width or height, so the positive-sample
count per object is size-independent. Alternative strategies (segment
midpoints, box corners) and per-scale size constraints are provided for
ablation studies. :func:`assign` evaluates every candidate cell of a scene
in one array pass and returns an :class:`AssignmentTable` of columns;
:func:`assign_scenes` runs the same pass over many scenes at once, each
sized to its own image. The pass floors each object's center cells on its
way, and :func:`~detbox.ingest.dataset_stats` audits those for collisions.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .codec import CodecError, RegressionTarget, ScaleConfig, encode
from .geom import BoundingBox, overlaps


class AssignmentError(ValueError):
    """Raised for objects or modes the assignment rules cannot handle."""


# Candidate cell groups per strategy, in claiming order. Neighbors always
# follow their center cell, so a neighbor on the midline, offset 0, is
# dropped as a repeat of it.
_GROUPS = {
    "center": ("center",),
    "aug_center": ("center", "neighbors"),
    "h_centers": ("midpoints",),
    "aug_center_plus_h_centers": ("center", "neighbors", "midpoints"),
    "four_corners": ("corners",),
    "four_corners_plus_center": ("corners", "center"),
}
LOCATION_STRATEGIES = tuple(_GROUPS)
# (k, k) masks of j < i, to drop a candidate that repeats an earlier one;
# np.tril would build the mask again on every call
_BELOW = functools.cache(lambda k: np.tri(k, k, -1, dtype=bool))
_STRIDES = functools.cache(lambda strides: np.array(strides)[:, None, None])   # (scales, 1, 1)
_EYE = np.eye(2)


@dataclass(frozen=True)
class AssignMode:
    """Assignment variant: cell-selection strategy, size gates, head width.

    ``scale_thresholds``, when given, must be strictly increasing, start at
    0, and end at infinity; with N scales it needs N+1 entries bracketing
    each scale's admissible object size. ``predictions_per_cell`` of 4
    splits each cell into 2x2 quadrants addressed by the center offset.
    """

    location_strategy: str = "aug_center"
    scale_thresholds: tuple[float, ...] | None = None
    predictions_per_cell: int = 1

    def __post_init__(self) -> None:
        if self.location_strategy not in LOCATION_STRATEGIES:
            raise AssignmentError(
                f"unknown location strategy {self.location_strategy!r}; "
                f"valid: {', '.join(LOCATION_STRATEGIES)}"
            )
        if self.predictions_per_cell not in (1, 4):
            raise AssignmentError(
                f"predictions_per_cell must be 1 or 4, got {self.predictions_per_cell}"
            )
        if self.scale_thresholds is not None:
            m = tuple(float(v) for v in self.scale_thresholds)
            object.__setattr__(self, "scale_thresholds", m)
            if len(m) < 2 or m[0] != 0.0 or not math.isinf(m[-1]):
                raise AssignmentError(
                    f"scale thresholds must start at 0 and end at inf, got {m}"
                )
            if any(not b > a for a, b in zip(m, m[1:])):   # NaN fails too
                raise AssignmentError(
                    f"scale thresholds must be strictly increasing, got {m}"
                )


@dataclass(frozen=True)
class AssignmentRecord:
    """One positive sample: an object bound to a cell at one scale."""

    object_id: int
    class_id: int
    scale_index: int
    cell: tuple[int, int]
    target: RegressionTarget
    quadrant: int = 0


@dataclass(frozen=True, eq=False)
class AssignmentTable:
    """All positive samples of one or more scenes as columns, one row per record.

    ``object_id``, ``class_id``, ``scale_index`` and ``quadrant`` are
    ``(n,)`` ints, ``cell`` is ``(n, 2)`` ints and ``target`` is ``(n, 4)``
    floats holding l, t, r, b. ``len()``, indexing and iteration give
    :class:`AssignmentRecord` rows of plain Python scalars.
    """

    object_id: np.ndarray
    class_id: np.ndarray
    scale_index: np.ndarray
    cell: np.ndarray
    target: np.ndarray
    quadrant: np.ndarray

    def __len__(self) -> int:
        return len(self.object_id)

    def __getitem__(self, i: int) -> AssignmentRecord:
        return next(iter(self.select([i])))

    def __iter__(self) -> Iterator[AssignmentRecord]:
        columns = (getattr(self, f.name).tolist() for f in fields(self))
        for o, c, s, cell, (l, t, r, b), q in zip(*columns):
            yield AssignmentRecord(o, c, s, tuple(cell), RegressionTarget(l, t, r, b, s), q)

    def select(self, rows) -> AssignmentTable:
        """The table restricted to ``rows`` (a mask or index array)."""
        return AssignmentTable(*(getattr(self, f.name)[rows] for f in fields(self)))


def assign(
    objects: Sequence[tuple[BoundingBox, int]],
    scale: ScaleConfig,
    mode: AssignMode = AssignMode(),
) -> AssignmentTable:
    """Emit the positive samples for a scene at every scale.

    Rows run by object, then scale, then candidate cell. Cells are
    deduplicated per (object, scale), keeping the first occurrence, before
    cells outside the grid are dropped; targets always come from the
    corner-distance formula evaluated at the row's own cell. Center cells
    carry provably positive targets; shifted cells (neighbors, midpoints,
    corners) stay unchecked since sub-cell boxes can put a boundary on the
    far side of the shifted cell.

    Raises :class:`AssignmentError` for any object whose center is not
    strictly inside the image, and :class:`~detbox.codec.CodecError` for a
    center-cell distance that is not positive.
    """
    return _assign(objects, (scale.image_w, scale.image_h), scale, mode)[0]


def assign_scenes(
    scenes: Sequence,
    scale: ScaleConfig,
    mode: AssignMode = AssignMode(),
) -> tuple[AssignmentTable, np.ndarray]:
    """:func:`assign` on each :class:`~detbox.ingest.Scene` and ``scale``
    sized to its image by ``for_image``, all in one array pass.

    Returns one table, object ids numbered across the scenes, and the
    offsets: scene ``i`` owns ids ``offsets[i]`` up to ``offsets[i + 1]``.
    An error is the one that those calls, in scene order, raise first.
    """
    return _assign_scenes(scenes, scale, mode)[:2]


def _assign_scenes(scenes, scale: ScaleConfig, mode: AssignMode):
    """:func:`assign_scenes`, and :func:`_assign`'s cells and corners for :func:`_audit`."""
    sized = []
    try:
        for scene in scenes:
            sized.append(scale.for_image(scene.image_w, scene.image_h))
        counts = [len(scene.objects) for scene in scenes]
        sizes = [(s.image_w, s.image_h) for s in sized]
        # one (w, h) when the scenes share a size, else one per object
        image = sizes[0] if len(set(sizes)) == 1 else np.repeat(sizes, counts, 0).reshape(-1, 2)
        objects = [o for scene in scenes for o in scene.objects]
        table, audit = _assign(objects, image, scale, mode)
        return table, np.array([0, *accumulate(counts)]), audit
    except (AssignmentError, CodecError):
        # an error of the pass names neither its scene nor that scene's size,
        # and an earlier scene may fail too: replay the scenes sized so far,
        # one by one, so that the first to fail raises its own error
        for scene, cfg in zip(scenes, sized):
            assign(scene.objects, cfg, mode)
        raise


def _assign(objects, image, scale: ScaleConfig, mode: AssignMode):
    """:func:`assign`'s array pass, and the center cells and corners that :func:`_audit` reads."""
    if not objects and mode.scale_thresholds is None:   # the pass's columns, without its cost
        return (AssignmentTable(*np.zeros((3, 0), np.int64), np.zeros((0, 2), np.int64),
                                np.zeros((0, 4)), np.zeros(0, np.int64)),
                (np.zeros((0, scale.num_scales), complex), np.zeros((0, 4))))
    boxes = np.array([(b.cx, b.cy, b.w, b.h) for b, _ in objects], dtype=float).reshape(-1, 4)
    image = np.asarray(image)                                          # (2,) or (objects, 2)
    inside = (0 < boxes[:, :2]) & (boxes[:, :2] < image)
    if not inside.all():
        i = int(np.flatnonzero(~inside.all(axis=1))[0])
        raise AssignmentError(f"object {i} center ({objects[i][0].cx}, {objects[i][0].cy}) not "
                              f"strictly inside image {scale.image_w}x{scale.image_h}")
    c, wh = boxes[:, None, None, :2], boxes[:, None, None, 2:]   # (objects, 1, 1, 2), (x, y) last
    half = wh / 2
    corners = np.concatenate([c - half, c + half], axis=-1)            # (objects, 1, 1, 4)
    s = _STRIDES(scale.strides)
    a = np.floor(c / s)                                                # (objects, scales, 1, 2)
    groups = {
        "center": lambda: a,
        # strictly past the midline on each axis; on the midline the offset is 0
        "neighbors": lambda: a + np.sign(c - s * (a + 0.5)) * _EYE,
        # midpoints of the segments from the center to the top-left and
        # bottom-right corners
        "midpoints": lambda: np.floor((c + np.concatenate([-wh, wh], axis=-2) / 4) / s),
        # a corner on a grid line belongs to the cell whose top-left point it is
        "corners": lambda: np.floor(corners[..., 0, [[0, 1], [2, 1], [0, 3], [2, 3]]] / s),
    }
    cand = np.concatenate([groups[g]() for g in _GROUPS[mode.location_strategy]], axis=-2)
    z = np.ascontiguousarray(cand).view(complex)[..., 0]   # (objects, scales, k): (x, y) as one
    keep = ~((z[..., :, None] == z[..., None, :]) & _BELOW(z.shape[-1])).any(axis=-1)
    inside = (cand >= 0) & (cand < image[..., None, None, :] // s)  # each object's grid
    keep &= inside[..., 0] & inside[..., 1]

    object_id, scale_index, _ = np.nonzero(keep)
    at = a.view(complex)[..., 0]                                       # (objects, scales, 1)
    cells = z[keep].view(float).reshape(-1, 2)                        # (n, 2), (x, y)
    # encode_distances' formula and order on the float cells, for its bits
    q = (corners / s)[object_id, scale_index, 0]
    target = np.concatenate([(cells + 1) - q[:, :2], q[:, 2:] - cells], axis=1)
    bad = np.flatnonzero((z == at)[keep] & (target <= 0).any(axis=1))
    if bad.size:  # encode raises the CodecError naming the cell and distances
        r = bad[0]
        encode(objects[object_id[r]][0], tuple(map(int, cells[r])), scale, int(scale_index[r]))

    quadrant = np.zeros(len(cells), dtype=np.int64)
    if mode.predictions_per_cell == 4:
        # 2x2 sub-quadrant of the record's cell nearest the object center
        stride = s[scale_index, 0]                                     # (n, 1)
        quadrant += (boxes[object_id, :2] >= stride * (cells + 0.5)) @ np.array([1, 2])
    classes = np.array([k for _, k in objects], dtype=np.int64)
    table = AssignmentTable(object_id, classes[object_id], scale_index, cells.astype(np.int64),
                            target, quadrant)
    if mode.scale_thresholds is not None:
        table = apply_scale_constraints(table, mode.scale_thresholds, scale)
    return table, (at[..., 0], corners[:, 0, 0])


def apply_scale_constraints(
    table: AssignmentTable,
    thresholds: Sequence[float],
    scale: ScaleConfig,
) -> AssignmentTable:
    """Drop records whose object size falls outside its scale's bracket.

    A record at scale i survives iff ``thresholds[i] <= max(w, h) <=
    thresholds[i+1]`` in pixels, with (w, h) recovered from the target's
    sum identities: an object strictly smaller than the lower bound in
    both dimensions, or strictly larger than the upper bound in either,
    becomes a negative at that scale. Identity when thresholds match the
    full range; idempotent and never adds records.
    """
    m = AssignMode(scale_thresholds=tuple(thresholds)).scale_thresholds
    assert m is not None
    if len(m) != scale.num_scales + 1:
        raise AssignmentError(
            f"need {scale.num_scales + 1} thresholds for {scale.num_scales} "
            f"scales, got {len(m)}"
        )
    s = _STRIDES(scale.strides)[table.scale_index, 0]                  # (n, 1)
    size = np.max(s * (table.target[:, :2] + table.target[:, 2:] - 1.0), axis=1)
    lo, hi = np.array(m)[table.scale_index[:, None] + [0, 1]].T
    return table.select(~((size < lo) | (size > hi)))


def center_collision_audit(
    objects: Sequence[tuple[BoundingBox, int]],
    scale: ScaleConfig,
) -> dict[int, list[tuple[tuple[int, int], tuple[int, ...]]]]:
    """Find center cells claimed by two or more mutually overlapping objects.

    For each scale, reports ``(cell, object_ids)`` for every cell that is
    the true center cell of at least two objects whose boxes overlap
    (:func:`~detbox.geom.overlaps`: IoU > 0, and a zero-area box overlaps
    nothing). A center that is not finite raises :class:`AssignmentError`.
    :func:`~detbox.ingest.dataset_stats` runs the same audit on its pass's cells.
    """
    boxes = np.array([(b.cx, b.cy, b.w, b.h) for b, _ in objects], dtype=float).reshape(-1, 4)
    cells = np.floor(boxes[:, None, :2] / np.array(scale.strides)[:, None])   # (objects, scales, 2)
    if not np.isfinite(cells).all():
        raise AssignmentError("object center is not finite")
    xy, half = boxes[:, :2], boxes[:, 2:] / 2   # corners with BoundingBox.x1..y2's bits
    return _audit(cells.view(complex)[..., 0], np.hstack([xy - half, xy + half]))


def _audit(cells, corners) -> dict[int, list[tuple[tuple[int, int], tuple[int, ...]]]]:
    """:func:`center_collision_audit` of one scene from its center cells per
    scale, ``(objects, scales)`` as ``x + yj``, and its ``(objects, 4)`` corners."""
    report: dict[int, list[tuple[tuple[int, int], tuple[int, ...]]]] = {}
    for scale_index, keys in enumerate(cells.T.tolist()):
        hits = report[scale_index] = []
        if len(set(keys)) == len(keys):   # no shared center cell at this scale
            continue
        by_cell: dict[complex, list[int]] = defaultdict(list)
        for object_id, key in enumerate(keys):
            by_cell[key].append(object_id)
        for cell, ids in sorted(((int(k.real), int(k.imag)), ids)
                                for k, ids in by_cell.items() if len(ids) > 1):
            boxes = corners[ids].tolist()   # corner tuples only for a shared cell
            overlapping = tuple(i for i, a in zip(ids, boxes)
                                if any(a is not b and overlaps(a, b) for b in boxes))
            if len(overlapping) >= 2:
                hits.append((cell, overlapping))
    return report
