"""Inference stage: decode dense grids, confidence-filter, suppress.

Each scale level carries a dense array of shape (cells_x, cells_y, m + 5):
four distance logits, one objectness logit, then m class logits. Cells
passing the confidence threshold decode into pixel-space detections whose
corners come from inverting the corner-distance code at the cell::

    x1 = stride * (cell_x + 1 - l)      x2 = stride * (cell_x + r)
    y1 = stride * (cell_y + 1 - t)      y2 = stride * (cell_y + b)

Both stages, and the JSONL wire format of :func:`detections_from_jsonl`
and :func:`detections_to_jsonl`, work on the columns of a
:class:`DetectionTable`. What a reader may never need is computed only
when read: a :class:`Detection` row, and the class probabilities, which
the table keeps as logits. Decoding selects each level's cells whose
objectness logit is near ``logit(conf_threshold)``, then decodes them all
in one pass, stride and gain as per-row columns; its ``expit`` test has
the outcome of a full mask. Each row's best class comes from its logits
with one ``expit`` (:func:`best_class`). A confident cell is kept only
when ``x2 > x1``, ``y2 > y1`` and no class logit is NaN; every other one
is dropped and counted in ``DecodeResult.dropped_degenerate``. Any
comparison with NaN is false, so that covers NaN distance logits too.

Greedy suppression is class-wise: a detection is removed only by a
higher-ranked kept detection of the same class overlapping it with IoU
strictly above the threshold. Ranking is objectness times the best class
probability, with ties broken by (scale, cell_y, cell_x, class) for
determinism. :func:`suppress` scores same-class pairs on corner columns
with :func:`geom.iou_columns`, whose arithmetic matches the scalar referee
:func:`geom.iou` bit for bit on boxes of positive area, and resolves greedy
with array steps. The IoU with a zero-area box is 0, so such a box is kept
and suppresses nothing.
:func:`nms` returns a table's survivors as a view of it, which builds no
row until one is read.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .codec import ScaleConfig, decode_distances
from .geom import CornerBox, iou_columns, xyxy_area

DEFAULT_CONF_THRESHOLD = 0.001
DEFAULT_NMS_THRESHOLD = 0.6
PAIR_CHUNK = 8192     # same-class pairs per suppress block and IoU call: bounds its memory


@dataclass(frozen=True, eq=False)
class Detection:
    """One decoded candidate: pixel box, objectness, per-class scores."""

    box: CornerBox
    objectness: float
    class_scores: np.ndarray
    scale_index: int
    cell: tuple[int, int] = (-1, -1)

    @property
    def class_id(self) -> int:
        return int(np.argmax(self.class_scores))

    @property
    def score(self) -> float:
        return self.objectness * float(np.max(self.class_scores))


@dataclass(frozen=True)
class PredictionGrid:
    """Raw per-scale output arrays, each (cells_x, cells_y, m + 5)."""

    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise ValueError("a grid needs at least one level, got none")
        if any(np.iscomplexobj(a) for a in self.levels):   # a float cast drops the imaginary part
            raise ValueError("levels must be real, got a complex array")
        object.__setattr__(
            self, "levels", tuple(np.asarray(a, dtype=float) for a in self.levels)
        )
        if any(a.ndim != 3 for a in self.levels):
            raise ValueError(f"levels must be 3-d, got shapes {[a.shape for a in self.levels]}")
        channels = {a.shape[-1] for a in self.levels}
        if len(channels) != 1:
            raise ValueError(f"levels disagree on channel count: {sorted(channels)}")
        if next(iter(channels)) < 6:
            raise ValueError("need at least 6 channels: 4 distances, objectness, 1 class")


def best_class(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The argmax and max of each row of ``expit(logits)``, bit for bit, from
    one ``expit`` per row. ``expit`` is monotone, so the max is ``expit`` of
    the top logit; but its rounding ties values below the top (1.0 above
    about 37, 0.0 below about -745, adjacent floats), which can move the
    first argmax to a lower logit. That needs the next logit's ``expit`` to
    equal the max, and only such rows take a full ``expit``. A NaN logit
    gives a NaN max."""
    rest, every = np.array(logits, dtype=float), np.arange(len(logits))
    class_id = rest.argmax(axis=1)
    best = expit(rest[every, class_id])
    rest[every, class_id] = -np.inf
    tied = np.flatnonzero(expit(rest[every, rest.argmax(axis=1)]) == best)
    class_id[tied] = expit(logits[tied]).argmax(axis=1)
    return class_id, best


@dataclass(frozen=True, eq=False)
class DetectionTable(Sequence):
    """Detections as columns. Whatever builds a table gives its ``class_id``
    and ``best`` (the best class probability) columns: decoding takes them
    from the class ``logits`` by :func:`best_class`, and tables read from
    JSONL or rows have no logits. The ``class_scores`` matrix,
    ``expit(logits)``, is computed when first read.

    Indexing and iteration give :class:`Detection` rows of Python scalars,
    built on first read and cached, so an index always gives the same
    object. The rows built together get their score vectors from one
    ``expit``; without logits a row's vector is one-hot at its class,
    holding ``best``. :meth:`select` and slicing give a view that shares
    the row cache, so a row read from it is the parent's row. Equality
    with a sequence compares rows."""

    boxes: np.ndarray           # (n, 4) x1, y1, x2, y2
    objectness: np.ndarray
    logits: np.ndarray | None   # (n, m) class logits, or None
    scale_index: np.ndarray
    cell: np.ndarray            # (n, 2) cell_x, cell_y
    class_id: np.ndarray
    best: np.ndarray
    _rows: list = field(default=None, repr=False)       # the row cache, shared by views
    _slot: np.ndarray = field(default=None, repr=False)  # each row's place in _rows

    def __post_init__(self) -> None:
        if self._rows is None:
            object.__setattr__(self, "_rows", [None] * len(self.objectness))
            object.__setattr__(self, "_slot", np.arange(len(self.objectness)))

    @classmethod
    def from_rows(cls, detections: Sequence[Detection]) -> DetectionTable:
        """The columns of ``detections``, which become the table's rows; each
        row gives its class id and its best score. A table is returned as it is."""
        if isinstance(detections, DetectionTable):
            return detections
        boxes = [(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in detections]
        return cls(np.array(boxes, dtype=float).reshape(-1, 4),
                   np.array([d.objectness for d in detections], dtype=float), None,
                   np.array([d.scale_index for d in detections], dtype=int),
                   np.array([d.cell for d in detections], dtype=int).reshape(-1, 2),
                   np.array([d.class_id for d in detections], dtype=int),
                   np.array([np.max(d.class_scores) for d in detections], dtype=float),
                   list(detections), np.arange(len(detections)))

    @cached_property
    def class_scores(self) -> np.ndarray | None:
        return None if self.logits is None else expit(self.logits)

    @property
    def score(self) -> np.ndarray:
        return self.objectness * self.best

    def select(self, index) -> DetectionTable:
        """A view of the rows at ``index``, a boolean mask, positions or a slice."""
        logits = None if self.logits is None else self.logits[index]
        return DetectionTable(self.boxes[index], self.objectness[index], logits,
                              self.scale_index[index], self.cell[index], self.class_id[index],
                              self.best[index], self._rows, self._slot[index])

    def __len__(self) -> int:
        return len(self._slot)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.select(i)
        return self._read(np.array([range(len(self))[i]]))[0]

    def __iter__(self):
        return iter(self._read(np.arange(len(self))))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def _read(self, at: np.ndarray) -> list[Detection]:
        """The rows at positions ``at``, the missing ones built first."""
        cache, slots = self._rows, self._slot[at].tolist()
        if missing := [k for k, s in enumerate(slots) if cache[s] is None]:
            self._build(at[missing] if len(missing) < len(self) else slice(None))
        return [cache[s] for s in slots]

    def _build(self, missing: np.ndarray | slice) -> None:
        """Cache the rows at ``missing`` in one pass that checks corner order
        once, as :class:`CornerBox` does, then skips the inits."""
        boxes = self.boxes[missing]
        if (bad := (boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1])).any():
            CornerBox(*boxes[bad.argmax()].tolist())   # raises its GeometryError
        scores = (expit(self.logits[missing]) if self.logits is not None
                  else (np.where(np.arange(c + 1) == c, b, 0.0) for c, b in
                        zip(self.class_id[missing].tolist(), self.best[missing].tolist())))
        columns = (boxes.tolist(), self.objectness[missing].tolist(), scores,
                   self.scale_index[missing].tolist(), map(tuple, self.cell[missing].tolist()))
        for s, (x1, y1, x2, y2), o, p, k, cell in zip(self._slot[missing].tolist(), *columns):
            vars(box := object.__new__(CornerBox)).update(x1=x1, y1=y1, x2=x2, y2=y2)
            vars(row := object.__new__(Detection)).update(
                box=box, objectness=o, class_scores=p, scale_index=k, cell=cell)
            self._rows[s] = row


@dataclass(frozen=True)
class DecodeResult:
    detections: DetectionTable
    dropped_degenerate: int = 0


def decode_grid(
    grid: PredictionGrid,
    scale: ScaleConfig,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
) -> DecodeResult:
    """Decode every confident cell across all scales into detections, in one
    pass over all levels' candidate cells with a stride and gain per row.

    Output is sorted by descending objectness, then (scale, cell_y,
    cell_x). Cells decoding to a degenerate box (zero or negative extent,
    or a NaN corner) or with a NaN class logit are dropped and counted
    rather than raising: they are legitimate raw-output states.
    """
    if len(grid.levels) != scale.num_scales:
        raise ValueError(
            f"grid has {len(grid.levels)} levels, scale config {scale.num_scales}"
        )
    # expit decides on logits >= floor: its rounding moves the boundary up to
    # 0.41 below the logit (measured); floor is -inf for c <= 0 or NaN.
    c = min(conf_threshold, 1 - 2**-52)
    floor = math.log(c / (1 - c)) - 1.0 if c > 0 else -math.inf
    rows, cells = [], []
    for scale_index, arr in enumerate(grid.levels):
        nx, ny = scale.grid_size(scale_index)
        if arr.shape[:2] != (nx, ny):
            raise ValueError(
                f"level {scale_index} is {arr.shape[:2]}, expected {(nx, ny)} "
                f"for stride {scale.strides[scale_index]}"
            )
        cells.append(np.divmod(np.flatnonzero(arr[..., 4] >= floor), ny))
        rows.append(arr[cells[-1]])
    # the rest is one pass over every level's candidates, stride and gain per row
    level = np.repeat(np.arange(len(cells)), [cx.size for cx, _ in cells])
    (cx, cy), rows = (np.concatenate(c) for c in zip(*cells)), np.concatenate(rows)
    obj = expit(rows[:, 4])
    d = decode_distances(rows[:, :4], np.array(scale.gains)[level, None])
    corner = np.stack([cx + 1.0, cy + 1.0, cx, cy], axis=1)
    boxes = np.array(scale.strides)[level, None] * (corner + d * [-1.0, -1.0, 1.0, 1.0])
    class_id, best = best_class(rows[:, 5:])
    confident = obj >= conf_threshold
    good = (confident & (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
            & ~np.isnan(best))
    # the rows left out sort last; (scale, cell) is unique, so no class breaks a tie
    order = np.lexsort((cx, cy, level, -obj, ~good))[:np.count_nonzero(good)]
    table = DetectionTable(boxes[order], obj[order], rows[order, 5:], level[order],
                           np.stack([cx[order], cy[order]], axis=1), class_id[order], best[order])
    return DecodeResult(table, int(np.count_nonzero(confident)) - len(order))


def nms(
    detections: Sequence[Detection],
    iou_threshold: float = DEFAULT_NMS_THRESHOLD,
) -> DetectionTable | list[Detection]:
    """Greedy per-class suppression; returns survivors by descending score.

    The survivors are the rows at :func:`suppress`'s positions: for a
    :class:`DetectionTable`, a view of it (:meth:`DetectionTable.select`)
    that builds no row until one is read, and then gives the table's own
    cached row; for any other sequence, a list of the input objects.
    """
    table = DetectionTable.from_rows(detections)
    kept = table.select(suppress(table, iou_threshold))
    return kept if table is detections else list(kept)


def suppress(
    table: DetectionTable,
    iou_threshold: float = DEFAULT_NMS_THRESHOLD,
) -> np.ndarray:
    """The positions in ``table`` of the detections greedy per-class
    suppression keeps, by descending score.

    A detection is suppressed when some already-kept detection of the same
    class overlaps it with IoU strictly above the threshold. Boxes of
    different classes never interact, and a zero-area box overlaps nothing.

    Boxes, as corner columns with one area each, go in blocks with at most
    PAIR_CHUNK same-class pairs, scored by one :func:`geom.iou_columns` call.
    Rounds of array steps suppress what a kept box overlaps and keep boxes
    whose overlapping predecessors are all suppressed, until every box is
    decided; then the block's kept boxes suppress what they overlap beyond
    it, PAIR_CHUNK pairs per call.
    """
    order = np.lexsort((table.class_id, table.cell[:, 0], table.cell[:, 1],
                        table.scale_index, -table.score))
    # Class by class, in rank order; not torchvision's trick of offsetting each
    # class's coordinates: the offset changes how the IoU rounds, so pairs
    # near the threshold could flip against the scalar referee.
    by_class = np.argsort(table.class_id[order], kind="stable")
    class_id = table.class_id[order[by_class]]
    cols = np.asarray(table.boxes, dtype=float).T.take(order[by_class], axis=1)   # x1..y2
    area = xyxy_area(cols)
    n = len(order)
    suppressed = np.zeros(n, dtype=bool)
    start, span = 0, PAIR_CHUNK   # every box before start is decided
    while start < n:
        # A block of the first live boxes, with at most PAIR_CHUNK same-class
        # pairs (i, j), i < j, among them; the first box has none. It is found
        # among the live boxes up to a class end about span past start, a
        # window that grows until the block ends inside it.
        stop = np.searchsorted(class_id, class_id[min(n, start + span) - 1], side="right")
        live = start + np.flatnonzero(~suppressed[start:stop])
        live_class = class_id[live]
        before = np.arange(live.size) - np.searchsorted(live_class, live_class)
        ends = np.cumsum(before)
        rows = np.searchsorted(ends, PAIR_CHUNK, side="right")
        if rows == live.size and stop < n:
            span *= 2
            continue
        if not rows:   # no live box is left
            break
        j = np.repeat(np.arange(rows), before[:rows])
        i = np.arange(j.size) + (np.arange(rows) - ends[:rows]).take(j)
        block, block_area = cols.take(live[:rows], axis=1), area.take(live[:rows])
        over = iou_columns([c.take(i) for c in block], [c.take(j) for c in block],
                           block_area.take(i), block_area.take(j)) > iou_threshold
        i, j = i[over], j[over]
        kept, dropped = np.bincount(j, minlength=rows) == 0, np.zeros(rows, dtype=bool)
        while not (kept | dropped).all():
            dropped[j[kept[i]]] = True
            blocked = np.bincount(j[~dropped[i]], minlength=rows) > 0
            kept |= ~(dropped | blocked)
        suppressed[live[:rows][dropped]] = True
        # Only the last class goes on past the block; its kept boxes suppress there.
        last = live_class[rows - 1]
        heads = live[:rows][kept & (live_class[:rows] == last)]
        head = cols[:, heads, None]
        tail = live[rows:np.searchsorted(live_class, last, side="right")]
        step = max(1, PAIR_CHUNK // len(heads))
        for s in range(0, tail.size, step):
            part = tail[s:s + step]
            over = iou_columns(head, cols[:, part], area[heads, None], area[part])
            suppressed[part[(over > iou_threshold).any(axis=0)]] = True
        span = 2 * (live[rows - 1] + 1 - start)
        start = live[rows - 1] + 1
    return order[np.sort(by_class[~suppressed])]


_FIELDS = ("x1", "y1", "x2", "y2", "score", "class", "scale")
_LINE = ('{{"x1":{:.9g},"y1":{:.9g},"x2":{:.9g},"y2":{:.9g},'
         '"score":{:.9g},"class":{},"scale":{}}}\n')


def detections_to_jsonl(detections: Sequence[Detection]) -> str:
    """One JSON object per line, {x1,y1,x2,y2,score,class,scale}, from the
    columns of a table (or of a table made from a list of rows)."""
    table = DetectionTable.from_rows(detections)
    columns = (*table.boxes.T, table.score, table.class_id, table.scale_index)
    return "".join(_LINE.format(*row) for row in zip(*(c.tolist() for c in columns)))


def detections_from_jsonl(text: str) -> DetectionTable:
    """Parse the line format into a table, one row per detection line.

    Lines starting with '#' are skipped (file headers). A line's score
    becomes its objectness, its best class score is 1 and its class a
    column, so ranking and class identity survive; the cell does not.
    Each line must be a JSON object. Every field must be a finite JSON
    number, the corners in order, the class and scale whole numbers within
    int64 (``2.0`` reads as 2) and the class at least 0; any other line
    raises ``bad detection on line N``.
    """
    floats, ids = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
            if type(rec) is not dict:
                raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            values = [rec[k] for k in _FIELDS]
            for k, v in zip(_FIELDS, values):
                if type(v) not in (int, float) or not math.isfinite(v):   # bool, str, None, NaN
                    raise ValueError(f"{k} is not a finite number: {v!r}")
            if values[2] < values[0] or values[3] < values[1]:
                CornerBox(*values[:4])   # raises its GeometryError
            class_id, scale = int(values[5]), int(values[6])
            if (class_id, scale) != tuple(values[5:]):
                raise ValueError(f"class and scale must be whole numbers: {values[5:]}")
            if class_id < 0:
                raise ValueError(f"negative class {class_id}")
            ids.append((np.int64(class_id), np.int64(scale)))   # OverflowError past int64
            floats.append(values[:5])
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad detection on line {lineno}: {exc}") from exc
    floats = np.array(floats, dtype=float).reshape(-1, 5)
    ids = np.array(ids, dtype=np.int64).reshape(-1, 2)
    n = len(ids)
    return DetectionTable(floats[:, :4], floats[:, 4], None, ids[:, 1], np.full((n, 2), -1),
                          ids[:, 0], np.ones(n))
