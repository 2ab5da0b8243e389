"""infer-stream: dense prediction grids in, kept detections out.

One operation is ``decode_grid`` (conf 0.001) then ``nms`` (IoU 0.6) on a
640x640, 80-class, three-level grid (8,400 cells). Each grid plants
objects whose cells carry noisy true-box logits on a background of
low-objectness cells. Object counts per image follow a long tail like
COCO's: sparse images are decode-bound and set the median latency,
crowded ones are bound by the quadratic suppression and set the tail.

Grids are 5.7 MB each as float64, so the pool keeps only a few shared
backgrounds and each image's planted cells; an image is materialised
just before its timed call.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logit

from common import Recorder, lognormal_quantiles
from referee import iou_matrix, reference_decode, reference_nms

STRIDES = (8, 16, 32)
GAINS = (2.0, 4.0, 16.0)
IMAGE = 640
CLASSES = 80
CONF = 0.001
NMS_IOU = 0.6
POOL = 200          # images per cycle; tail rung p95 leaves 10 beyond
BACKGROUNDS = 4
MEDIAN_OBJECTS = 5
MAX_OBJECTS = 52
MIN_SIDE, MAX_SIDE = 12.0, 320.0
CLUTTER = 0.005      # share of background cells above the confidence filter


def object_counts(n: int) -> list[int]:
    """Long-tailed object counts, the same for every seed."""
    return [max(1, int(round(v))) for v in lognormal_quantiles(n, MEDIAN_OBJECTS, MAX_OBJECTS)]


def _background(rng) -> list[np.ndarray]:
    levels = []
    for stride in STRIDES:
        n = IMAGE // stride
        arr = np.empty((n, n, CLASSES + 5))
        arr[..., :4] = rng.normal(0.0, 1.0, size=(n, n, 4))
        arr[..., 5:] = rng.normal(-5.0, 1.5, size=(n, n, CLASSES))
        # Exactly CLUTTER of the cells pass the 0.001 confidence filter, as
        # low-confidence clutter does in a detector's raw output; a fixed
        # count keeps the cost of an image the same from seed to seed.
        obj = np.minimum(rng.normal(-11.0, 0.8, size=n * n), -7.5)
        clutter = rng.choice(n * n, size=round(CLUTTER * n * n), replace=False)
        obj[clutter] = rng.uniform(-6.5, -3.0, size=clutter.size)
        arr[..., 4] = obj.reshape(n, n)
        levels.append(arr)
    return levels


def _quantile_sizes(rng, n: int) -> np.ndarray:
    """n box sides at evenly spaced log-uniform quantiles, shuffled."""
    q = (rng.permutation(n) + 0.5) / n
    return np.exp(np.log(MIN_SIDE) + q * (np.log(MAX_SIDE) - np.log(MIN_SIDE)))


def _plant(rng, n_objects: int):
    """Boxes, classes and the (level, x, y, channel values) cells they light.

    Sizes sit at fixed quantiles and half the objects share one class, so
    images with equal object counts cost about the same on every seed.
    """
    dominant = int(rng.integers(CLASSES))
    others = [c for c in range(CLASSES) if c != dominant]
    widths, heights = _quantile_sizes(rng, n_objects), _quantile_sizes(rng, n_objects)
    crowd = set(rng.permutation(n_objects)[: n_objects // 2].tolist())
    boxes, classes, cells = [], [], []
    for j, (w, h) in enumerate(zip(widths, heights)):
        cx = rng.uniform(w / 2, IMAGE - w / 2)
        cy = rng.uniform(h / 2, IMAGE - h / 2)
        cls = dominant if j in crowd else int(rng.choice(others))
        x1, y1, x2, y2 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
        boxes.append((x1, y1, x2, y2))
        classes.append(cls)
        for level, (stride, gain) in enumerate(zip(STRIDES, GAINS)):
            n = IMAGE // stride
            ax, ay = int(cx // stride), int(cy // stride)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    gx, gy = ax + dx, ay + dy
                    if not (0 <= gx < n and 0 <= gy < n):
                        continue
                    d = np.array([gx + 1 - x1 / stride, gy + 1 - y1 / stride,
                                  x2 / stride - gx, y2 / stride - gy])
                    if np.any(d <= 0.05) or np.any(d >= 3.9 * gain):
                        continue
                    values = np.full(CLASSES + 5, np.nan)
                    values[:4] = logit(np.sqrt(d / gain) / 2.0) + rng.normal(0.0, 0.08, 4)
                    ring = abs(dx) + abs(dy)
                    values[4] = (3.0, -0.5, -3.0)[ring] + rng.normal(0.0, 0.5)
                    values[5 + cls] = 2.5 + rng.normal(0.0, 0.5)
                    cells.append((level, gx, gy, values))
    return np.array(boxes).reshape(-1, 4), np.array(classes, dtype=int), cells


class InferStream:
    name = "infer-stream"
    rate_prefix = "image"

    def __init__(self, seed: int, detbox):
        self.detbox = detbox
        self.scale = detbox.ScaleConfig(strides=STRIDES, gains=GAINS, image_w=IMAGE, image_h=IMAGE)
        rng = np.random.default_rng([seed, 1])
        self.backgrounds = [_background(rng) for _ in range(BACKGROUNDS)]
        counts = object_counts(POOL)
        rng.shuffle(counts)
        self.images = [_plant(rng, int(n)) for n in counts]
        self.quality = None

    def grid(self, index: int) -> list[np.ndarray]:
        levels = [a.copy() for a in self.backgrounds[index % BACKGROUNDS]]
        for level, gx, gy, values in self.images[index][2]:
            cell = levels[level][gx, gy]
            mask = ~np.isnan(values)
            cell[mask] = values[mask]
        return levels

    def infer(self, levels):
        infer = self.detbox.infer
        decoded = infer.decode_grid(infer.PredictionGrid(tuple(levels)), self.scale, CONF)
        return decoded, infer.nms(decoded.detections, NMS_IOU)

    def warmup(self) -> None:
        for index in range(3):
            self.infer(self.grid(index))

    def close(self) -> None:
        pass

    def cycle(self, rec: Recorder) -> None:
        recalled = planted = 0
        for index in range(POOL):
            levels = self.grid(index)
            key = f"image {index}"
            done = rec.timed(key, lambda: self.infer(levels))
            if done is None:
                continue
            (decoded, kept), elapsed = done
            problem, found = self.check(levels, decoded, kept, index)
            if problem:
                rec.mismatch(f"image {index}: {problem}")
            else:
                rec.ok(key, elapsed)
            recalled += found
            planted += len(self.images[index][1])
        self.quality = recalled / planted

    def check(self, levels, decoded, kept, index: int):
        """Compare with the referees; also count planted objects recovered."""
        ref = reference_decode(levels, STRIDES, GAINS, CONF)
        dets = decoded.detections
        if decoded.dropped_degenerate != ref["dropped"]:
            return f"dropped_degenerate {decoded.dropped_degenerate} != {ref['dropped']}", 0
        if len(dets) != len(ref["x1"]):
            return f"{len(dets)} decoded detections, referee {len(ref['x1'])}", 0
        box = np.array([[d.box.x1, d.box.y1, d.box.x2, d.box.y2] for d in dets]).reshape(-1, 4)
        ident = np.array([[d.scale_index, d.cell[0], d.cell[1], d.class_id] for d in dets], dtype=int)
        ref_ident = np.stack([ref["scale"], ref["cx"], ref["cy"], ref["cls"]], axis=1)
        ref_box = np.stack([ref["x1"], ref["y1"], ref["x2"], ref["y2"]], axis=1)
        if not np.array_equal(ident.reshape(-1, 4), ref_ident.reshape(-1, 4)):
            return "decoded cells or classes differ from the referee", 0
        if not np.allclose(box, ref_box, rtol=1e-12, atol=1e-9):
            return "decoded boxes differ from the referee", 0
        obj = np.array([d.objectness for d in dets])
        score = np.array([d.score for d in dets])
        ref_score = ref["obj"] * ref["best"]
        if not np.allclose(obj, ref["obj"], rtol=1e-12, atol=0.0):
            return "decoded objectness differs from the referee", 0
        if not np.allclose(score, ref_score, rtol=1e-12, atol=0.0):
            return "decoded scores differ from the referee", 0
        want = reference_nms(box, ref_score, ident[:, 3], ident[:, 0], ident[:, 1], ident[:, 2],
                             NMS_IOU)
        position = {id(d): i for i, d in enumerate(dets)}
        got = [position.get(id(k), -1) for k in kept]
        if got != want:
            return f"nms kept {len(got)}, referee {len(want)} or in another order", 0
        truth, truth_cls = self.images[index][0], self.images[index][1]
        if not want:
            return None, 0
        ious = iou_matrix(truth, box[want])
        same = truth_cls[:, None] == ident[want, 3][None, :]
        return None, int(np.count_nonzero(((ious >= 0.5) & same).any(axis=1)))
