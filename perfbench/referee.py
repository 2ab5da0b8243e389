"""Independent referees for the inference path.

Both are written from the documented contract of ``detbox.infer``, not
from its code: a confident cell decodes through the corner-distance code,
and greedy suppression is per class, ranked by objectness times the best
class probability with ties broken by (scale, cell_y, cell_x, class).
They work on arrays, so checking an image costs far less than inferring it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


def reference_decode(levels, strides, gains, conf_threshold: float) -> dict:
    """Decode every confident, non-degenerate cell into column arrays.

    Rows are ordered like the program's output: descending objectness,
    then scale, cell_y, cell_x and class.
    """
    cols = {k: [] for k in ("x1", "y1", "x2", "y2", "obj", "best", "cls", "scale", "cx", "cy")}
    dropped = 0
    for scale_index, (arr, stride, gain) in enumerate(zip(levels, strides, gains)):
        obj = expit(arr[..., 4])
        cx, cy = np.nonzero(obj >= conf_threshold)
        s = expit(arr[cx, cy, :4])
        d = 4.0 * gain * s * s
        x1 = stride * (cx + 1.0 - d[:, 0])
        y1 = stride * (cy + 1.0 - d[:, 1])
        x2 = stride * (cx + d[:, 2])
        y2 = stride * (cy + d[:, 3])
        good = (x2 > x1) & (y2 > y1)
        dropped += int(np.count_nonzero(~good))
        cls_scores = expit(arr[cx[good], cy[good], 5:])
        for key, val in (
            ("x1", x1[good]), ("y1", y1[good]), ("x2", x2[good]), ("y2", y2[good]),
            ("obj", obj[cx[good], cy[good]]), ("best", cls_scores.max(axis=1)),
            ("cls", cls_scores.argmax(axis=1)), ("scale", np.full(int(good.sum()), scale_index)),
            ("cx", cx[good]), ("cy", cy[good]),
        ):
            cols[key].append(val)
    out = {k: np.concatenate(v) for k, v in cols.items()}
    order = np.lexsort((out["cls"], out["cx"], out["cy"], out["scale"], -out["obj"]))
    out = {k: v[order] for k, v in out.items()}
    out["dropped"] = dropped
    return out


def reference_nms(boxes, score, cls, scale, cx, cy, iou_threshold: float) -> list:
    """Brute-force per-class greedy suppression of (n, 4) corner boxes;
    returns kept row indices in rank order."""
    order = np.lexsort((cls, cx, cy, scale, -score))
    suppressed = np.zeros(len(order), dtype=bool)
    kept = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        kept.append(int(i))
        rest = order[pos + 1:]
        rest = rest[(cls[rest] == cls[i]) & ~suppressed[rest]]
        if rest.size:
            suppressed[rest[iou_matrix(boxes[i:i + 1], boxes[rest])[0] > iou_threshold]] = True
    return kept


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) corner boxes, with the scalar
    reference's arithmetic: overlap extents, then inter / (area_a + area_b
    - inter), and 0 for boxes that do not overlap."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)
