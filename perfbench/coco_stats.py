"""coco-stats: COCO ingestion, then assignment statistics per scene.

A cycle runs ``load_coco`` on a generated COCO document and then
``dataset_stats`` once per scene (assignment plus the collision audit).
Image sizes come from common real COCO sizes. 27.5% of images have a
size such as 640x427 or 500x375, which no stride of 32 divides: the
program rejects those scenes today, and each rejection is caught, counted
by reason and kept in the attempted count. About 1% of annotations are
crowd regions, plus a few degenerate and out-of-image ones that ingestion
must skip.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from common import Recorder, lognormal_quantiles

# The workload's specified mix: 27.5% of images have a size that no
# stride of 32 divides, and images carry 8.2 annotations on average,
# long-tailed up to 94. Within each group, image sizes are common COCO
# sizes, weighted by the relative weights below.
MISMATCH_SHARE = 0.275
SIZES = (   # (width, height, relative weight within its group)
    (640, 480, 0.42), (640, 427, 0.14), (480, 640, 0.10), (640, 640, 0.06),
    (640, 426, 0.05), (500, 375, 0.05), (427, 640, 0.04), (640, 512, 0.04),
    (512, 640, 0.04), (375, 500, 0.02), (612, 612, 0.02), (640, 360, 0.02),
)
IMAGES = 1000
MAX_STRIDE = 32        # coarsest stride of the default pyramid
CATEGORIES = 80
MEDIAN_ANNOTATIONS = 6.3
MAX_ANNOTATIONS = 95
SHARE_CROWD = 0.01
SHARE_DEGENERATE = 0.004
SHARE_OUTSIDE = 0.004


def _stratified(shares, n: int) -> list[int]:
    """Indices into ``shares`` with exact largest-remainder counts."""
    total = sum(shares)
    raw = [s * n / total for s in shares]
    counts = [int(r) for r in raw]
    for i in sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])[: n - sum(counts)]:
        counts[i] += 1
    return [i for i, c in enumerate(counts) for _ in range(c)]


def _annotation_counts(n: int) -> list[int]:
    """Long-tailed annotation counts (some images have none)."""
    return [int(round(v)) - 1 for v in lognormal_quantiles(n, MEDIAN_ANNOTATIONS, MAX_ANNOTATIONS)]


def _divisible(w: int, h: int) -> bool:
    return w % MAX_STRIDE == 0 and h % MAX_STRIDE == 0


def image_sizes(rng, n: int) -> list[tuple[int, int]]:
    """n image sizes, exactly MISMATCH_SHARE of them not stride multiples."""
    rejected = round(MISMATCH_SHARE * n)
    sizes = []
    for group, count in ((True, n - rejected), (False, rejected)):
        members = [s for s in SIZES if _divisible(s[0], s[1]) == group]
        sizes += [members[i][:2] for i in _stratified([m[2] for m in members], count)]
    return [sizes[i] for i in rng.permutation(n)]


def make_document(rng) -> tuple[dict, dict]:
    """A COCO instances document and the skip counts it plants."""
    sizes = image_sizes(rng, IMAGES)
    images = [{"id": k + 1, "width": w, "height": h} for k, (w, h) in enumerate(sizes)]
    # Scenes the program accepts and scenes it rejects each get the whole
    # count distribution, so every seed times the same mix of scene sizes.
    counts = [0] * IMAGES
    for group in (True, False):
        members = [k for k, (w, h) in enumerate(sizes) if _divisible(w, h) == group]
        for k, c in zip(members, rng.permutation(_annotation_counts(len(members)))):
            counts[k] = int(c)
    annotations = []
    for image, count in zip(images, counts):
        iw, ih = image["width"], image["height"]
        for _ in range(count):
            w = float(np.exp(rng.uniform(np.log(4.0), np.log(0.8 * iw))))
            h = float(np.exp(rng.uniform(np.log(4.0), np.log(0.8 * ih))))
            x = float(rng.uniform(0.0, iw - w))
            y = float(rng.uniform(0.0, ih - h))
            annotations.append({
                "id": len(annotations) + 1, "image_id": image["id"],
                "category_id": int(rng.integers(1, CATEGORIES + 1)),
                "bbox": [x, y, w, h], "iscrowd": 0,
            })
    n = len(annotations)
    planted = {
        "iscrowd": round(SHARE_CROWD * n),
        "nonpositive_size": round(SHARE_DEGENERATE * n),
        "center_outside": round(SHARE_OUTSIDE * n),
    }
    slots = iter(rng.permutation(n).tolist())
    for reason, count in planted.items():
        for _ in range(count):
            ann = annotations[next(slots)]
            x, y, w, h = ann["bbox"]
            if reason == "iscrowd":
                ann["iscrowd"] = 1
            elif reason == "nonpositive_size":
                ann["bbox"] = [x, y, 0.0, h]
            else:
                width = images[ann["image_id"] - 1]["width"]
                ann["bbox"] = [width + x, y, w, h]
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c} for c in range(1, CATEGORIES + 1)],
    }
    return doc, planted


class CocoStats:
    name = "coco-stats"
    rate_prefix = ""

    def __init__(self, seed: int, detbox, workdir: Path, tracer=None):
        self.detbox = detbox
        self.tracer = tracer
        rng = np.random.default_rng([seed, 3])
        doc, self.planted = make_document(rng)
        self.path = workdir / f"coco-{seed}.json"
        self.path.write_text(json.dumps(doc))
        self.annotations_per_image = {}
        for ann in doc["annotations"]:
            image = ann["image_id"]
            self.annotations_per_image[image] = self.annotations_per_image.get(image, 0) + 1
        self.scale = detbox.ScaleConfig()
        self.quality = None
        self.results = None

    def warmup(self) -> None:
        loaded = self.detbox.ingest.load_coco(self.path)
        for scene in loaded.scenes[:50]:
            try:
                self.detbox.ingest.dataset_stats([scene], self.scale)
            except ValueError:
                pass

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def cycle(self, rec: Recorder) -> None:
        ingest = self.detbox.ingest
        done = rec.timed("load", lambda: ingest.load_coco(self.path))
        if done is None:
            return
        loaded, elapsed = done
        problem = self.check_load(loaded)
        if problem:
            rec.mismatch(problem)
        else:
            rec.ok("load", elapsed, work=0.0, sample=False)
        results = []
        for scene in loaded.scenes:
            key = f"scene {scene.source_id}"
            done = rec.timed(key, lambda: ingest.dataset_stats([scene], self.scale))
            if done is None:
                results.append(None)
                continue
            stats, elapsed = done
            results.append(stats)
            problem = self.check_stats(scene, stats)
            if problem:
                rec.mismatch(f"{key}: {problem}")
            else:
                rec.ok(key, elapsed, work=self.annotations_per_image.get(int(scene.source_id), 0))
        if self.results is None:
            self.results = results
            for problem in self.check_records(loaded.scenes, results):
                rec.mismatch(problem)
        elif results != self.results:
            rec.mismatch("dataset_stats results differ from the first cycle")
        self.quality = loaded.n_converted / loaded.n_annotations

    def check_load(self, loaded):
        skipped = loaded.skipped
        if loaded.n_converted + skipped.total != loaded.n_annotations:
            return (f"converted {loaded.n_converted} + skipped {skipped.total} "
                    f"!= annotations {loaded.n_annotations}")
        for reason, count in self.planted.items():
            if getattr(skipped, reason, None) != count:
                return f"skipped.{reason} is {getattr(skipped, reason, None)}, planted {count}"
        return None

    @staticmethod
    def check_stats(scene, stats):
        positives = stats["positives"]
        if sum(positives["per_scale"].values()) != positives["total"]:
            return "per-scale positives do not sum to the total"
        if stats["n_objects"] != len(scene.objects) or stats["n_scenes"] != 1:
            return "scene or object count differs from the input"
        return None

    def check_records(self, scenes, results):
        """Every encoded record keeps l + r == w/stride + 1 (and t + b for h),
        and the records of a scene number the positives its stats report."""
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with paused:
            for scene, stats in zip(scenes, results):
                if stats is None or not scene.objects:
                    continue
                scale = self.detbox.ScaleConfig(image_w=int(scene.image_w), image_h=int(scene.image_h))
                records = self.detbox.assign(list(scene.objects), scale)
                if len(records) != stats["positives"]["total"]:
                    yield f"scene {scene.source_id}: {len(records)} records, stats say {stats['positives']['total']}"
                for rec in records:
                    box = scene.objects[rec.object_id][0]
                    stride = scale.strides[rec.scale_index]
                    t = rec.target
                    if (abs(t.l + t.r - (box.w / stride + 1)) > 1e-9
                            or abs(t.t + t.b - (box.h / stride + 1)) > 1e-9):
                        yield f"scene {scene.source_id}: record breaks the sum identity"
                        break

