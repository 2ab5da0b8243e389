from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from detbox import BoundingBox, ScaleConfig

# every property test draws the same examples on every run, with no time limit;
# a test's own @settings sets only its max_examples
settings.register_profile("detbox", deadline=None, derandomize=True)
settings.load_profile("detbox")

DATA_DIR = Path(__file__).parent / "data"
COCO_FIXTURE = DATA_DIR / "coco_sample.json"


@pytest.fixture
def scale():
    return ScaleConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_box(rng, image_w=640, image_h=640, size_lo=0.5, size_hi=500.0) -> BoundingBox:
    """Random positive-size box with a strictly interior, sub-pixel center."""
    w = rng.uniform(size_lo, size_hi)
    h = rng.uniform(size_lo, size_hi)
    cx = rng.uniform(1.0, image_w - 1.0)
    cy = rng.uniform(1.0, image_h - 1.0)
    return BoundingBox(cx, cy, w, h)
