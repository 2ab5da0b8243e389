"""detbox loads ``scipy.special`` at its first sigmoid, not at import.

This test process has ``scipy.special`` loaded already, so each case runs
its code in a fresh interpreter that imports this checkout's detbox and
then reports whether ``scipy.special`` is in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import detbox

from conftest import COCO_FIXTURE
from test_cli import _det_line


def loads_scipy_special(code: str, cwd: Path) -> bool:
    src = str(Path(detbox.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('scipy.special' in sys.modules)"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.split()[-1]]


def test_import_does_not_load_scipy_special(tmp_path):
    code = "import detbox, detbox.cli, detbox.fit, detbox.gradcheck, detbox.infer"
    assert not loads_scipy_special(code, tmp_path)


def test_scene_commands_do_not_load_scipy_special(tmp_path):
    code = "\n".join(
        f"assert main([{command!r}, '--scene', {str(COCO_FIXTURE)!r}, "
        f"'--output', {command!r} + '.out']) == 0"
        for command in ("encode", "assign-stats", "audit")
    )
    assert not loads_scipy_special("from detbox.cli import main\n" + code, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"encode.out", "assign-stats.out", "audit.out"}


def test_nms_command_does_not_load_scipy_special(tmp_path):
    (tmp_path / "dets.jsonl").write_text("\n".join([
        _det_line(0, 0, 10, 10, 0.9, 1), _det_line(1, 1, 10, 10, 0.8, 1),
        _det_line(0, 0, 10, 10, 0.7, 2),
    ]) + "\n")
    code = ("from detbox.cli import main\n"
            "assert main(['nms', '--detections', 'dets.jsonl', '--output', 'kept.jsonl']) == 0")
    assert not loads_scipy_special(code, tmp_path)
    assert len((tmp_path / "kept.jsonl").read_text().splitlines()) == 3   # config line, 2 kept


def test_decode_grid_loads_scipy_special(tmp_path):
    code = ("import numpy as np\n"
            "from detbox import PredictionGrid, ScaleConfig, decode_grid\n"
            "scale = ScaleConfig()\n"
            "levels = [np.zeros((*scale.grid_size(i), 6)) for i in range(scale.num_scales)]\n"
            "decode_grid(PredictionGrid(tuple(levels)), scale)")
    assert loads_scipy_special(code, tmp_path)
