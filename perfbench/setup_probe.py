"""Time what a user pays before the first demonstration.

Run in a fresh interpreter:

    python3 perfbench/setup_probe.py <src dir> <urdf> <config> [<config> ...]

Prints the wall seconds spent importing dexretarget, parsing the URDF and
loading each pipeline configuration, then the same time corrected for
machine speed (see speed.py). Interpreter start-up is not counted.
"""

import sys
import time

from speed import SpeedProbe

with SpeedProbe(warm=False) as probe:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from pathlib import Path

    import dexretarget  # noqa: F401
    from dexretarget.dataio import load_config
    from dexretarget.robot_model import parse_urdf

    parse_urdf(Path(sys.argv[2]).read_text())
    for config in sys.argv[3:]:
        load_config(config)
    wall = time.perf_counter() - t0
print(repr(wall), repr(wall * probe.factor()))
