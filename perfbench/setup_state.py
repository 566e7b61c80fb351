"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_state.py CONFIG STATE

Imports stormfields, loads CONFIG and builds the state that every
realization of the workload reuses, then prints ``{"setup_s": seconds}``.
STATE is ``grid_factor`` (``rescaled_factor`` on the configured grid),
``pair_factor`` (``rescaled_factor`` on the grid ``validate`` measures) or
``none``.
"""

import json
import sys
import time


def measurement_grid(pairs):
    """The base site and every lagged partner, as ``stormfields validate`` builds it."""
    import numpy as np
    from stormfields import SpaceTimeGrid

    spatial, times = [(0.0, 0.0)], [0.0]
    for h, u in pairs:
        if h not in spatial:
            spatial.append(h)
        if u not in times:
            times.append(u)
    return SpaceTimeGrid(np.array(spatial), np.array(sorted(times)))


def main(config_path: str, state: str) -> float:
    if state not in ("grid_factor", "pair_factor", "none"):
        raise SystemExit(f"unknown set-up state {state!r}")
    start = time.perf_counter()
    import stormfields
    from stormfields.config import load_config

    cfg = load_config(config_path)
    if state == "grid_factor":
        stormfields.rescaled_factor(cfg.model, cfg.grid, cfg.n)
    elif state == "pair_factor":
        grid = measurement_grid(cfg.validate.pairs)
        stormfields.rescaled_factor(cfg.model, grid, cfg.validate.n)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(*sys.argv[1:3])}))
