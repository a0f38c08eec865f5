"""The calibration job that run.py times between command sequences.

A fixed mix of the work the benchmarked commands do (interpreter start,
numpy and scipy imports, float formatting and parsing, array sorting and an
interpreted loop) that imports nothing from the program, so its time
measures the host's speed and no change to the program can move it.
"""

import json

import numpy as np
import scipy.special  # noqa: F401  (import cost is part of the job)


def main() -> None:
    x = np.random.default_rng(0).standard_normal(200_000)
    json.loads(json.dumps(x.tolist()))
    np.sort(x)
    total = 0
    for i in range(200_000):
        total += i * i


if __name__ == "__main__":
    main()
