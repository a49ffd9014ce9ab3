"""Print one sha256 of ``cov_closed`` over a fixed grid, to check that a
change to the closed form moves no output bit.

For each stable pair of alpha in ALPHAS and beta in BETAS (in that order)
it hashes the float64 bytes of one array call on the lags -30..30 x
-30..30, then those of the scalar calls at SPOT_LAGS.  Pairs off the
stable region are skipped; their number is printed with the digest.

Run from the repository root, once before and once after the change:

    python tests/closed_digest.py

The file is not collected by pytest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spatialar.covariance import cov_closed  # noqa: E402
from spatialar.model import ModelParams  # noqa: E402

ALPHAS = (-0.7, -0.45, -0.25, -0.1, 0.0, 0.1, 0.25, 0.45, 0.6, 1e-9, -1e-6)
BETAS = (-0.45, -0.25, 0.0, 0.1, 0.25, 0.39, 0.95)
SPOT_LAGS = ((3, -2), (0, 0), (0, 5), (-4, 0), (2, 2), (1200, -1000))


def digest() -> tuple[str, int]:
    """The sha256 of the grid and the number of stable pairs it covers."""
    sha, pairs = hashlib.sha256(), 0
    lags = np.arange(-30, 31)
    for a in ALPHAS:
        for b in BETAS:
            p = ModelParams(a, b)
            if not p.is_stationary():
                continue
            pairs += 1
            sha.update(np.asarray(cov_closed(p, lags[:, None], lags[None, :]),
                                  dtype=np.float64).tobytes())
            spots = [cov_closed(p, k, l) for k, l in SPOT_LAGS]
            sha.update(np.array(spots, dtype=np.float64).tobytes())
    return sha.hexdigest(), pairs


def main() -> int:
    value, pairs = digest()
    print(f"{value}  ({pairs} stable pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
