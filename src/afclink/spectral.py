"""Mode plans: the frequency offsets of the source comb and of the EOM sidebands.

Conventions
-----------
- Frequencies are plain floats in Hz, measured as *offsets* from the comb
  reference frequency of the memory (the frequency at which the multiplexed
  comb pattern is centered).  Keeping offsets rather than absolute optical
  frequencies (~490 THz) keeps all arithmetic in the MHz-GHz range, where
  double precision is exact to well below 1 Hz.
- Two offsets are considered the same frequency when they differ by less
  than ``MERGE_TOL_HZ`` (all plan frequencies are specified to 0.1 MHz, so
  1 Hz is far below any physical distinction in the model).

All functions are pure; everything here is safe to share across threads.
"""

from __future__ import annotations

import numpy as np

#: Absolute tolerance (Hz) for treating two frequency offsets as equal.
MERGE_TOL_HZ = 1.0


def tpc_mode_offsets(n_modes: int, fsr: float) -> np.ndarray:
    """Offsets of the active source comb modes: k*fsr, k symmetric around 0.

    ``n_modes`` must be odd so the modes sit symmetrically around the
    reference mode; returned sorted ascending.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if n_modes % 2 == 0:
        raise ValueError("n_modes must be odd: modes are placed symmetrically around mode 0")
    if fsr <= 0:
        raise ValueError("fsr must be > 0")
    half = (n_modes - 1) // 2
    return fsr * np.arange(-half, half + 1, dtype=np.float64)


def merge_offsets(values) -> np.ndarray:
    """Sort ``values`` (at least one) and collapse groups closer than
    ``MERGE_TOL_HZ`` to one representative."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(arr) >= MERGE_TOL_HZ
    return arr[keep]


def eom_sideband_offsets(f1: float, f2: float, max_order: int) -> np.ndarray:
    """All frequencies reachable with two phase modulators driven at f1 and f2.

    Returns the merged set {i*f1 + j*f2 : |i|,|j| <= max_order}, sorted
    ascending.  With f1 equal to the source free spectral range, f2 = 5*f1
    and max_order 2, the 25 combinations cover k*f1 for k = -12..12 exactly
    once, which is how the 25 memory comb copies are laid out.
    """
    if f1 <= 0 or f2 <= 0:
        raise ValueError("modulation frequencies must be > 0")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    orders = np.arange(-max_order, max_order + 1, dtype=np.float64)
    values = (orders[:, None] * f1 + orders[None, :] * f2).ravel()
    return merge_offsets(values)
