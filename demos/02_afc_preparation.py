#!/usr/bin/env python3
"""Preparing the multiplexed absorption comb and checking its echo yield.

Builds the 25-mode comb pattern inside the inhomogeneous line, exports the
spectrum, and compares the closed-form echo efficiency against the
frequency-domain filter oracle across a range of comb depths.
"""

import os

import numpy as np

from afclink.memory import (
    AFCConfig,
    InhomogeneousProfile,
    afc_efficiency,
    afc_efficiency_oracle,
    comb_spectrum,
    prepare_afc,
)
from afclink.source import tpc_mode_offsets

out_dir = os.path.dirname(os.path.abspath(__file__))

inh = InhomogeneousProfile()
cfg = AFCConfig()
spectrum = prepare_afc(inh, cfg, tpc_mode_offsets(25, 117.2e6))
path = os.path.join(out_dir, "afc_spectrum.csv")
with open(path, "w") as fh:
    fh.write(spectrum.to_csv())
f = spectrum.frequencies()
print(f"{len(f)} spectrum points over [{f[0]/1e9:.2f}, {f[-1]/1e9:.2f}] GHz -> {path}")
print(f"tooth spacing {cfg.tooth_spacing/1e6:.2f} MHz -> storage time {cfg.storage_time*1e9:.2f} ns")

print("\n  d      F    analytic   filter-oracle   ratio")
for d, F in [(0.5, 2), (1, 4), (2, 4), (2, 10), (4, 5), (4, 20)]:
    eta = afc_efficiency(d, F, 0.0)
    oracle = afc_efficiency_oracle(comb_spectrum(d, F, n_teeth=81, points_per_tooth=24), 0.0, 1.15e6)
    print(f"  {d:<5} {F:<5} {eta:9.5f}   {oracle:9.5f}     {oracle/eta:5.3f}")

F = 100.0
d_scan = np.linspace(0.2 * F, 5 * F, 400)
eta_scan = [afc_efficiency(d, F, 0.0) for d in d_scan]
k = int(np.argmax(eta_scan))
print(f"\noptimum at F={F:.0f}: d = {d_scan[k]:.0f} (= {d_scan[k]/F:.2f} F), "
      f"eta = {eta_scan[k]:.4f} (theory 4/e^2 = {4*np.exp(-2):.4f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.plot(f / 1e9, spectrum.optical_depth, lw=0.3)
    ax1.set_xlabel("offset from comb reference (GHz)")
    ax1.set_ylabel("optical depth")
    sel = np.abs(f) < 10e6
    ax2.plot(f[sel] / 1e6, spectrum.optical_depth[sel], lw=0.8)
    ax2.set_xlabel("offset (MHz)")
    fig.tight_layout()
    fig.savefig(os.path.join(out_dir, "afc_spectrum.png"), dpi=120)
    print("plot saved to afc_spectrum.png")
except ImportError:
    print("matplotlib not available; skipping the plot")
