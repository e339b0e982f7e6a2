"""One feed-forward correction by hand, then a hundred thousand in bulk.

First walks a single heralded pair through the chain: time-of-flight
spectrometer, lookup table, serrodyne drive setting, output filter. Then runs
the stream simulation and draws the measured joint spectrum before and after
shifting as text density maps.
"""

import numpy as np

from fmux import defaults, serrodyne
from fmux.scenarios import load_config, simulate_feedforward_stream
from fmux.spectrometer import sample_herald_event

GHZ = defaults.TWO_PI * 1e9
SHADES = " .:-=+*#%@"


def density_map(hist, rows=12, cols=48):
    """Down-sample a 2D histogram into a character raster."""
    h = np.asarray(hist, dtype=float)
    r_edges = np.linspace(0, h.shape[0], rows + 1).astype(int)
    c_edges = np.linspace(0, h.shape[1], cols + 1).astype(int)
    blocks = np.array([
        [h[r_edges[i]:r_edges[i + 1], c_edges[j]:c_edges[j + 1]].sum()
         for j in range(cols)]
        for i in range(rows)
    ])
    top = blocks.max()
    lines = []
    for row in blocks:
        idx = np.zeros(cols, dtype=int) if top == 0 else np.minimum(
            (row / top * (len(SHADES) - 1)).astype(int), len(SHADES) - 1)
        lines.append("".join(SHADES[k] for k in idx))
    return lines


def main():
    cfg = load_config("feedforward-stream")
    spect = cfg.build_spectrometer(cfg.get("feedforward.stream_spectrometer"))
    window = cfg.signal_filter()
    shifter = cfg.shifter()
    lut = serrodyne.build_lut(spect, shifter, span=cfg.get("feedforward.herald_span_ghz") * GHZ)

    print("single event, step by step")
    idler_true = spect.reference_frequency - 40.0 * GHZ
    signal_true = cfg.pump().center - idler_true  # exact energy conservation
    rng = np.random.default_rng(cfg.seed)
    k, inferred = sample_herald_event(spect, idler_true, rng)
    shift_hz, routed = lut.route(k)
    print(f"  idler detuning (true)      {(idler_true - spect.reference_frequency) / GHZ:8.2f} GHz")
    print(f"  arrival lands in TDC bin   {int(k):8d}")
    print(f"  inferred idler detuning    "
          f"{(float(inferred) - spect.reference_frequency) / GHZ:8.2f} GHz"
          f"   (one {spect.bin_frequency_step / GHZ:.2f} GHz bin wide)")
    print(f"  partner before correction  {(signal_true - window.center) / GHZ:8.2f} GHz "
          "off the filter center")
    print(f"  table says: drive {lut.v0[k - lut.first_bin]:.2f} V, "
          f"shift {float(shift_hz) / 1e9:+.2f} GHz   (in range: {bool(routed)})")
    residual = signal_true + defaults.TWO_PI * float(shift_hz) - window.center
    print(f"  partner after correction   {residual / GHZ:8.2f} GHz off center, "
          f"filter half-width {window.half_width / GHZ:.0f} GHz")
    print()

    pulses = cfg.get("run.stream_pulses")
    print(f"now the same loop over {pulses} pulses")
    result = simulate_feedforward_stream(cfg)
    print(f"  heralds within the correctable span  {result.in_range_fraction:.3f}")
    print(f"  routed photons passing the filter    {result.pass_fraction_in_range:.3f}")
    print(f"  herald/signal correlation r          {result.r_unshifted:+.4f} before shifting")
    print(f"                                       {result.r_shifted:+.4f} after")
    print()

    print("joint spectrum as detected, before shifting (herald down, signal across)")
    for line in density_map(result.unshifted_hist):
        print("  |" + line + "|")
    print()
    print("after shifting, within the filter band: the ridge is gone, every")
    print("herald bin now points at the same signal spectrum")
    for line in density_map(result.shifted_hist):
        print("  |" + line + "|")


if __name__ == "__main__":
    main()
