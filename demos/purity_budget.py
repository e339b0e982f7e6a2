"""Where the heralded-photon purity goes: jitter, dispersion, drive timing.

Evaluates the conditional-state purity with each imperfection switched on
alone and together, then sweeps the two dominant knobs. Sweeps run on halved
quadrature grids (the refinement tests bound the error well below the digits
printed here).
"""

from fmux import defaults, heralded, serrodyne
from fmux.spectrometer import JitterDistribution

GHZ = defaults.TWO_PI * 1e9


def with_jitter_std(model, std):
    from dataclasses import replace

    spect = replace(model.spectrometer,
                    jitter=JitterDistribution.gaussian(std * defaults.TIME_PER_FREQ))
    return replace(model, spectrometer=spect)


def main():
    gamma = heralded.gvd_parameter(
        defaults.FIBER_DISPERSION_PS_NM_KM,
        defaults.DELAY_LENGTH_M,
        defaults.SIGNAL_WAVELENGTH_M,
    )
    print("the two imperfections the feed-forward loop introduces")
    print(f"  spectrometer jitter, as frequency std: "
          f"{defaults.MEASURED_JITTER_FREQ_STD / GHZ:.0f} GHz")
    print(f"  delay-line GVD parameter: {gamma:.3e} s^2 "
          f"({defaults.DELAY_LENGTH_M:.0f} m of standard fiber)")
    print()

    p_jitter = heralded.purity_integral(heralded.jitter_only_model())
    p_gvd = heralded.purity_integral(heralded.gvd_only_model())
    p_both = heralded.purity_integral(heralded.default_model())
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
        model = with_jitter_std(heralded.jitter_only_model(), s_ghz * GHZ).scaled(0.5)
        p = heralded.purity_integral(model, check_refinement=False)
        print(f"  {s_ghz:>17.0f}  {p:7.4f}")
    print()

    print("sweep: purity vs group-velocity dispersion (jitter off)")
    print(f"  {'gamma (s^2)':>17}  {'purity':>7}  {'fiber equivalent':>18}")
    for scale, note in ((0.0, "no delay line"), (0.3, "90 m"), (1.0, "300 m"),
                        (1.8, "540 m")):
        model = heralded.gvd_only_model(gamma=scale * gamma).scaled(0.5)
        p = heralded.purity_integral(model, check_refinement=False)
        print(f"  {scale * gamma:>17.3e}  {p:7.4f}  {note:>18}")
    print()

    p_drive = serrodyne.phase_jitter_purity(
        defaults.PHASE_JITTER_STD, defaults.PUMP_SIGMA, defaults.SHIFT_MAX_HZ
    )
    print("third channel, for completeness: shifter drive timing jitter")
    print(f"  {defaults.PHASE_JITTER_STD * 1e12:.1f} ps of drive jitter at the "
          f"largest shift costs a factor {p_drive:.4f}")
    print("  it is negligible next to the other two and is left out of the")
    print("  combined model above.")


if __name__ == "__main__":
    main()
