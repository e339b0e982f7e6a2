"""Tour of the pair spectrum: why heralding alone cannot give a pure photon.

Builds the joint spectral amplitude at the reference operating point, shows
how strongly the two frequencies are anticorrelated, and compares the two
classical remedies (narrow herald filtering vs. accepting the loss) with the
numbers the rest of the package is built around.
"""

from fmux import defaults, spectral
from fmux.scenarios import load_config

GHZ = defaults.TWO_PI * 1e9


def main():
    sigma = load_config("joint-spectrum").pump().sigma
    pump = spectral.PumpEnvelope(sigma=sigma, center=0.0)
    grid = spectral.default_grid(0.0, sigma)
    jsa = spectral.build_anticorrelated_jsa(pump, grid, grid)

    print("joint spectrum at the reference operating point")
    print(f"  pump spectral std        {sigma / GHZ:8.2f} GHz")
    print(f"  grid                     {grid.points} points spanning "
          f"{grid.span / GHZ:.0f} GHz per axis")
    print(f"  frequency correlation r  {spectral.intensity_correlation(jsa):8.4f}")
    print(f"  Schmidt mode number      {spectral.schmidt_number(jsa):8.2f}")
    print(f"  heralded purity          {spectral.schmidt_purity(jsa):8.4f}")
    print()
    print("a herald detection picks one point on a long anticorrelation ridge,")
    print("so the unfiltered heralded photon is a near-maximal mixture.")
    print()

    print("remedy 1: filter the herald hard and keep only matching pairs")
    print(f"  {'herald filter std (GHz)':>24}  {'purity':>7}  {'heralds kept':>12}")
    for sigma_ghz in (40.0, 20.0, 10.0, 5.0):
        window = spectral.GaussianWindow(0.0, sigma_ghz * GHZ)
        filtered, kept = spectral.apply_filter(jsa, window, axis="herald")
        print(f"  {sigma_ghz:>24.0f}  {spectral.schmidt_purity(filtered):7.4f}  "
              f"{kept:12.3f}")
    print()
    print("purity rises only as fast as the heralding rate falls; a ~0.95-pure")
    print("photon costs roughly ninety percent of the usable heralds.")
    print()

    print("remedy 2 is the subject of this package: measure the herald frequency")
    print("instead of filtering it, and shift the signal photon onto the filter.")
    print("every herald within the correctable span then becomes usable, at the")
    print("price of the spectrometer's timing jitter. demos/purity_budget.py")
    print("quantifies that price.")


if __name__ == "__main__":
    main()
