"""The optical loss ledger, and closing the loop with Klyshko efficiencies.

Prints the component-by-component budget for both arms, then checks that
coincidence-to-singles ratios measured on simulated click data recover the
same efficiencies.
"""

import math
from dataclasses import replace

from fmux import losses, statistics
from fmux.scenarios import load_config


def main():
    cfg = load_config("loss-budget")
    table = cfg.loss_table()
    print("component budget (dB)")
    print(f"  {'component':<28} {'arm':<8} {'loss':>6}")
    for entry in table.entries:
        print(f"  {entry.component:<28} {entry.arm:<8} {entry.loss_db:>6.2f}")
    for arm in ("signal", "herald"):
        eff = losses.arm_efficiency(table, arm)
        print(f"  {arm} arm: {table.total_db(arm):.2f} dB total, "
              f"efficiency {eff:.4f}")
    print()

    model = replace(cfg.statistics_model(multiplexed=False), n_modes=1.0)
    pulses = 2_000_000
    counts = statistics.monte_carlo_counting(model, pulses, seed=11)
    s_hat, h_hat = statistics.klyshko_efficiencies(counts)
    se_s = math.sqrt(s_hat * (1 - s_hat) / (counts.p_h * pulses))
    se_h = math.sqrt(h_hat * (1 - h_hat) / (counts.p_s * pulses))
    print(f"Klyshko closed loop on {pulses} simulated pulses "
          f"(injected {model.eta_s}/{model.eta_h})")
    print(f"  signal arm  {s_hat:.4f} +/- {se_s:.4f}")
    print(f"  herald arm  {h_hat:.4f} +/- {se_h:.4f}")
    print()

    print(losses.format_reconciliation(losses.reconcile(table, (s_hat, h_hat),
                                                       cfg.get("losses.tolerance"))))
    print()
    print("caveat: the ratio estimator needs the signal photon to reach its")
    print("detector whether or not the herald fired. with feed-forward routing")
    print("enabled the signal is gated on the herald, p_s equals p_sh, and the")
    print("herald-arm estimate collapses to one. measure losses with the")
    print("shifter drive parked.")


if __name__ == "__main__":
    main()
