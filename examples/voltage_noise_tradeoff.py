#!/usr/bin/env python3
"""Voltage-overscaling / power / quality trade-off (the paper's Fig. 7).

Runs the median benchmark at the fixed nominal 707 MHz clock while the
supply voltage scales below 0.7 V, with the CDFs characterized at 0.7 V
rescaled through the fitted Vdd-delay curve.  Each voltage converts to
normalized core power through the quadratic power model, producing the
error-versus-power trade-off curves for three supply-noise levels.

Run:
    python examples/voltage_noise_tradeoff.py [quick|default|paper]
"""

import sys

from repro import experiments
from repro.experiments import ExperimentContext, fig7
from repro.power import CorePowerModel


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "quick"
    ctx = ExperimentContext.create(scale)

    result = experiments.run("fig7", scale, context=ctx)
    print(fig7.render(result))

    print("\nPaper reference points: PoFF ~0 % error at 0.93x power "
          "(0.667 V); 22 % error at 0.88x power (0.657 V); noise "
          "sigma = 25 mV leaves only marginal savings.")

    power_model = CorePowerModel()
    print("\nPower model sanity:")
    for vdd in (0.700, 0.667, 0.657):
        ratio = power_model.normalized_power(vdd, 707.0)
        print(f"  {vdd:.3f} V -> {ratio:.2f}x core power @ 707 MHz")


if __name__ == "__main__":
    main()
