#!/usr/bin/env python3
"""Frequency-overscaling study: regenerate the paper's Fig. 5 and 6.

Sweeps the proposed statistical fault-injection model (model C) over
clock frequency for the median benchmark at every (Vdd, noise)
operating point of Fig. 5, then compares all benchmarks at 0.7 V with
10 mV noise as in Fig. 6, printing the PoFF and its gain over the STA
limit for each configuration.

Run:
    python examples/frequency_overscaling_study.py [quick|default|paper]

The ``paper`` preset uses the paper's problem sizes and 200 trials per
point -- expect hours.  ``quick`` finishes in about a minute.
"""

import sys

from repro import experiments
from repro.experiments import ExperimentContext, fig5, fig6


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "quick"
    ctx = ExperimentContext.create(scale)

    print("=" * 72)
    print(f"Fig. 5 -- median benchmark, model C (scale: {scale})")
    print("=" * 72)
    results5 = experiments.run("fig5", scale, context=ctx)
    print(fig5.render(results5))
    print("\nPoFF summary (paper: +11.4 % / +3.3 % / none at 0.7 V):")
    for result in results5:
        gain = result.poff_gain
        text = f"{gain:+.1%}" if gain is not None else "beyond sweep"
        print(f"  {result.config.label:26s} PoFF gain over STA: {text}")

    print()
    print("=" * 72)
    print(f"Fig. 6 -- benchmark comparison @ 0.7 V, sigma = 10 mV")
    print("=" * 72)
    results6 = experiments.run("fig6", scale, context=ctx)
    print(fig6.render(results6))


if __name__ == "__main__":
    main()
