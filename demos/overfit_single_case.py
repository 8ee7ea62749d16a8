"""Overfit the micro U-Net on one phantom case and score the implant.

The full 500 steps take about half a minute on a 2-vCPU x86 machine; pass
--steps 100 for a quicker (and rougher) look.
"""

from __future__ import annotations

import argparse

from ribfill import (
    EmptyMaskError,
    NetConfig,
    OptState,
    PhantomSpec,
    PipelineConfig,
    evaluate,
    generate_phantom,
    prepare_case,
    train,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=500)
    args = ap.parse_args()

    ct = generate_phantom(
        PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), rib_radius=2.6, seed=0)
    )
    case = prepare_case(ct, PipelineConfig(), seed=25)
    frac = case.implant.data[case.box.slices].mean()
    print(f"case: box {case.box.size} at {case.box.origin}, bone fraction {frac:.3f}")

    result = train(
        [case],
        NetConfig(depth=2, base_channels=8),
        OptState(lr=1e-3),
        steps=args.steps,
        seed=0,
    )
    for i, r in enumerate(result.log, start=1):
        if i == 1 or i % 50 == 0 or i == len(result.log):
            print(f"step {i:4d}  rib={r.rib:.4f}  dice={r.dice:.4f}  "
                  f"mse={r.mse:.4f}  err={r.err:.4f}  gf={r.gf:.4f}")

    first, last = result.log[0], result.log[-1]
    print(f"\nrib loss {first.rib:.4f} -> {last.rib:.4f} "
          f"({last.rib / first.rib:.1%} of step 1)")
    try:
        rep = evaluate(result.params, [case])[0]
    except EmptyMaskError:
        print("prediction crop is still empty at 0.5; train longer for a score")
        return
    print(f"defect-crop DSC {rep.dsc:.4f}, Hausdorff {rep.hd:.2f} mm")


if __name__ == "__main__":
    main()
