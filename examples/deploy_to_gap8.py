"""Deploy a trained Bioformer to GAP8: trace, quantise, tile and generate C.

This example walks the full deployment toolchain a user would run before
flashing a device (the flow behind the paper's Table I):

1. train Bioformer (h=8, d=1) on subject 1 of the synthetic NinaPro DB6;
2. trace the trained model into the deployment graph IR;
3. lower it to int8 (activation calibration + fixed-point requantisation,
   LUT lowering of the I-BERT softmax/GELU, and kernel fusion);
4. run the integer-only engine and compare it against float inference;
5. plan the L2 activation arena and the L1 tiling;
6. estimate latency / energy / battery life on the GAP8 cost model;
7. emit the C deployment bundle (weights.h, network.c, ...).

Run with::

    python examples/deploy_to_gap8.py
"""

import os
import tempfile

from repro.data import NinaProDB6, NinaProDB6Config, subject_split
from repro.deploy import CodeGenerator, deploy_graph
from repro.models import bioformer_bio1
from repro.training import ProtocolConfig, train_subject_specific


def main() -> None:
    # 1. Data and a quickly trained model (reduced scale; see DESIGN.md).
    dataset = NinaProDB6(NinaProDB6Config.small(num_subjects=2))
    split = subject_split(dataset, subject=1, include_pretrain=False)
    model = bioformer_bio1(
        patch_size=10,
        window_samples=dataset.config.window_samples,
        num_channels=dataset.config.num_channels,
    )
    outcome = train_subject_specific(model, split, ProtocolConfig.small(), num_classes=8)
    print(f"trained {model.name}: float test accuracy {100 * outcome.test_accuracy:.2f}%")

    # 2-6. The whole deployment pipeline in one call.  The integer
    # softmax/GELU are lowered into lookup tables, so the generated schedule
    # calls the _lut_ kernels and weights.h carries the tables; the int8
    # serving backend runs the same op set.  The compiler folds each FFN
    # GELU into its linear layer (bitwise-identical logits, fewer kernels).
    deployment = deploy_graph(
        model,
        calibration_inputs=split.train.windows[:256],
        evaluation_inputs=split.test.windows,
        evaluation_labels=split.test.labels,
    )
    print()
    print(deployment.render())

    # A few of the individual artefacts, for the curious:
    print()
    print("Largest activation tensor:", deployment.graph.largest_activation())
    print("Activation arena reuse:   ", f"{deployment.memory_plan.reuse_factor:.2f}x")
    dma_kb = deployment.tiling_plan.total_dma_bytes / 1024.0
    print("L1 tiling:                ", f"{deployment.tiling_plan.total_tiles} tiles, {dma_kb:.1f} kB DMA")

    # 7. Write the generated C sources next to this script (or a temp dir).
    output_directory = os.environ.get(
        "BIOFORMER_CODEGEN_DIR", os.path.join(tempfile.gettempdir(), "bioformer_gap8")
    )
    written = CodeGenerator(deployment.quantized, deployment.memory_plan).write(output_directory)
    print()
    print("generated C bundle:")
    for path in written:
        print(f"  {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    main()
