"""Quickstart — train a Bioformer on synthetic NinaPro DB6 and deploy it.

This is the 5-minute tour of the library:

1. build the synthetic NinaPro DB6 surrogate (reduced scale);
2. train Bioformer (h=8, d=1) on subject 1's sessions 1-5;
3. evaluate on the multi-day test sessions 6-10;
4. fine-tune with QAT, score the int8 model on the integer executor and
   estimate the GAP8 deployment cost.

Run with::

    python examples/quickstart.py
"""

from repro.data import NinaProDB6, NinaProDB6Config, subject_split
from repro.deploy import deploy_graph, estimate_deployment, trace_model
from repro.models import bioformer_bio1
from repro.quant import QATConfig, quantization_aware_finetune
from repro.training import ProtocolConfig, evaluate, train_subject_specific


def main() -> None:
    # 1. Data: the synthetic surrogate with the paper's subject/session layout.
    dataset = NinaProDB6(NinaProDB6Config.small(num_subjects=2))
    print(dataset.describe())
    split = subject_split(dataset, subject=1, include_pretrain=False)
    print(f"subject 1: {len(split.train)} training windows, {len(split.test)} test windows")

    # 2. Model: Bioformer (8 heads, depth 1, filter dimension 10).
    model = bioformer_bio1(
        patch_size=10,
        window_samples=dataset.config.window_samples,
        num_channels=dataset.config.num_channels,
    )
    print(f"model: {model.name} with {model.num_parameters():,} parameters")

    # 3. Train on sessions 1-5, test on sessions 6-10.
    protocol = ProtocolConfig.small()
    outcome = train_subject_specific(model, split, protocol, num_classes=8)
    print(f"float test accuracy: {100 * outcome.test_accuracy:.2f}%")
    for session, accuracy in outcome.session_series().items():
        print(f"  session {session}: {100 * accuracy:.1f}%")

    # 4. Lower to int8, score on the integer executor, estimate the GAP8 cost.
    quantization_aware_finetune(model, split.train, QATConfig.small())
    quantized = deploy_graph(
        model, split.train.windows[:256], split.test.windows, split.test.labels, generate_code=False
    )
    print(f"int8 test accuracy:  {100 * quantized.int8_accuracy:.2f}%")

    record = estimate_deployment(trace_model(bioformer_bio1(patch_size=10)))  # paper geometry
    print(
        f"GAP8 estimate: {record.memory_kilobytes:.1f} kB, {record.mmacs:.1f} MMAC, "
        f"{record.latency_ms:.2f} ms, {record.energy_mj:.3f} mJ per inference, "
        f"{record.duty_cycle.battery_life_hours:.0f} h on a 1000 mAh battery"
    )


if __name__ == "__main__":
    main()
