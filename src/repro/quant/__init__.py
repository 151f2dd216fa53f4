"""``repro.quant`` — int8 quantisers, QAT and the I-BERT integer kernels."""

from .ibert import (
    integer_erf,
    integer_exp,
    integer_gelu,
    integer_layernorm,
    integer_polynomial,
    integer_softmax,
    integer_sqrt,
)
from .qat import QATConfig, QATResult, quantization_aware_finetune
from .quantizers import (
    MinMaxObserver,
    MovingAverageObserver,
    QuantizationSpec,
    QuantizedTensor,
    compute_scale_zero_point,
    dequantize,
    fake_quantize,
    quantization_error,
    quantize,
)

__all__ = [
    "QuantizationSpec",
    "QuantizedTensor",
    "compute_scale_zero_point",
    "quantize",
    "dequantize",
    "fake_quantize",
    "quantization_error",
    "MinMaxObserver",
    "MovingAverageObserver",
    "QATConfig",
    "QATResult",
    "quantization_aware_finetune",
    "integer_polynomial",
    "integer_erf",
    "integer_gelu",
    "integer_exp",
    "integer_softmax",
    "integer_sqrt",
    "integer_layernorm",
]
