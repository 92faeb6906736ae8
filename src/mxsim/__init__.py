"""mxsim: a bit-exact desk-scale simulator for microscaling FP4 training."""

from mxsim.formats import FORMATS, FloatFormat, get_format
from mxsim.hadamard import HadamardSpec
from mxsim.mx import BlockSpec, dequantize_tensor, quantize_tensor
from mxsim.qgrad import GradConfig
from mxsim.qlinear import QLinearConfig, backward, forward
from mxsim.sweep import SweepConfig, SweepGrid, complexity_points, score
from mxsim.trainer import TaskSpec, TrainConfig, train

__all__ = [
    "FORMATS",
    "FloatFormat",
    "get_format",
    "HadamardSpec",
    "BlockSpec",
    "quantize_tensor",
    "dequantize_tensor",
    "GradConfig",
    "QLinearConfig",
    "forward",
    "backward",
    "SweepConfig",
    "SweepGrid",
    "complexity_points",
    "score",
    "TaskSpec",
    "TrainConfig",
    "train",
]
__version__ = "0.1.0"
